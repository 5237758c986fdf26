package repro.linalg

/** Helpers the suites use to inspect a [[Csr]]. */
object CsrTestUtil {

  /** Dense materialization: entry (dst, src) sums the weights of its edges. */
  def toDense(csr: Csr): Mat = {
    val m = Mat.zeros(csr.numRows, csr.numRows)
    for (r <- 0 until csr.numRows; e <- csr.rowPtr(r) until csr.rowPtr(r + 1))
      m(r, csr.colIdx(e)) = m(r, csr.colIdx(e)) + csr.weight(e)
    m
  }
}
