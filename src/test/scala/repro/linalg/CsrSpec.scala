package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CsrSpec extends AnyFunSuite {

  /** Random digraph without self-loops or duplicate edges. */
  private def randomCsr(n: Int, e: Int, seed: Long): Csr = {
    val rng = new Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (set.size < e && guard < e * 50) {
      guard += 1
      val s = rng.nextInt(n); val d = rng.nextInt(n)
      if (s != d) set += ((s, d))
    }
    val (src, dst) = set.toArray.unzip
    Csr.fromEdges(n, src.length, src, dst, Array.fill(src.length)(1.0))
  }

  /** A CSR from (src, dst, weight) edges in the given order. */
  private def csrOf(n: Int, edges: (Int, Int, Double)*): Csr =
    Csr.fromEdges(n, edges.length, edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3).toArray)

  private def naiveMeanAgg(csr: Csr, h: Mat): Mat = {
    val out = Mat.zeros(csr.numRows, h.cols)
    for (v <- 0 until csr.numRows) {
      val nbrs = (csr.rowPtr(v) until csr.rowPtr(v + 1)).map(csr.colIdx)
      for (c <- 0 until h.cols) {
        var s = h(v, c)
        nbrs.foreach(u => s += h(u, c))
        out(v, c) = s / (1 + nbrs.length)
      }
    }
    out
  }

  private def naiveNeighborMean(csr: Csr, h: Mat): Mat = {
    val out = Mat.zeros(csr.numRows, h.cols)
    for (v <- 0 until csr.numRows) {
      val nbrs = (csr.rowPtr(v) until csr.rowPtr(v + 1)).map(csr.colIdx)
      if (nbrs.nonEmpty)
        for (c <- 0 until h.cols) out(v, c) = nbrs.map(u => h(u, c)).sum / nbrs.length
    }
    out
  }

  test("fromEdges keeps input order within a row and numbers edges by input position") {
    // the arrays are longer than numEdges: only the first three entries count
    val csr = Csr.fromEdges(3, 3, Array(2, 1, 0, 9), Array(0, 0, 2, 9), Array(5.0, 3.0, 1.0, 9.0))
    assert(csr.rowPtr.toSeq == Seq(0, 2, 2, 3))
    assert(csr.colIdx.toSeq == Seq(2, 1, 0)) // row 0 keeps srcs 2,1 in input order
    assert(csr.weight.toSeq == Seq(5.0, 3.0, 1.0))
  }

  test("degree counts in-edges per destination") {
    val csr = csrOf(3, (1, 0, 1.0), (2, 0, 1.0), (0, 2, 1.0))
    assert(csr.degree(0) == 2 && csr.degree(1) == 0 && csr.degree(2) == 1)
  }

  test("meanAggregate matches naive implementation") {
    for (seed <- 0 until 10) {
      val csr = randomCsr(12, 30, seed)
      val h = Mat.rand(12, 5, new Random(seed + 100))
      assert(csr.meanAggregate(h, 1).approxEquals(naiveMeanAgg(csr, h), 1e-12))
    }
  }

  test("neighborMean matches naive implementation") {
    for (seed <- 0 until 10) {
      val csr = randomCsr(12, 30, seed)
      val h = Mat.rand(12, 5, new Random(seed + 100))
      assert(csr.neighborMean(h, 1).approxEquals(naiveNeighborMean(csr, h), 1e-12))
    }
  }

  test("edge-partitioned aggregation is bitwise equal to sequential") {
    for (seed <- 0 until 5; t <- Seq(2, 4, 8)) {
      val csr = randomCsr(40, 200, seed)
      val h = Mat.rand(40, 7, new Random(seed))
      assert(csr.meanAggregate(h, t).approxEquals(csr.meanAggregate(h, 1), 0.0))
      assert(csr.neighborMean(h, t).approxEquals(csr.neighborMean(h, 1), 0.0))
    }
  }

  test("meanAggregateBackward is the transpose of the forward operator") {
    // <Agg(h), g> == <h, AggBackward(g)> for linear operators
    for (seed <- 0 until 8) {
      val csr = randomCsr(10, 25, seed)
      val h = Mat.rand(10, 4, new Random(seed))
      val g = Mat.rand(10, 4, new Random(seed + 50))
      val lhs = csr.meanAggregate(h, 1).data.zip(g.data).map { case (a, b) => a * b }.sum
      val rhs = h.data.zip(csr.meanAggregateBackward(g, 1).data).map { case (a, b) => a * b }.sum
      assert(math.abs(lhs - rhs) < 1e-9, s"adjoint mismatch $lhs vs $rhs")
    }
  }

  test("neighborMeanBackward is the transpose of neighborMean") {
    for (seed <- 0 until 8) {
      val csr = randomCsr(10, 25, seed)
      val h = Mat.rand(10, 4, new Random(seed))
      val g = Mat.rand(10, 4, new Random(seed + 50))
      val lhs = csr.neighborMean(h, 1).data.zip(g.data).map { case (a, b) => a * b }.sum
      val rhs = h.data.zip(csr.neighborMeanBackward(g, 1).data).map { case (a, b) => a * b }.sum
      assert(math.abs(lhs - rhs) < 1e-9)
    }
  }

  test("activeChunks covers all active positions exactly once, in order") {
    for (seed <- 0 until 5; t <- Seq(1, 2, 3, 8, 100)) {
      val csr = randomCsr(23, 60, seed)
      val chunks = csr.activeChunks(t)
      assert(chunks.head._1 == 0 && chunks.last._2 == 23)
      chunks.sliding(2).foreach {
        case Array((_, e1), (s2, _)) => assert(e1 == s2)
        case _                       =>
      }
      assert(chunks.length <= math.max(t, 1))
    }
  }

  test("activeChunks balances edges approximately") {
    val csr = randomCsr(100, 1000, 3)
    val chunks = csr.activeChunks(4)
    val loads = chunks.map { case (a, b) => (a until b).map(csr.degree).sum }
    assert(loads.sum == csr.nnz)
    assert(loads.max <= csr.nnz) // sanity; strict balance is best-effort
    assert(chunks.length == 4)
  }

  test("toDense materializes weights") {
    val csr = csrOf(2, (0, 1, 2.5))
    val d = CsrTestUtil.toDense(csr)
    assert(d(1, 0) == 2.5 && d(0, 0) == 0.0 && d(0, 1) == 0.0)
  }

  test("empty graph aggregates to self mean") {
    val csr = csrOf(3)
    val h = Mat.fromRows(Seq(Array(3.0), Array(6.0), Array(9.0)))
    assert(csr.meanAggregate(h, 1).approxEquals(h, 0.0))
    assert(csr.neighborMean(h, 1).approxEquals(Mat.zeros(3, 1), 0.0))
  }
}
