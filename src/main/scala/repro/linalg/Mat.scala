package repro.linalg

import scala.util.Random

/** Row-major dense matrix of doubles.
  *
  * This is the tensor substrate for the GNN trainer: the offline image has
  * no deep-learning framework, so every operator AGL's trainer needs
  * (matmul in the three transpose variants, axpy, elementwise maps) is
  * implemented here with plain while-loops. Kept intentionally simple —
  * it is the *shared* baseline for every timed configuration, so relative
  * comparisons between AGL variants stay fair.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"shape ${rows}x$cols vs ${data.length}")

  @inline def apply(r: Int, c: Int): Double = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def copyMat: Mat = new Mat(rows, cols, data.clone())

  /** C = this * b (no transpose), in row chunks over `threads`. */
  def mm(b: Mat, threads: Int = 1): Mat = {
    require(cols == b.rows, s"mm: ${rows}x$cols * ${b.rows}x${b.cols}")
    val out = Mat.zeros(rows, b.cols)
    val n = b.cols; val k = cols
    Par.overChunks(Par.ranges(rows, threads), threads) { case (i0, i1) =>
      var i = i0
      while (i < i1) {
        var p = 0
        while (p < k) {
          val a = data(i * k + p)
          if (a != 0.0) Mat.addScaled(out.data, i * n, b.data, p * n, a, n)
          p += 1
        }
        i += 1
      }
    }
    out
  }

  /** C = this^T * b. Each thread owns a range of output rows and sums over
    * the rows of `this` in ascending order, as one thread would.
    */
  def mmTN(b: Mat, threads: Int = 1): Mat = {
    require(rows == b.rows, s"mmTN: ${rows}x$cols ^T * ${b.rows}x${b.cols}")
    val out = Mat.zeros(cols, b.cols)
    val m = cols; val n = b.cols; val k = rows
    Par.overChunks(Par.ranges(m, threads), threads) { case (i0, i1) =>
      var p = 0
      while (p < k) {
        var i = i0
        while (i < i1) {
          val a = data(p * m + i)
          if (a != 0.0) Mat.addScaled(out.data, i * n, b.data, p * n, a, n)
          i += 1
        }
        p += 1
      }
    }
    out
  }

  /** C = this * b^T, in row chunks over `threads`. */
  def mmNT(b: Mat, threads: Int = 1): Mat = {
    require(cols == b.cols, s"mmNT: ${rows}x$cols * ${b.rows}x${b.cols}^T")
    val out = Mat.zeros(rows, b.rows)
    Par.overChunks(Par.ranges(rows, threads), threads) { case (i0, i1) =>
      var i = i0
      while (i < i1) {
        var j = 0
        while (j < b.rows) {
          var p = 0
          var s = 0.0
          val ao = i * cols; val bo = j * cols
          while (p < cols) { s += data(ao + p) * b.data(bo + p); p += 1 }
          out.data(i * b.rows + j) = s
          j += 1
        }
        i += 1
      }
    }
    out
  }

  def t: Mat = {
    val out = Mat.zeros(cols, rows)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { out.data(j * rows + i) = data(i * cols + j); j += 1 }
      i += 1
    }
    out
  }

  /** this += alpha * b, elementwise. */
  def axpy(alpha: Double, b: Mat): Mat = {
    require(rows == b.rows && cols == b.cols)
    var i = 0
    while (i < data.length) { data(i) += alpha * b.data(i); i += 1 }
    this
  }

  def add(b: Mat): Mat = copyMat.axpy(1.0, b)

  def map(f: Double => Double): Mat = {
    val out = new Array[Double](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def row(r: Int): Array[Double] = {
    val out = new Array[Double](cols)
    System.arraycopy(data, r * cols, out, 0, cols)
    out
  }

  def setRow(r: Int, v: Array[Double]): Unit =
    System.arraycopy(v, 0, data, r * cols, cols)

  /** Gather the given rows into a new matrix. */
  def rowsAt(idx: Array[Int]): Mat = {
    val out = Mat.zeros(idx.length, cols)
    var i = 0
    while (i < idx.length) {
      System.arraycopy(data, idx(i) * cols, out.data, i * cols, cols)
      i += 1
    }
    out
  }

  def approxEquals(b: Mat, tol: Double): Boolean =
    rows == b.rows && cols == b.cols &&
      data.indices.forall(i => math.abs(data(i) - b.data(i)) <= tol)

  override def toString: String = {
    val sb = new StringBuilder(s"Mat(${rows}x$cols)\n")
    val rr = math.min(rows, 6); val cc = math.min(cols, 8)
    for (i <- 0 until rr) {
      sb.append((0 until cc).map(j => f"${apply(i, j)}%.4f").mkString("  "))
      sb.append('\n')
    }
    sb.toString
  }
}

object Mat {
  /** out[oo, oo + n) += s * src[so, so + n): the inner loop of every
    * accumulating kernel.
    */
  @inline def addScaled(out: Array[Double], oo: Int, src: Array[Double], so: Int, s: Double, n: Int): Unit = {
    var j = 0
    while (j < n) { out(oo + j) += s * src(so + j); j += 1 }
  }

  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty)
    val c = rows.head.length
    val m = zeros(rows.length, c)
    rows.zipWithIndex.foreach { case (r, i) => require(r.length == c); m.setRow(i, r) }
    m
  }

  /** Xavier/Glorot uniform init, deterministic in seed. */
  def xavier(rows: Int, cols: Int, rng: Random): Mat = {
    val lim = math.sqrt(6.0 / (rows + cols))
    val d = Array.fill(rows * cols)((rng.nextDouble() * 2 - 1) * lim)
    new Mat(rows, cols, d)
  }

  def rand(rows: Int, cols: Int, rng: Random, scale: Double = 1.0): Mat =
    new Mat(rows, cols, Array.fill(rows * cols)((rng.nextDouble() * 2 - 1) * scale))
}
