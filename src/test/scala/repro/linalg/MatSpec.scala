package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MatSpec extends AnyFunSuite {

  private def naiveMm(a: Mat, b: Mat): Mat = {
    val out = Mat.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; j <- 0 until b.cols) {
      var s = 0.0
      for (k <- 0 until a.cols) s += a(i, k) * b(k, j)
      out(i, j) = s
    }
    out
  }

  private def randMat(r: Int, c: Int, seed: Long): Mat = Mat.rand(r, c, new Random(seed))

  /** property-style: run over a sweep of random shapes/seeds */
  private def forShapes(f: (Int, Int, Int, Long) => Unit): Unit = {
    val rng = new Random(12345)
    for (t <- 0 until 40) {
      f(1 + rng.nextInt(8), 1 + rng.nextInt(8), 1 + rng.nextInt(8), t.toLong)
    }
  }

  test("mm matches naive multiplication") {
    forShapes { (m, k, n, seed) =>
      val a = randMat(m, k, seed); val b = randMat(k, n, seed + 1)
      assert(a.mm(b).approxEquals(naiveMm(a, b), 1e-12))
    }
  }

  test("mmTN equals transpose-then-mm") {
    forShapes { (m, k, n, seed) =>
      val a = randMat(k, m, seed); val b = randMat(k, n, seed + 1)
      assert(a.mmTN(b).approxEquals(a.t.mm(b), 1e-12))
    }
  }

  test("mmNT equals mm-with-transpose") {
    forShapes { (m, k, n, seed) =>
      val a = randMat(m, k, seed); val b = randMat(n, k, seed + 1)
      assert(a.mmNT(b).approxEquals(a.mm(b.t), 1e-12))
    }
  }

  test("matmul associativity (A B) C == A (B C)") {
    forShapes { (m, k, n, seed) =>
      val a = randMat(m, k, seed); val b = randMat(k, n, seed + 1); val c = randMat(n, 3, seed + 2)
      assert(a.mm(b).mm(c).approxEquals(a.mm(b.mm(c)), 1e-9))
    }
  }

  test("mm distributes over addition") {
    forShapes { (m, k, n, seed) =>
      val a = randMat(m, k, seed); val b = randMat(k, n, seed + 1); val c = randMat(k, n, seed + 2)
      assert(a.mm(b.add(c)).approxEquals(a.mm(b).add(a.mm(c)), 1e-9))
    }
  }

  test("transpose is an involution") {
    forShapes { (m, n, _, seed) =>
      val a = randMat(m, n, seed)
      assert(a.t.t.approxEquals(a, 0.0))
    }
  }

  test("axpy adds alpha*b elementwise") {
    val a = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    val b = Mat.fromRows(Seq(Array(10.0, 20.0), Array(30.0, 40.0)))
    a.axpy(0.5, b)
    assert(a(0, 0) == 6.0 && a(1, 1) == 24.0)
  }

  test("rowsAt gathers rows") {
    val a = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0), Array(5.0, 6.0)))
    val g = a.rowsAt(Array(2, 0))
    assert(g.rows == 2 && g(0, 0) == 5.0 && g(1, 1) == 2.0)
  }

  test("row/setRow round trip") {
    val a = Mat.zeros(3, 4)
    a.setRow(1, Array(1.0, 2.0, 3.0, 4.0))
    assert(a.row(1).toSeq == Seq(1.0, 2.0, 3.0, 4.0))
    assert(a.row(0).toSeq == Seq(0.0, 0.0, 0.0, 0.0))
  }

  test("map applies elementwise") {
    val a = Mat.fromRows(Seq(Array(-1.0, 2.0)))
    val r = a.map(x => if (x > 0) x else 0.0)
    assert(r(0, 0) == 0.0 && r(0, 1) == 2.0)
  }

  test("xavier init is deterministic in seed and bounded") {
    val a = Mat.xavier(20, 30, new Random(5))
    val b = Mat.xavier(20, 30, new Random(5))
    assert(a.approxEquals(b, 0.0))
    val lim = math.sqrt(6.0 / 50)
    assert(a.data.forall(v => math.abs(v) <= lim))
  }

  test("zeros has all-zero data") {
    assert(Mat.zeros(4, 5).data.forall(_ == 0.0))
  }

  test("fromRows rejects ragged input") {
    intercept[IllegalArgumentException] {
      Mat.fromRows(Seq(Array(1.0), Array(1.0, 2.0)))
    }
  }

  test("shape mismatch is rejected") {
    intercept[IllegalArgumentException](randMat(2, 3, 0).mm(randMat(2, 3, 1)))
    intercept[IllegalArgumentException](randMat(2, 3, 0).axpy(1.0, randMat(3, 2, 1)))
  }
}
