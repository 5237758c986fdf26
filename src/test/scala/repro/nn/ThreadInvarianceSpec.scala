package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{Csr, Mat}
import scala.util.Random

/** Every layer's forward and backward give the same bits at every thread
  * count, and the same bits as the one-thread kernels below, kept verbatim
  * from before backward was partitioned.
  */
class ThreadInvarianceSpec extends AnyFunSuite {
  import ThreadInvarianceSpec._

  private def csr(n: Int, edges: Seq[(Int, Int)], active: Array[Int] = null): Csr = {
    val full = Csr.fromEdges(n, edges.length, edges.map(_._1).toArray, edges.map(_._2).toArray,
      Array.tabulate(edges.length)(i => 0.5 + i % 3))
    if (active == null) full else prune(full, active)
  }

  /** The full CSR restricted to the in-edges of `active` rows, as Vectorize
    * builds a pruned layer.
    */
  private def prune(full: Csr, active: Array[Int]): Csr = {
    val keep = active.toSet
    val rows = (0 until full.numRows).map(r => if (keep(r)) full.rowPtr(r) until full.rowPtr(r + 1) else 0 until 0)
    val rowPtr = rows.scanLeft(0)(_ + _.length).toArray
    val es = rows.flatten.toArray
    new Csr(full.numRows, rowPtr, es.map(full.colIdx), es.map(full.weight), active)
  }

  private val randomEdges = {
    val rng = new Random(7)
    Seq.fill(120)((rng.nextInt(30), rng.nextInt(30))).distinct
  }

  private val graphs: Seq[(String, Csr, Csr)] = Seq(
    ("isolated nodes", csr(9, Seq((1, 0), (2, 0), (0, 3), (3, 1))),
      csr(9, Seq((1, 0), (2, 0), (0, 3), (3, 1)), Array(0, 1, 6))),
    ("self-loop + duplicate", csr(5, Seq((2, 2), (1, 3), (1, 3), (0, 3), (3, 4), (4, 0))),
      csr(5, Seq((2, 2), (1, 3), (1, 3), (0, 3), (3, 4), (4, 0)), Array(2, 3))),
    ("no active rows", csr(6, Seq((1, 0), (2, 1), (0, 2))),
      csr(6, Seq((1, 0), (2, 1), (0, 2)), Array.empty[Int])),
    ("threads > active rows", csr(30, randomEdges),
      csr(30, randomEdges, Array(4, 17))),
    ("random", csr(30, randomEdges), csr(30, randomEdges, (0 until 30 by 2).toArray)))

  private def layer(kind: String): GnnLayer = {
    val rng = new Random(kind.hashCode)
    kind match {
      case "gcn"  => LayerInit.gcn(InDim, OutDim, rng)
      case "sage" => LayerInit.sage(InDim, OutDim, rng)
      case "gat"  => LayerInit.gat(InDim, OutDim, rng)
    }
  }

  private def bits(m: Mat): Seq[Long] = m.data.toSeq.map(java.lang.Double.doubleToRawLongBits)

  for (kind <- Seq("gcn", "sage", "gat"); (name, full, pruned) <- graphs; (adj, tag) <- Seq((full, "unpruned"), (pruned, "pruned")))
    test(s"$kind bit-equal at 1/2/3/7 threads: $name, $tag") {
      val rng = new Random(name.hashCode)
      val h = Mat.rand(adj.numRows, InDim, rng)
      val dOut = Mat.rand(adj.numRows, OutDim, rng)
      val ref = Sequential.pass(layer(kind), adj, h, dOut)
      for (t <- Seq(1, 2, 3, 7)) {
        val l = layer(kind)
        val out = l.forward(adj, h, t)
        val dIn = l.backward(adj, dOut)
        assert(bits(out) == bits(ref.out), s"output at $t threads")
        assert(bits(dIn) == bits(ref.dIn), s"input gradient at $t threads")
        l.grads.zip(ref.grads).zipWithIndex.foreach { case ((g, r), i) =>
          assert(bits(g) == bits(r), s"gradient of parameter $i at $t threads")
        }
      }
    }
}

object ThreadInvarianceSpec {
  val InDim = 5
  val OutDim = 4

  case class Pass(out: Mat, dIn: Mat, grads: Seq[Mat])

  /** The one-thread kernels of every layer, as they were before backward ran
    * on the trainer's threads: the reference the partitioned kernels match.
    */
  object Sequential {
    def pass(l: GnnLayer, adj: Csr, h: Mat, dOut: Mat): Pass = l match {
      case g: GcnLayer  => gcn(g, adj, h, dOut)
      case s: SageLayer => sage(s, adj, h, dOut)
      case a: GatLayer  => gat(a, adj, h, dOut)
    }

    private def activeList(adj: Csr): Array[Int] = adj.activeList

    def gcn(l: GcnLayer, adj: Csr, h: Mat, dOut: Mat): Pass = {
      val dw = Mat.zeros(l.inDim, l.outDim); val db = Mat.zeros(1, l.outDim)
      val agg = meanAggregate(adj, h)
      val pre = affineRows(adj, agg, l.w, l.b)
      val out = pre.map(Act.relu)
      val dPre = maskedGrad(adj, dOut, pre, Act.reluGrad)
      accumulateWeightGrads(adj, agg, dPre, dw, db)
      val dAgg = backRows(adj, dPre, l.w)
      Pass(out, meanAggregateBackward(adj, dAgg), Seq(dw, db))
    }

    def sage(l: SageLayer, adj: Csr, h: Mat, dOut: Mat): Pass = {
      val dwSelf = Mat.zeros(l.inDim, l.outDim); val dwNb = Mat.zeros(l.inDim, l.outDim)
      val db = Mat.zeros(1, l.outDim)
      val nm = neighborMean(adj, h)
      val pre = affineRows(adj, h, l.wSelf, l.b)
      affineRowsInto(adj, nm, l.wNb, pre)
      val out = pre.map(Act.relu)
      val dPre = maskedGrad(adj, dOut, pre, Act.reluGrad)
      accumulateWeightGrads(adj, h, dPre, dwSelf, db)
      accumulateWeightGrads(adj, nm, dPre, dwNb, null)
      val dH = backRows(adj, dPre, l.wSelf)
      dH.axpy(1.0, neighborMeanBackward(adj, backRows(adj, dPre, l.wNb)))
      Pass(out, dH, Seq(dwSelf, dwNb, db))
    }

    def gat(l: GatLayer, adj: Csr, h: Mat, dOut: Mat): Pass = {
      val outDim = l.outDim; val w = l.w; val aDst = l.aDst; val aSrc = l.aSrc
      val dw = Mat.zeros(l.inDim, outDim)
      val daDst = Mat.zeros(1, outDim); val daSrc = Mat.zeros(1, outDim)
      // forward
      val n = adj.numRows
      val z = mm(h, w)
      val sDst = new Array[Double](n)
      val sSrc = new Array[Double](n)
      var r = 0
      while (r < n) {
        var c = 0
        var d1 = 0.0; var d2 = 0.0
        while (c < outDim) {
          val zv = z.data(r * outDim + c)
          d1 += zv * aDst.data(c); d2 += zv * aSrc.data(c); c += 1
        }
        sDst(r) = d1; sSrc(r) = d2
        r += 1
      }
      val alpha = new Array[Double](adj.nnz + n)
      val sAgg = Mat.zeros(n, outDim)
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val v = list(p)
        val e0 = adj.rowPtr(v); val e1 = adj.rowPtr(v + 1)
        var mx = Act.leaky(sDst(v) + sSrc(v))
        var e = e0
        while (e < e1) {
          val s = Act.leaky(sDst(v) + sSrc(adj.colIdx(e)))
          if (s > mx) mx = s
          e += 1
        }
        var denom = 0.0
        e = e0
        while (e < e1) {
          val ex = math.exp(Act.leaky(sDst(v) + sSrc(adj.colIdx(e))) - mx)
          alpha(e) = ex; denom += ex
          e += 1
        }
        val exSelf = math.exp(Act.leaky(sDst(v) + sSrc(v)) - mx)
        alpha(adj.nnz + v) = exSelf; denom += exSelf
        val inv = 1.0 / denom
        val oo = v * outDim
        e = e0
        while (e < e1) {
          alpha(e) *= inv
          val uo = adj.colIdx(e) * outDim
          var c = 0
          while (c < outDim) { sAgg.data(oo + c) += alpha(e) * z.data(uo + c); c += 1 }
          e += 1
        }
        alpha(adj.nnz + v) *= inv
        val aS = alpha(adj.nnz + v)
        var c = 0
        while (c < outDim) { sAgg.data(oo + c) += aS * z.data(v * outDim + c); c += 1 }
        p += 1
      }
      val out = sAgg.map(Act.elu)
      // backward
      val dS = maskedGrad(adj, dOut, sAgg, Act.eluGrad)
      val dz = Mat.zeros(n, outDim)
      val dsDst = new Array[Double](n)
      val dsSrc = new Array[Double](n)
      p = 0
      while (p < list.length) {
        val v = list(p)
        val e0 = adj.rowPtr(v); val e1 = adj.rowPtr(v + 1)
        val oo = v * outDim
        var dotSum = 0.0
        var e = e0
        while (e < e1) {
          val uo = adj.colIdx(e) * outDim
          var s = 0.0
          var c = 0
          while (c < outDim) { s += dS.data(oo + c) * z.data(uo + c); c += 1 }
          dotSum += alpha(e) * s
          e += 1
        }
        var sSelf = 0.0
        var c0 = 0
        while (c0 < outDim) { sSelf += dS.data(oo + c0) * z.data(v * outDim + c0); c0 += 1 }
        val aSelf = alpha(adj.nnz + v)
        dotSum += aSelf * sSelf
        e = e0
        while (e < e1) {
          val u = adj.colIdx(e)
          val uo = u * outDim
          var dAl = 0.0
          var c = 0
          while (c < outDim) {
            dAl += dS.data(oo + c) * z.data(uo + c)
            dz.data(uo + c) += alpha(e) * dS.data(oo + c)
            c += 1
          }
          val dPre = alpha(e) * (dAl - dotSum)
          val dE = dPre * Act.leakyGrad(sDst(v) + sSrc(u))
          dsDst(v) += dE; dsSrc(u) += dE
          e += 1
        }
        var c = 0
        while (c < outDim) { dz.data(v * outDim + c) += aSelf * dS.data(oo + c); c += 1 }
        val dPreS = aSelf * (sSelf - dotSum)
        val dES = dPreS * Act.leakyGrad(sDst(v) + sSrc(v))
        dsDst(v) += dES; dsSrc(v) += dES
        p += 1
      }
      var v = 0
      while (v < n) {
        val zo = v * outDim
        var c = 0
        while (c < outDim) {
          dz.data(zo + c) += dsDst(v) * aDst.data(c) + dsSrc(v) * aSrc.data(c)
          daDst.data(c) += dsDst(v) * z.data(zo + c)
          daSrc.data(c) += dsSrc(v) * z.data(zo + c)
          c += 1
        }
        v += 1
      }
      dw.axpy(1.0, mmTN(h, dz))
      Pass(out, mmNT(dz, w), Seq(dw, daDst, daSrc))
    }

    def meanAggregate(adj: Csr, h: Mat): Mat = {
      val out = Mat.zeros(adj.numRows, h.cols)
      val c = h.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val oo = r * c
        var j = 0
        while (j < c) { out.data(oo + j) = h.data(oo + j); j += 1 }
        var e = adj.rowPtr(r)
        while (e < adj.rowPtr(r + 1)) {
          val uo = adj.colIdx(e) * c
          var k = 0
          while (k < c) { out.data(oo + k) += h.data(uo + k); k += 1 }
          e += 1
        }
        val inv = 1.0 / (1 + adj.degree(r))
        j = 0
        while (j < c) { out.data(oo + j) *= inv; j += 1 }
        p += 1
      }
      out
    }

    def neighborMean(adj: Csr, h: Mat): Mat = {
      val out = Mat.zeros(adj.numRows, h.cols)
      val c = h.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val d = adj.degree(r)
        if (d > 0) {
          val oo = r * c
          var e = adj.rowPtr(r)
          while (e < adj.rowPtr(r + 1)) {
            val uo = adj.colIdx(e) * c
            var k = 0
            while (k < c) { out.data(oo + k) += h.data(uo + k); k += 1 }
            e += 1
          }
          val inv = 1.0 / d
          var j = 0
          while (j < c) { out.data(oo + j) *= inv; j += 1 }
        }
        p += 1
      }
      out
    }

    def meanAggregateBackward(adj: Csr, g: Mat): Mat = {
      val out = Mat.zeros(adj.numRows, g.cols)
      val c = g.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val inv = 1.0 / (1 + adj.degree(r))
        val go = r * c
        var j = 0
        while (j < c) { out.data(go + j) += g.data(go + j) * inv; j += 1 }
        var e = adj.rowPtr(r)
        while (e < adj.rowPtr(r + 1)) {
          val uo = adj.colIdx(e) * c
          var k = 0
          while (k < c) { out.data(uo + k) += g.data(go + k) * inv; k += 1 }
          e += 1
        }
        p += 1
      }
      out
    }

    def neighborMeanBackward(adj: Csr, g: Mat): Mat = {
      val out = Mat.zeros(adj.numRows, g.cols)
      val c = g.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val d = adj.degree(r)
        if (d > 0) {
          val inv = 1.0 / d
          val go = r * c
          var e = adj.rowPtr(r)
          while (e < adj.rowPtr(r + 1)) {
            val uo = adj.colIdx(e) * c
            var k = 0
            while (k < c) { out.data(uo + k) += g.data(go + k) * inv; k += 1 }
            e += 1
          }
        }
        p += 1
      }
      out
    }

    def affineRows(adj: Csr, in: Mat, w: Mat, bias: Mat): Mat = {
      val outDim = w.cols
      val out = Mat.zeros(in.rows, outDim)
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val oo = list(p) * outDim
        var c = 0
        while (c < outDim) { out.data(oo + c) = bias.data(c); c += 1 }
        p += 1
      }
      affineRowsInto(adj, in, w, out)
      out
    }

    def affineRowsInto(adj: Csr, in: Mat, w: Mat, out: Mat): Unit = {
      val outDim = w.cols; val inDim = w.rows
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val oo = r * outDim
        var k = 0
        while (k < inDim) {
          val a = in.data(r * inDim + k)
          if (a != 0.0) {
            val wo = k * outDim
            var c = 0
            while (c < outDim) { out.data(oo + c) += a * w.data(wo + c); c += 1 }
          }
          k += 1
        }
        p += 1
      }
    }

    def maskedGrad(adj: Csr, dOut: Mat, pre: Mat, actGrad: Double => Double): Mat = {
      val out = Mat.zeros(dOut.rows, dOut.cols)
      val c = dOut.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val o = list(p) * c
        var j = 0
        while (j < c) { out.data(o + j) = dOut.data(o + j) * actGrad(pre.data(o + j)); j += 1 }
        p += 1
      }
      out
    }

    def accumulateWeightGrads(adj: Csr, in: Mat, dPre: Mat, dW: Mat, db: Mat): Unit = {
      val inDim = dW.rows; val outDim = dW.cols
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val po = r * outDim
        var k = 0
        while (k < inDim) {
          val a = in.data(r * inDim + k)
          if (a != 0.0) {
            val wo = k * outDim
            var c = 0
            while (c < outDim) { dW.data(wo + c) += a * dPre.data(po + c); c += 1 }
          }
          k += 1
        }
        if (db != null) {
          var c = 0
          while (c < outDim) { db.data(c) += dPre.data(po + c); c += 1 }
        }
        p += 1
      }
    }

    def backRows(adj: Csr, dPre: Mat, w: Mat): Mat = {
      val inDim = w.rows; val outDim = w.cols
      val out = Mat.zeros(dPre.rows, inDim)
      val list = activeList(adj)
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val po = r * outDim
        val oo = r * inDim
        var k = 0
        while (k < inDim) {
          val wo = k * outDim
          var s = 0.0
          var c = 0
          while (c < outDim) { s += dPre.data(po + c) * w.data(wo + c); c += 1 }
          out.data(oo + k) = s
          k += 1
        }
        p += 1
      }
      out
    }

    def mm(a: Mat, b: Mat): Mat = {
      val out = Mat.zeros(a.rows, b.cols)
      val m = a.rows; val n = b.cols; val k = a.cols
      var i = 0
      while (i < m) {
        var p = 0
        while (p < k) {
          val x = a.data(i * k + p)
          if (x != 0.0) {
            var j = 0
            val bo = p * n; val oo = i * n
            while (j < n) { out.data(oo + j) += x * b.data(bo + j); j += 1 }
          }
          p += 1
        }
        i += 1
      }
      out
    }

    def mmTN(a: Mat, b: Mat): Mat = {
      val out = Mat.zeros(a.cols, b.cols)
      val m = a.cols; val n = b.cols; val k = a.rows
      var p = 0
      while (p < k) {
        var i = 0
        while (i < m) {
          val x = a.data(p * m + i)
          if (x != 0.0) {
            var j = 0
            val bo = p * n; val oo = i * n
            while (j < n) { out.data(oo + j) += x * b.data(bo + j); j += 1 }
          }
          i += 1
        }
        p += 1
      }
      out
    }

    def mmNT(a: Mat, b: Mat): Mat = {
      val out = Mat.zeros(a.rows, b.rows)
      var i = 0
      while (i < a.rows) {
        var j = 0
        while (j < b.rows) {
          var p = 0
          var s = 0.0
          val ao = i * a.cols; val bo = j * a.cols
          while (p < a.cols) { s += a.data(ao + p) * b.data(bo + p); p += 1 }
          out.data(i * b.rows + j) = s
          j += 1
        }
        i += 1
      }
      out
    }
  }
}
