package repro.nn

import repro.linalg.{Csr, Mat, Par}
import scala.util.Random

/** A GNN layer Φ^(k): takes the batch adjacency (destination-sorted CSR) and
  * the previous layer's node embeddings, returns next embeddings.
  *
  * Layers honor the adjacency's active-row set (graph pruning): only active
  * rows are aggregated, densely transformed and backpropagated — pruned rows
  * stay zero and cost nothing. The row loops over the active list are the
  * edge-partitioning unit (`threads`).
  *
  * Layers cache forward intermediates, so one instance serves exactly one
  * in-flight batch (the trainers build a model per worker/partition, and
  * GraphInfer one per task).
  * `applyOne` is the *model slice* used by GraphInfer's reducers: `forward`
  * on a one-destination CSR built from a node's own and its in-edge
  * neighbors' embeddings ([[GnnLayer.applyOne]]), so it equals the batch
  * pass by construction. Every layer implements it with that one call; it
  * stays abstract so that wrappers which delegate to a layer implement it.
  */
trait GnnLayer extends Serializable {
  def inDim: Int
  def outDim: Int
  def params: Array[Mat]
  def grads: Array[Mat]
  def forward(adj: Csr, h: Mat, threads: Int): Mat
  def backward(adj: Csr, dOut: Mat): Mat
  def applyOne(self: Array[Double], neighbors: Array[Array[Double]]): Array[Double]
  def zeroGrads(): Unit = grads.foreach(g => java.util.Arrays.fill(g.data, 0.0))
}

object GnnLayer {
  /** `layer.forward` for one node: row 0 of the batch is the node, rows
    * 1..n are its in-neighbors in message order, and only row 0 is active.
    * Returns row 0.
    */
  def applyOne(layer: GnnLayer, self: Array[Double], neighbors: Array[Array[Double]]): Array[Double] = {
    val n = neighbors.length
    val h = Mat.zeros(n + 1, self.length)
    h.setRow(0, self)
    var i = 0
    while (i < n) { h.setRow(i + 1, neighbors(i)); i += 1 }
    val rowPtr = Array.fill(n + 2)(n)
    rowPtr(0) = 0
    val adj = new Csr(n + 1, rowPtr, Array.range(1, n + 1), Array.fill(n)(1.0), Array.range(0, n), Array(0))
    layer.forward(adj, h, 1).row(0)
  }
}

object Act {
  @inline def relu(x: Double): Double = if (x > 0) x else 0.0
  @inline def reluGrad(pre: Double): Double = if (pre > 0) 1.0 else 0.0
  @inline def elu(x: Double): Double = if (x > 0) x else math.exp(x) - 1.0
  @inline def eluGrad(pre: Double): Double = if (pre > 0) 1.0 else math.exp(pre)
  val LeakySlope = 0.2
  @inline def leaky(x: Double): Double = if (x > 0) x else LeakySlope * x
  @inline def leakyGrad(x: Double): Double = if (x > 0) 1.0 else LeakySlope
}

/** Row-wise dense kernels over an active-row list. */
private[nn] object RowOps {
  /** out(r,:) = bias + in(r,:) · W for each active row (parallel over chunks). */
  def affineRows(adj: Csr, in: Mat, w: Mat, bias: Mat, threads: Int): Mat = {
    val outDim = w.cols; val inDim = w.rows
    val out = Mat.zeros(in.rows, outDim)
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(threads), threads) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
        val r = list(p)
        val oo = r * outDim
        if (bias != null) {
          var c = 0
          while (c < outDim) { out.data(oo + c) = bias.data(c); c += 1 }
        }
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
    out
  }

  /** Adds in(r,:) · W to out(r,:) for each active row. */
  def affineRowsInto(adj: Csr, in: Mat, w: Mat, out: Mat, threads: Int): Unit = {
    val outDim = w.cols; val inDim = w.rows
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(threads), threads) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
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
  }

  /** dPre(r,:) = dOut(r,:) ⊙ act'(pre(r,:)) for active rows. */
  def maskedGrad(adj: Csr, dOut: Mat, pre: Mat, actGrad: Double => Double): Mat = {
    val out = Mat.zeros(dOut.rows, dOut.cols)
    val c = dOut.cols
    val list = adj.activeList
    var p = 0
    while (p < list.length) {
      val o = list(p) * c
      var j = 0
      while (j < c) { out.data(o + j) = dOut.data(o + j) * actGrad(pre.data(o + j)); j += 1 }
      p += 1
    }
    out
  }

  /** dW += in(r,:)ᵀ ⊗ dPre(r,:) and db += dPre(r,:) over active rows. */
  def accumulateWeightGrads(adj: Csr, in: Mat, dPre: Mat, dW: Mat, db: Mat): Unit = {
    val inDim = dW.rows; val outDim = dW.cols
    val list = adj.activeList
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

  /** out(r,:) = dPre(r,:) · Wᵀ for active rows. */
  def backRows(adj: Csr, dPre: Mat, w: Mat): Mat = {
    val inDim = w.rows; val outDim = w.cols
    val out = Mat.zeros(dPre.rows, inDim)
    val list = adj.activeList
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
}

/** GCN-style layer: out = ReLU( D^-1 (A+I) H W + b ) (mean aggregation with
  * self-loop; see DESIGN §6 for why mean instead of symmetric norm).
  */
final class GcnLayer(val inDim: Int, val outDim: Int, val w: Mat, val b: Mat) extends GnnLayer {
  val dw: Mat = Mat.zeros(inDim, outDim)
  val db: Mat = Mat.zeros(1, outDim)
  def params: Array[Mat] = Array(w, b)
  def grads: Array[Mat] = Array(dw, db)

  private var aggC: Mat = _
  private var preC: Mat = _

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val agg = adj.meanAggregate(h, threads)
    val pre = RowOps.affineRows(adj, agg, w, b, threads)
    aggC = agg; preC = pre
    pre.map(Act.relu)
  }

  def backward(adj: Csr, dOut: Mat): Mat = {
    val dPre = RowOps.maskedGrad(adj, dOut, preC, Act.reluGrad)
    RowOps.accumulateWeightGrads(adj, aggC, dPre, dw, db)
    val dAgg = RowOps.backRows(adj, dPre, w)
    adj.meanAggregateBackward(dAgg)
  }

  def applyOne(self: Array[Double], neighbors: Array[Array[Double]]): Array[Double] =
    GnnLayer.applyOne(this, self, neighbors)
}

/** GraphSAGE layer with the "add" combiner noted in the paper's Table 3
  * discussion: out = ReLU( H Wself + mean_{N+} H Wnb + b ).
  */
final class SageLayer(val inDim: Int, val outDim: Int, val wSelf: Mat, val wNb: Mat, val b: Mat)
    extends GnnLayer {
  val dwSelf: Mat = Mat.zeros(inDim, outDim)
  val dwNb: Mat = Mat.zeros(inDim, outDim)
  val db: Mat = Mat.zeros(1, outDim)
  def params: Array[Mat] = Array(wSelf, wNb, b)
  def grads: Array[Mat] = Array(dwSelf, dwNb, db)

  private var hC: Mat = _
  private var nmC: Mat = _
  private var preC: Mat = _

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val nm = adj.neighborMean(h, threads)
    val pre = RowOps.affineRows(adj, h, wSelf, b, threads)
    RowOps.affineRowsInto(adj, nm, wNb, pre, threads)
    hC = h; nmC = nm; preC = pre
    pre.map(Act.relu)
  }

  def backward(adj: Csr, dOut: Mat): Mat = {
    val dPre = RowOps.maskedGrad(adj, dOut, preC, Act.reluGrad)
    RowOps.accumulateWeightGrads(adj, hC, dPre, dwSelf, db)
    RowOps.accumulateWeightGrads(adj, nmC, dPre, dwNb, null)
    val dH = RowOps.backRows(adj, dPre, wSelf)
    dH.axpy(1.0, adj.neighborMeanBackward(RowOps.backRows(adj, dPre, wNb)))
    dH
  }

  def applyOne(self: Array[Double], neighbors: Array[Array[Double]]): Array[Double] =
    GnnLayer.applyOne(this, self, neighbors)
}

/** Single-head GAT layer (Veličković et al. 2017):
  *   z = H W,  e_vu = LeakyReLU(z_v·aDst + z_u·aSrc)  over u ∈ N+(v) ∪ {v},
  *   α = softmax_u(e),  out_v = ELU( Σ_u α_vu z_u ).
  *
  * z is computed for every row (inactive rows may still be *sources*);
  * attention and aggregation run only over active destination rows.
  */
final class GatLayer(val inDim: Int, val outDim: Int, val w: Mat, val aDst: Mat, val aSrc: Mat)
    extends GnnLayer {
  val dw: Mat = Mat.zeros(inDim, outDim)
  val daDst: Mat = Mat.zeros(1, outDim)
  val daSrc: Mat = Mat.zeros(1, outDim)
  def params: Array[Mat] = Array(w, aDst, aSrc)
  def grads: Array[Mat] = Array(dw, daDst, daSrc)

  private var hC: Mat = _
  private var zC: Mat = _
  private var sDstC: Array[Double] = _
  private var sSrcC: Array[Double] = _
  private var alphaC: Array[Double] = _ // slots: [0, nnz) edges, [nnz, nnz+rows) self
  private var sAggC: Mat = _ // pre-ELU aggregate

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val n = adj.numRows
    val z = h.mm(w)
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
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(threads), threads) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
        val v = list(p)
        val e0 = adj.rowPtr(v); val e1 = adj.rowPtr(v + 1)
        // raw scores: edges then self
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
    }
    hC = h; zC = z; sDstC = sDst; sSrcC = sSrc; alphaC = alpha; sAggC = sAgg
    sAgg.map(Act.elu)
  }

  def backward(adj: Csr, dOut: Mat): Mat = {
    val n = adj.numRows
    val dS = RowOps.maskedGrad(adj, dOut, sAggC, Act.eluGrad)
    val dz = Mat.zeros(n, outDim)
    val dsDst = new Array[Double](n)
    val dsSrc = new Array[Double](n)
    val list = adj.activeList
    var p = 0
    while (p < list.length) {
      val v = list(p)
      val e0 = adj.rowPtr(v); val e1 = adj.rowPtr(v + 1)
      val oo = v * outDim
      // dAlpha per slot and softmax jacobian
      var dotSum = 0.0
      var e = e0
      while (e < e1) {
        val uo = adj.colIdx(e) * outDim
        var s = 0.0
        var c = 0
        while (c < outDim) { s += dS.data(oo + c) * zC.data(uo + c); c += 1 }
        dotSum += alphaC(e) * s
        e += 1
      }
      var sSelf = 0.0
      var c0 = 0
      while (c0 < outDim) { sSelf += dS.data(oo + c0) * zC.data(v * outDim + c0); c0 += 1 }
      val aSelf = alphaC(adj.nnz + v)
      dotSum += aSelf * sSelf
      e = e0
      while (e < e1) {
        val u = adj.colIdx(e)
        val uo = u * outDim
        var dAl = 0.0
        var c = 0
        while (c < outDim) {
          dAl += dS.data(oo + c) * zC.data(uo + c)
          dz.data(uo + c) += alphaC(e) * dS.data(oo + c)
          c += 1
        }
        val dPre = alphaC(e) * (dAl - dotSum)
        val dE = dPre * Act.leakyGrad(sDstC(v) + sSrcC(u))
        dsDst(v) += dE; dsSrc(u) += dE
        e += 1
      }
      // self slot
      var c = 0
      while (c < outDim) { dz.data(v * outDim + c) += aSelf * dS.data(oo + c); c += 1 }
      val dPreS = aSelf * (sSelf - dotSum)
      val dES = dPreS * Act.leakyGrad(sDstC(v) + sSrcC(v))
      dsDst(v) += dES; dsSrc(v) += dES
      p += 1
    }
    // dz += dsDst ⊗ aDst + dsSrc ⊗ aSrc ; da* += Σ ds* z
    var v = 0
    while (v < n) {
      val zo = v * outDim
      var c = 0
      while (c < outDim) {
        dz.data(zo + c) += dsDst(v) * aDst.data(c) + dsSrc(v) * aSrc.data(c)
        daDst.data(c) += dsDst(v) * zC.data(zo + c)
        daSrc.data(c) += dsSrc(v) * zC.data(zo + c)
        c += 1
      }
      v += 1
    }
    dw.axpy(1.0, hC.mmTN(dz))
    dz.mmNT(w)
  }

  def applyOne(self: Array[Double], neighbors: Array[Array[Double]]): Array[Double] =
    GnnLayer.applyOne(this, self, neighbors)
}

/** Final prediction slice: logits = H W + b over target rows only. */
final class Dense(val inDim: Int, val outDim: Int, val w: Mat, val b: Mat) extends Serializable {
  val dw: Mat = Mat.zeros(inDim, outDim)
  val db: Mat = Mat.zeros(1, outDim)
  def params: Array[Mat] = Array(w, b)
  def grads: Array[Mat] = Array(dw, db)
  def zeroGrads(): Unit = { java.util.Arrays.fill(dw.data, 0.0); java.util.Arrays.fill(db.data, 0.0) }

  private var hC: Mat = _

  def forward(h: Mat): Mat = {
    hC = h
    val out = h.mm(w)
    var r = 0
    while (r < out.rows) {
      var c = 0
      while (c < outDim) { out.data(r * outDim + c) += b.data(c); c += 1 }
      r += 1
    }
    out
  }

  def backward(dOut: Mat): Mat = {
    dw.axpy(1.0, hC.mmTN(dOut))
    var r = 0
    while (r < dOut.rows) {
      var c = 0
      while (c < outDim) { db.data(c) += dOut.data(r * outDim + c); c += 1 }
      r += 1
    }
    dOut.mmNT(w)
  }
}

object LayerInit {
  def gcn(in: Int, out: Int, rng: Random): GcnLayer =
    new GcnLayer(in, out, Mat.xavier(in, out, rng), Mat.zeros(1, out))
  def sage(in: Int, out: Int, rng: Random): SageLayer =
    new SageLayer(in, out, Mat.xavier(in, out, rng), Mat.xavier(in, out, rng), Mat.zeros(1, out))
  def gat(in: Int, out: Int, rng: Random): GatLayer =
    new GatLayer(in, out, Mat.xavier(in, out, rng),
      Mat.rand(1, out, rng, 0.1), Mat.rand(1, out, rng, 0.1))
  def dense(in: Int, out: Int, rng: Random): Dense =
    new Dense(in, out, Mat.xavier(in, out, rng), Mat.zeros(1, out))
}
