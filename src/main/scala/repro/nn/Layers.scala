package repro.nn

import repro.linalg.{Csr, Mat, Par}
import scala.util.Random

/** A GNN layer Φ^(k): takes the batch adjacency (destination-sorted CSR) and
  * the previous layer's node embeddings, returns next embeddings.
  *
  * Layers honor the adjacency's active-row set (graph pruning): only active
  * rows are aggregated, densely transformed, activated and backpropagated —
  * pruned rows stay zero and cost nothing. The row loops over the active list
  * are the edge-partitioning unit (`threads`).
  *
  * Layers cache forward intermediates, so one instance serves exactly one
  * in-flight batch (the trainers build a model per worker/partition, and
  * GraphInfer one per task). `backward` runs over the `threads` of the last
  * `forward`, cached with them; every kernel gives the same bits at every
  * thread count.
  * GraphInfer's layer slice is `forward` itself, called once per partition
  * block. `applyOne` is `forward` for a single node, on a one-destination
  * CSR built from the node's own and its in-edge neighbors' embeddings
  * ([[GnnLayer.applyOne]]); no inference path calls it. It stays in the
  * trait only because perfbench's `CountingModel` counts its calls, and it
  * can go once the benchmark reads GraphInfer's embedding accumulator.
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
    val adj = new Csr(n + 1, rowPtr, Array.range(1, n + 1), Array.fill(n)(1.0), Array(0))
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

/** Row-wise dense kernels over an active-row list, each one parallel section
  * over `threads`.
  */
private[nn] object RowOps {
  /** pre(r,:) = bias + Σ_i ins(i)(r,:) · ws(i) and out(r,:) = act(pre(r,:))
    * for each active row, over active-row chunks. Returns (pre, out); other
    * rows stay zero in both, and act(0) = 0 for every activation here.
    */
  def affineAct(adj: Csr, ins: Array[Mat], ws: Array[Mat], bias: Mat, act: Double => Double,
                threads: Int): (Mat, Mat) = {
    val outDim = bias.cols
    val pre = Mat.zeros(ins(0).rows, outDim)
    val out = Mat.zeros(ins(0).rows, outDim)
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(threads), threads) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
        val r = list(p)
        val oo = r * outDim
        System.arraycopy(bias.data, 0, pre.data, oo, outDim)
        var i = 0
        while (i < ins.length) {
          val in = ins(i); val w = ws(i); val inDim = w.rows
          var k = 0
          while (k < inDim) {
            val a = in.data(r * inDim + k)
            if (a != 0.0) Mat.addScaled(pre.data, oo, w.data, k * outDim, a, outDim)
            k += 1
          }
          i += 1
        }
        var c = 0
        while (c < outDim) { out.data(oo + c) = act(pre.data(oo + c)); c += 1 }
        p += 1
      }
    }
    (pre, out)
  }

  /** dPre(r,:) = dOut(r,:) ⊙ act'(pre(r,:)) and back(i)(r,:) = dPre(r,:) · ws(i)ᵀ
    * for active rows, in one pass over active-row chunks. Returns
    * (dPre, back).
    */
  def maskedBack(adj: Csr, dOut: Mat, pre: Mat, actGrad: Double => Double, ws: Array[Mat],
                 threads: Int): (Mat, Array[Mat]) = {
    val c = dOut.cols
    val dPre = Mat.zeros(dOut.rows, c)
    val back = ws.map(w => Mat.zeros(dOut.rows, w.rows))
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(threads), threads) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
        val r = list(p)
        val o = r * c
        var j = 0
        while (j < c) { dPre.data(o + j) = dOut.data(o + j) * actGrad(pre.data(o + j)); j += 1 }
        var i = 0
        while (i < ws.length) {
          val w = ws(i); val out = back(i); val inDim = w.rows
          val oo = r * inDim
          var k = 0
          while (k < inDim) {
            val wo = k * c
            var s = 0.0
            j = 0
            while (j < c) { s += dPre.data(o + j) * w.data(wo + j); j += 1 }
            out.data(oo + k) = s
            k += 1
          }
          i += 1
        }
        p += 1
      }
    }
    (dPre, back)
  }

  /** dWs(i) += ins(i)(r,:)ᵀ ⊗ dPre(r,:) and db += dPre(r,:) over active rows.
    * Split by rows of the weight gradients: each thread owns a block of
    * input dimensions (the first one also `db`) and walks every active row
    * in ascending order, so each entry sums in the sequential order.
    */
  def accumulateWeightGrads(adj: Csr, ins: Array[Mat], dPre: Mat, dWs: Array[Mat], db: Mat,
                            threads: Int): Unit = {
    val outDim = dPre.cols
    val list = adj.activeList
    val blocks = Par.ranges(dWs(0).rows, threads)
    Par.forTasks(blocks.length, threads) { t =>
      val (k0, k1) = blocks(t)
      var i = 0
      while (i < ins.length) {
        val in = ins(i); val dW = dWs(i); val inDim = dW.rows
        var p = 0
        while (p < list.length) {
          val r = list(p)
          var k = k0
          while (k < k1) {
            val a = in.data(r * inDim + k)
            if (a != 0.0) Mat.addScaled(dW.data, k * outDim, dPre.data, r * outDim, a, outDim)
            k += 1
          }
          p += 1
        }
        i += 1
      }
      if (t == 0) {
        var p = 0
        while (p < list.length) { Mat.addScaled(db.data, 0, dPre.data, list(p) * outDim, 1.0, outDim); p += 1 }
      }
    }
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
  private var threadsC = 1

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val agg = adj.meanAggregate(h, threads)
    val (pre, out) = RowOps.affineAct(adj, Array(agg), Array(w), b, Act.relu, threads)
    aggC = agg; preC = pre; threadsC = threads
    out
  }

  def backward(adj: Csr, dOut: Mat): Mat = {
    val (dPre, Array(dAgg)) = RowOps.maskedBack(adj, dOut, preC, Act.reluGrad, Array(w), threadsC)
    RowOps.accumulateWeightGrads(adj, Array(aggC), dPre, Array(dw), db, threadsC)
    adj.meanAggregateBackward(dAgg, threadsC)
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
  private var threadsC = 1

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val nm = adj.neighborMean(h, threads)
    val (pre, out) = RowOps.affineAct(adj, Array(h, nm), Array(wSelf, wNb), b, Act.relu, threads)
    hC = h; nmC = nm; preC = pre; threadsC = threads
    out
  }

  def backward(adj: Csr, dOut: Mat): Mat = {
    val (dPre, Array(dH, dNb)) =
      RowOps.maskedBack(adj, dOut, preC, Act.reluGrad, Array(wSelf, wNb), threadsC)
    RowOps.accumulateWeightGrads(adj, Array(hC, nmC), dPre, Array(dwSelf, dwNb), db, threadsC)
    dH.axpy(1.0, adj.neighborMeanBackward(dNb, threadsC))
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
  private var threadsC = 1

  def forward(adj: Csr, h: Mat, threads: Int): Mat = {
    val n = adj.numRows
    val z = h.mm(w, threads)
    val sDst = new Array[Double](n)
    val sSrc = new Array[Double](n)
    Par.overChunks(Par.ranges(n, threads), threads) { case (r0, r1) =>
      var r = r0
      while (r < r1) {
        var c = 0
        var d1 = 0.0; var d2 = 0.0
        while (c < outDim) {
          val zv = z.data(r * outDim + c)
          d1 += zv * aDst.data(c); d2 += zv * aSrc.data(c); c += 1
        }
        sDst(r) = d1; sSrc(r) = d2
        r += 1
      }
    }
    val alpha = new Array[Double](adj.nnz + n)
    val sAgg = Mat.zeros(n, outDim)
    val out = Mat.zeros(n, outDim)
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
          Mat.addScaled(sAgg.data, oo, z.data, adj.colIdx(e) * outDim, alpha(e), outDim)
          e += 1
        }
        alpha(adj.nnz + v) *= inv
        Mat.addScaled(sAgg.data, oo, z.data, oo, alpha(adj.nnz + v), outDim)
        var c = 0
        while (c < outDim) { out.data(oo + c) = Act.elu(sAgg.data(oo + c)); c += 1 }
        p += 1
      }
    }
    hC = h; zC = z; sDstC = sDst; sSrcC = sSrc; alphaC = alpha; sAggC = sAgg; threadsC = threads
    out
  }

  /** Three parallel sections: per destination over active-row chunks (the
    * softmax jacobian, each slot's score gradient dE and dsDst), the dz and
    * dsSrc scatter over target-row ranges, then dz's attention term by rows
    * beside daDst and daSrc by columns.
    */
  def backward(adj: Csr, dOut: Mat): Mat = {
    val n = adj.numRows; val nnz = adj.nnz; val t = threadsC
    val dS = Mat.zeros(n, outDim)
    val dE = new Array[Double](nnz + n) // score gradient per slot, laid out like alpha
    val dsDst = new Array[Double](n)
    val list = adj.activeList
    Par.overChunks(adj.activeChunks(t), t) { case (p0, p1) =>
      var p = p0
      while (p < p1) {
        val v = list(p)
        val e0 = adj.rowPtr(v); val e1 = adj.rowPtr(v + 1)
        val oo = v * outDim
        var c = 0
        while (c < outDim) { dS.data(oo + c) = dOut.data(oo + c) * Act.eluGrad(sAggC.data(oo + c)); c += 1 }
        // dAlpha per slot (kept in dE until the softmax jacobian needs it)
        var dotSum = 0.0
        var e = e0
        while (e < e1) {
          val uo = adj.colIdx(e) * outDim
          var s = 0.0
          c = 0
          while (c < outDim) { s += dS.data(oo + c) * zC.data(uo + c); c += 1 }
          dE(e) = s
          dotSum += alphaC(e) * s
          e += 1
        }
        var sSelf = 0.0
        c = 0
        while (c < outDim) { sSelf += dS.data(oo + c) * zC.data(oo + c); c += 1 }
        val aSelf = alphaC(nnz + v)
        dotSum += aSelf * sSelf
        e = e0
        while (e < e1) {
          val dPre = alphaC(e) * (dE(e) - dotSum)
          dE(e) = dPre * Act.leakyGrad(sDstC(v) + sSrcC(adj.colIdx(e)))
          dsDst(v) += dE(e)
          e += 1
        }
        val dPreS = aSelf * (sSelf - dotSum)
        dE(nnz + v) = dPreS * Act.leakyGrad(sDstC(v) + sSrcC(v))
        dsDst(v) += dE(nnz + v)
        p += 1
      }
    }
    // dz(u) += α · dS(v) and dsSrc(u) += dE per slot: edges, then self
    val dz = Mat.zeros(n, outDim)
    val dsSrc = new Array[Double](n)
    Par.overChunks(adj.targetRanges(t), t) { case (lo, hi) =>
      var p = 0
      while (p < list.length) {
        val v = list(p)
        val oo = v * outDim
        var e = adj.rowPtr(v)
        while (e < adj.rowPtr(v + 1)) {
          val u = adj.colIdx(e)
          if (u >= lo && u < hi) {
            Mat.addScaled(dz.data, u * outDim, dS.data, oo, alphaC(e), outDim)
            dsSrc(u) += dE(e)
          }
          e += 1
        }
        if (v >= lo && v < hi) {
          Mat.addScaled(dz.data, oo, dS.data, oo, alphaC(nnz + v), outDim)
          dsSrc(v) += dE(nnz + v)
        }
        p += 1
      }
    }
    // dz += dsDst ⊗ aDst + dsSrc ⊗ aSrc by rows; da* += Σ_v ds*(v) z(v) by columns
    val rows = Par.ranges(n, t); val cols = Par.ranges(outDim, t)
    Par.forTasks(math.max(rows.length, cols.length), t) { i =>
      if (i < rows.length) {
        var v = rows(i)._1
        while (v < rows(i)._2) {
          val zo = v * outDim
          var c = 0
          while (c < outDim) { dz.data(zo + c) += dsDst(v) * aDst.data(c) + dsSrc(v) * aSrc.data(c); c += 1 }
          v += 1
        }
      }
      if (i < cols.length) {
        var v = 0
        while (v < n) {
          val zo = v * outDim
          var c = cols(i)._1
          while (c < cols(i)._2) {
            daDst.data(c) += dsDst(v) * zC.data(zo + c)
            daSrc.data(c) += dsSrc(v) * zC.data(zo + c)
            c += 1
          }
          v += 1
        }
      }
    }
    dw.axpy(1.0, hC.mmTN(dz, t))
    dz.mmNT(w, t)
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
  private var threadsC = 1

  /** `threads` splits the products by rows; `backward` reuses them. */
  def forward(h: Mat, threads: Int = 1): Mat = {
    hC = h; threadsC = threads
    val out = h.mm(w, threads)
    var r = 0
    while (r < out.rows) {
      var c = 0
      while (c < outDim) { out.data(r * outDim + c) += b.data(c); c += 1 }
      r += 1
    }
    out
  }

  def backward(dOut: Mat): Mat = {
    dw.axpy(1.0, hC.mmTN(dOut, threadsC))
    var r = 0
    while (r < dOut.rows) {
      var c = 0
      while (c < outDim) { db.data(c) += dOut.data(r * outDim + c); c += 1 }
      r += 1
    }
    dOut.mmNT(w, threadsC)
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
