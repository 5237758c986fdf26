package repro.nn

import repro.linalg.{Csr, Mat}
import scala.util.Random

/** Specification of a K-layer GNN + prediction head.
  *
  * @param kind  "gcn" | "sage" | "gat"
  * @param layers K, number of GNN layers (= hops consumed)
  * @param inDim  raw node feature dimension
  * @param hidden hidden embedding dimension
  * @param embDim final (K-th layer) embedding dimension
  * @param numClasses output dimension of the prediction slice
  * @param task  "softmax" (multiclass CE) | "bce" (multilabel / binary)
  */
case class ModelSpec(
    kind: String,
    layers: Int,
    inDim: Int,
    hidden: Int,
    embDim: Int,
    numClasses: Int,
    task: String
) {
  require(Set("gcn", "sage", "gat")(kind), s"unknown kind $kind")
  require(Set("softmax", "bce")(task), s"unknown task $task")
  require(layers >= 1)
  /** (inDim, outDim) of GNN layer k. */
  def layerDims(k: Int): (Int, Int) = {
    val in = if (k == 0) inDim else hidden
    val out = if (k == layers - 1) embDim else hidden
    (in, out)
  }
}

/** A vectorized batch: per-layer adjacency (pruned or full), node features
  * X_B, target row indices, and the label matrix aligned with targets.
  * Produced by `repro.core.Vectorize`. No layer reads edge features, so E_B
  * is not materialized.
  */
case class VecBatch(
    adjs: Array[Csr],
    x: Mat,
    targets: Array[Int],
    labels: Mat
)

object Loss {
  /** Mean softmax cross-entropy; returns (loss, dLogits). */
  def softmaxCE(logits: Mat, labels: Mat): (Double, Mat) = {
    val n = logits.rows; val c = logits.cols
    val d = Mat.zeros(n, c)
    var loss = 0.0
    var r = 0
    while (r < n) {
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < c) { val v = logits.data(r * c + j); if (v > mx) mx = v; j += 1 }
      var denom = 0.0
      j = 0
      while (j < c) { denom += math.exp(logits.data(r * c + j) - mx); j += 1 }
      val logZ = mx + math.log(denom)
      j = 0
      while (j < c) {
        val p = math.exp(logits.data(r * c + j) - logZ)
        val y = labels.data(r * c + j)
        d.data(r * c + j) = (p - y) / n
        if (y > 0) loss -= y * (logits.data(r * c + j) - logZ)
        j += 1
      }
      r += 1
    }
    (loss / n, d)
  }

  /** Mean (over rows × cols) sigmoid binary cross-entropy with logits. */
  def bceLogits(logits: Mat, labels: Mat): (Double, Mat) = {
    val n = logits.data.length
    val d = Mat.zeros(logits.rows, logits.cols)
    var loss = 0.0
    var i = 0
    while (i < n) {
      val x = logits.data(i); val y = labels.data(i)
      loss += math.max(x, 0) - x * y + math.log1p(math.exp(-math.abs(x)))
      val s = 1.0 / (1.0 + math.exp(-x))
      d.data(i) = (s - y) / n
      i += 1
    }
    (loss / n, d)
  }
}

/** K GNN layers + Dense prediction head, with the plumbing the trainers and
  * GraphInfer need: flat parameter get/set (for the parameter server),
  * gradient extraction, and slice access for hierarchical model segmentation.
  */
final class Model(val spec: ModelSpec, val gnn: Array[GnnLayer], val predictor: Dense)
    extends Serializable {

  private def allParamMats: Array[Mat] = gnn.flatMap(_.params) ++ predictor.params
  private def allGradMats: Array[Mat] = gnn.flatMap(_.grads) ++ predictor.grads

  def paramShapes: Array[Int] = allParamMats.map(_.data.length)
  def getParams: Array[Array[Double]] = allParamMats.map(_.data.clone())
  /** Live references to the parameter buffers — what the optimizer mutates. */
  def getParamsRef: Array[Array[Double]] = allParamMats.map(_.data)
  def setParams(ps: Array[Array[Double]]): Unit = {
    val mats = allParamMats
    require(ps.length == mats.length)
    mats.zip(ps).foreach { case (m, p) =>
      require(m.data.length == p.length); System.arraycopy(p, 0, m.data, 0, p.length)
    }
  }
  def getGrads: Array[Array[Double]] = allGradMats.map(_.data.clone())
  def zeroGrads(): Unit = { gnn.foreach(_.zeroGrads()); predictor.zeroGrads() }

  /** Forward through the K GNN layers; returns all-node final embeddings. */
  def forwardEmb(adjs: Array[Csr], x: Mat, threads: Int): Mat = {
    require(adjs.length == spec.layers)
    var h = x
    var k = 0
    while (k < spec.layers) { h = gnn(k).forward(adjs(k), h, threads); k += 1 }
    h
  }

  /** Target-row logits for a vectorized batch. */
  def predictLogits(vb: VecBatch, threads: Int): Mat = {
    val emb = forwardEmb(vb.adjs, vb.x, threads)
    predictor.forward(emb.rowsAt(vb.targets), threads)
  }

  /** Loss + gradients (accumulated into fresh grad buffers) for a batch.
    * Every layer's backward runs over the `threads` of its forward.
    */
  def lossAndGrad(vb: VecBatch, threads: Int): (Double, Array[Array[Double]]) = {
    zeroGrads()
    val emb = forwardEmb(vb.adjs, vb.x, threads)
    val logits = predictor.forward(emb.rowsAt(vb.targets), threads)
    val (loss, dLogits) =
      if (spec.task == "softmax") Loss.softmaxCE(logits, vb.labels)
      else Loss.bceLogits(logits, vb.labels)
    val dEmbT = predictor.backward(dLogits)
    // scatter target-row grads back to the full node-embedding matrix
    var dH = Mat.zeros(vb.x.rows, spec.embDim)
    var i = 0
    while (i < vb.targets.length) {
      val t = vb.targets(i)
      var c = 0
      while (c < spec.embDim) {
        dH.data(t * spec.embDim + c) += dEmbT.data(i * spec.embDim + c); c += 1
      }
      i += 1
    }
    var k = spec.layers - 1
    while (k >= 0) { dH = gnn(k).backward(vb.adjs(k), dH); k -= 1 }
    (loss, getGrads)
  }

  /** Task-level scores (softmax probs / sigmoids) for target rows. */
  def predictScores(vb: VecBatch, threads: Int): Mat = {
    val logits = predictLogits(vb, threads)
    Model.activateScores(logits, spec.task)
  }
}

object Model {
  def build(spec: ModelSpec, seed: Long): Model = {
    val rng = new Random(seed)
    val layers = Array.tabulate(spec.layers) { k =>
      val (in, out) = spec.layerDims(k)
      spec.kind match {
        case "gcn"  => LayerInit.gcn(in, out, rng): GnnLayer
        case "sage" => LayerInit.sage(in, out, rng): GnnLayer
        case "gat"  => LayerInit.gat(in, out, rng): GnnLayer
      }
    }
    new Model(spec, layers, LayerInit.dense(spec.embDim, spec.numClasses, rng))
  }

  def activateScores(logits: Mat, task: String): Mat =
    if (task == "softmax") {
      val out = Mat.zeros(logits.rows, logits.cols)
      var r = 0
      while (r < logits.rows) {
        val c = logits.cols
        var mx = Double.NegativeInfinity
        var j = 0
        while (j < c) { val v = logits.data(r * c + j); if (v > mx) mx = v; j += 1 }
        var denom = 0.0
        j = 0
        while (j < c) {
          val e = math.exp(logits.data(r * c + j) - mx); out.data(r * c + j) = e; denom += e; j += 1
        }
        j = 0
        while (j < c) { out.data(r * c + j) /= denom; j += 1 }
        r += 1
      }
      out
    } else logits.map(x => 1.0 / (1.0 + math.exp(-x)))
}

/** An immutable trained model (spec + flat parameters): what the parameter
  * server hands to GraphInfer, and what `ModelIO` (de)serializes — the
  * "well trained GNN model" artifact split into slices at inference time.
  */
case class TrainedModel(spec: ModelSpec, params: Array[Array[Double]]) {
  def materialize(seed: Long = 0L): Model = {
    val m = Model.build(spec, seed)
    m.setParams(params)
    m
  }
}

/** Adam optimizer over the flat parameter arrays (driver-side PS state). */
final class Adam(shapes: Array[Int], lr: Double,
                 beta1: Double = 0.9, beta2: Double = 0.999, eps: Double = 1e-8)
    extends Serializable {
  private val m = shapes.map(new Array[Double](_))
  private val v = shapes.map(new Array[Double](_))
  private var t = 0

  def step(params: Array[Array[Double]], grads: Array[Array[Double]]): Unit = {
    t += 1
    val bc1 = 1 - math.pow(beta1, t)
    val bc2 = 1 - math.pow(beta2, t)
    var p = 0
    while (p < params.length) {
      val pa = params(p); val ga = grads(p); val ma = m(p); val va = v(p)
      var i = 0
      while (i < pa.length) {
        ma(i) = beta1 * ma(i) + (1 - beta1) * ga(i)
        va(i) = beta2 * va(i) + (1 - beta2) * ga(i) * ga(i)
        pa(i) -= lr * (ma(i) / bc1) / (math.sqrt(va(i) / bc2) + eps)
        i += 1
      }
      p += 1
    }
  }
}
