package repro.nn

import repro.linalg.{Csr, Mat}
import scala.util.Random

/** Shared builders for the nn test suites: small random graphs vectorized
  * into batches, and a central-difference gradient checker.
  */
object NnTestUtil {

  case class TinyGraph(csr: Csr, x: Mat)

  def randomGraph(n: Int, e: Int, inDim: Int, seed: Long): TinyGraph = {
    val rng = new Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (set.size < e && guard < e * 50) {
      guard += 1
      val s = rng.nextInt(n); val d = rng.nextInt(n)
      if (s != d) set += ((s, d))
    }
    val (src, dst) = set.toArray.unzip
    val w = Array.fill(src.length)(0.5 + rng.nextDouble())
    TinyGraph(Csr.fromEdges(n, src.length, src, dst, w), Mat.rand(n, inDim, rng))
  }

  def randomBatch(spec: ModelSpec, n: Int, e: Int, numTargets: Int, seed: Long): VecBatch = {
    val rng = new Random(seed + 999)
    val g = randomGraph(n, e, spec.inDim, seed)
    val targets = rng.shuffle((0 until n).toList).take(numTargets).toArray
    val labels = Mat.zeros(numTargets, spec.numClasses)
    for (i <- 0 until numTargets) {
      if (spec.task == "softmax") labels(i, rng.nextInt(spec.numClasses)) = 1.0
      else for (c <- 0 until spec.numClasses) labels(i, c) = if (rng.nextBoolean()) 1.0 else 0.0
    }
    VecBatch(Array.fill(spec.layers)(g.csr), g.x, targets, labels)
  }

  /** Central-difference gradient check over a deterministic sample of
    * parameter entries. Returns the worst (relative error, absolute error).
    */
  def gradCheck(spec: ModelSpec, vb: VecBatch, seed: Long,
                samplesPerParam: Int = 6, eps: Double = 1e-5): (Double, Double) = {
    val model = Model.build(spec, seed)
    val (_, analytic) = model.lossAndGrad(vb, 1)
    val pref = model.getParamsRef
    val rng = new Random(seed + 1)
    var worstRel = 0.0
    var worstAbs = 0.0
    for (p <- pref.indices) {
      val idxs = (0 until samplesPerParam).map(_ => rng.nextInt(pref(p).length)).distinct
      for (i <- idxs) {
        val orig = pref(p)(i)
        pref(p)(i) = orig + eps
        val (lp, _) = model.lossAndGrad(vb, 1)
        pref(p)(i) = orig - eps
        val (lm, _) = model.lossAndGrad(vb, 1)
        pref(p)(i) = orig
        val num = (lp - lm) / (2 * eps)
        val ana = analytic(p)(i)
        val abs = math.abs(num - ana)
        val rel = abs / math.max(1e-6, math.abs(num) + math.abs(ana))
        if (rel > worstRel && abs > 1e-7) { worstRel = rel; worstAbs = abs }
        worstAbs = math.max(worstAbs, abs)
      }
    }
    (worstRel, worstAbs)
  }

  /** Reference "sliced" inference: compute every node's embedding layer by
    * layer via applyOne over its in-neighbors — what GraphInfer does, without
    * Spark. Used to check applyOne == batch forward.
    */
  def sliceForward(model: Model, csr: Csr, x: Mat): Mat = {
    var h = x
    for (k <- 0 until model.spec.layers) {
      val layer = model.gnn(k)
      val next = Mat.zeros(csr.numRows, layer.outDim)
      for (v <- 0 until csr.numRows) {
        val nbrs = (csr.rowPtr(v) until csr.rowPtr(v + 1)).map(e => h.row(csr.colIdx(e))).toArray
        next.setRow(v, layer.applyOne(h.row(v), nbrs))
      }
      h = next
    }
    h
  }
}
