package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The hierarchical-model-segmentation invariant (§3.4): applying layer
  * slices per node over in-neighbors (what GraphInfer's reducers do) must
  * equal the batch forward pass (what GraphTrainer does).
  */
class LayerSliceSpec extends AnyFunSuite {

  for (kind <- Seq("gcn", "sage", "gat"); layers <- Seq(1, 2, 3)) {
    test(s"applyOne slices of $layers-layer $kind equal batch forward") {
      val spec = ModelSpec(kind, layers, inDim = 6, hidden = 5, embDim = 4,
        numClasses = 2, task = "softmax")
      val g = NnTestUtil.randomGraph(n = 15, e = 45, inDim = 6, seed = kind.hashCode + layers)
      val model = Model.build(spec, 11)
      val batch = model.forwardEmb(Array.fill(layers)(g.csr), g.x, 1)
      val sliced = NnTestUtil.sliceForward(model, g.csr, g.x)
      assert(batch.approxEquals(sliced, 0.0),
        s"max diff ${batch.data.zip(sliced.data).map { case (a, b) => math.abs(a - b) }.max}")
    }
  }

  test("applyOne on a node with no neighbors (gcn: self mean; sage: zero neighbor term)") {
    val rng = new Random(3)
    val gcn = LayerInit.gcn(3, 2, rng)
    val self = Array(1.0, -2.0, 0.5)
    val out = gcn.applyOne(self, Array.empty)
    // mean over {self} is self itself
    val expected = (0 until 2).map { c =>
      math.max(0.0, (0 until 3).map(k => self(k) * gcn.w(k, c)).sum + gcn.b(0, c))
    }
    assert(out.toSeq.zip(expected).forall { case (a, b) => math.abs(a - b) < 1e-12 })
  }

  test("gat applyOne attention weights sum to one (implied by convexity of output)") {
    val rng = new Random(5)
    val gat = LayerInit.gat(3, 3, rng)
    // identical self and neighbors => output is elu(z) regardless of weights
    val v = Array(0.3, -0.1, 0.8)
    val a = gat.applyOne(v, Array(v.clone(), v.clone()))
    val b = gat.applyOne(v, Array.empty)
    assert(a.toSeq.zip(b.toSeq).forall { case (x, y) => math.abs(x - y) < 1e-12 })
  }

  test("predictor slice + activation equals predictScores") {
    // GraphInfer's prediction slice: Dense.forward over every embedding row of
    // a task, then the activation; each row must equal the target-row pass
    val spec = ModelSpec("gat", 2, inDim = 4, hidden = 4, embDim = 3, numClasses = 2, task = "softmax")
    val vb = NnTestUtil.randomBatch(spec, n = 10, e = 30, numTargets = 4, seed = 13)
    val model = Model.build(spec, 2)
    val scores = model.predictScores(vb, 1)
    val emb = model.forwardEmb(vb.adjs, vb.x, 1)
    val all = Model.activateScores(model.predictor.forward(emb), spec.task)
    for ((t, i) <- vb.targets.zipWithIndex) assert(all.row(t).toSeq == scores.row(i).toSeq)
  }

  test("forward with threads > 1 is bitwise identical to sequential (all kinds)") {
    for (kind <- Seq("gcn", "sage", "gat")) {
      val spec = ModelSpec(kind, 2, inDim = 5, hidden = 6, embDim = 4, numClasses = 2, task = "bce")
      val g = NnTestUtil.randomGraph(30, 150, 5, seed = 42)
      val m1 = Model.build(spec, 3)
      val m2 = Model.build(spec, 3)
      val a = m1.forwardEmb(Array.fill(2)(g.csr), g.x, 1)
      val b = m2.forwardEmb(Array.fill(2)(g.csr), g.x, 8)
      assert(a.approxEquals(b, 0.0))
    }
  }
}
