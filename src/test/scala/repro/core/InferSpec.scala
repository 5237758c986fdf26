package repro.core

import org.apache.spark.{HashPartitioner, SparkException}
import org.apache.spark.sql.Dataset
import repro.SparkSpec
import repro.graph._
import repro.nn.{Model, ModelSpec, TrainedModel}

/** The load-bearing system test: GraphInfer's sliced MapReduce inference must
  * produce exactly what training-side forward passes produce — against the
  * full in-memory graph when sampling is off, and against the
  * GraphFlat → Vectorize → Model path ("Original" inference) always,
  * including with sampling and re-indexing enabled.
  */
class InferSpec extends SparkSpec {

  private def randomTm(kind: String, layers: Int, seed: Long): TrainedModel = {
    val spec = ModelSpec(kind, layers, inDim = 32, hidden = 6, embDim = 4, numClasses = 1, task = "bce")
    TrainedModel(spec, Model.build(spec, seed).getParams)
  }

  private lazy val g = GraphGen.uugLite(n = 150)

  for (kind <- Seq("gcn", "sage", "gat"); layers <- Seq(1, 2)) {
    test(s"GraphInfer embeddings equal full-graph forward ($kind, $layers-layer, no sampling)") {
      val tm = randomTm(kind, layers, seed = kind.hashCode + layers)
      val cfg = FlatConfig(layers, NoSampling, seed = 3)
      val emb = GraphInfer.inferEmbeddings(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
        .collect().map(e => e.id -> e.vec).toMap
      val vb = FullGraphTrainer.vectorizeFull(g, layers, "train")
      val model = tm.materialize()
      val full = model.forwardEmb(vb.adjs, vb.x, 1)
      g.nodes.zipWithIndex.foreach { case (nd, idx) =>
        val a = emb(nd.id)
        val b = full.row(idx)
        val diff = a.zip(b).map { case (x, y) => math.abs(x - y) }.max
        assert(diff < 1e-8, s"node ${nd.id} embedding diff $diff")
      }
    }
  }

  for (kind <- Seq("gcn", "sage", "gat")) {
    test(s"GraphInfer scores equal Original (GraphFlat+model) inference with sampling on ($kind)") {
      val tm = randomTm(kind, 2, seed = 100 + kind.hashCode)
      val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
      val gi = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
        .collect().toMap
      val orig = OriginalInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
        .collect().toMap
      assert(gi.keySet == orig.keySet)
      assert(gi.size == g.nodes.length)
      val worst = gi.keys.map { id =>
        gi(id).zip(orig(id)).map { case (a, b) => math.abs(a - b) }.max
      }.max
      assert(worst < 1e-8, s"worst score diff $worst")
    }
  }

  test("GraphInfer scores are valid probabilities") {
    val tm = randomTm("gcn", 2, 9)
    val cfg = FlatConfig(2, NoSampling, seed = 1)
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg).collect()
    scores.foreach { case (_, s) => s.foreach(v => assert(v >= 0.0 && v <= 1.0)) }
  }

  test("softmax-task GraphInfer scores sum to one per node") {
    val spec = ModelSpec("sage", 2, inDim = 32, hidden = 5, embDim = 4, numClasses = 3, task = "softmax")
    val tm = TrainedModel(spec, Model.build(spec, 4).getParams)
    val cfg = FlatConfig(2, NoSampling, seed = 1)
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg).collect()
    scores.foreach { case (_, s) => assert(math.abs(s.sum - 1.0) < 1e-9) }
  }

  test("GraphInfer rejects a round count different from the model depth") {
    val tm = randomTm("gcn", 2, 1)
    intercept[IllegalArgumentException] {
      GraphInfer.inferEmbeddings(spark, g.nodeDs(spark), g.edgeDs(spark), tm, FlatConfig(3))
    }
  }

  test("a trained model scores identically through training-eval and GraphInfer") {
    val cfg = FlatConfig(2, UniformSampling(8), reindexThreshold = 30, numSalts = 4, seed = 5)
    val ex = repro.tables.Tables.splitExamples(spark, g, cfg)
    val spec = ModelSpec("gat", 2, 32, 8, 4, 1, "bce")
    val res = LocalTrainer.train(ex("train"), Array.empty, spec,
      TrainOpts(epochs = 3, batchSize = 32, lr = 0.02))
    val tm = res.model
    val gi = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
      .collect().toMap
    // per-example training-style forward over each test GraphFeature
    val model = tm.materialize()
    ex("test").foreach { e =>
      val vb = Vectorize(Seq(e), 2, prune = true)
      val s = model.predictScores(vb, 1)(0, 0)
      assert(math.abs(s - gi(e.target)(0)) < 1e-8,
        s"target ${e.target}: trainer-side $s vs GraphInfer ${gi(e.target)(0)}")
    }
  }

  test("GraphInfer scores are bit-equal at 1, 7 and 64 partitions, coalescing on/off") {
    val tm = randomTm("gat", 2, 21)
    val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
    // GraphFlat's sampler shuffles with the same partition count; at 64 some blocks are empty
    def run(partitions: Int, coalesce: Boolean): Map[Long, Seq[Double]] = withConf(
        "spark.sql.shuffle.partitions" -> partitions.toString,
        "spark.sql.adaptive.coalescePartitions.enabled" -> coalesce.toString) {
      val ds = GraphInfer.scoresAt(partitions, spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
      try ds.collect().map { case (id, s) => id -> s.toSeq }.toMap finally ds.unpersist()
    }
    val one = run(1, coalesce = false)
    assert(one.size == g.nodes.length)
    for (partitions <- Seq(1, 7, 64); coalesce <- Seq(false, true))
      assert(run(partitions, coalesce) == one, s"$partitions partitions, coalescing $coalesce")
    assert(run(64, coalesce = false) == one)
  }

  test("GraphInfer counts one embedding per node and layer") {
    val tm = randomTm("sage", 2, 3)
    val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
    val scoreAcc = spark.sparkContext.longAccumulator
    GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg, Some(scoreAcc)).unpersist()
    val embAcc = spark.sparkContext.longAccumulator
    GraphInfer.inferEmbeddings(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg, Some(embAcc)).unpersist()
    assert(scoreAcc.value == 2L * g.nodes.length)
    assert(embAcc.value == 2L * g.nodes.length)
  }

  /** Runs `f` with the given SQL settings, then restores the previous ones. */
  private def withConf[T](kvs: (String, String)*)(f: => T): T = {
    val saved = kvs.map { case (k, _) => k -> spark.conf.getOption(k) }
    kvs.foreach { case (k, v) => spark.conf.set(k, v) }
    try f
    finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** GraphInfer's scores must equal OriginalInfer's on every node; `partitions`
    * pins GraphInfer's block partition count.
    */
  private def assertInferEqualsOriginal(g: LocalGraph, edges: Dataset[GEdge], tm: TrainedModel,
                                        cfg: FlatConfig, partitions: Option[Int] = None): Unit = {
    val nodes = g.nodeDs(spark)
    val gi = partitions
      .fold(GraphInfer.inferScores(spark, nodes, edges, tm, cfg))(GraphInfer.scoresAt(_, spark, nodes, edges, tm, cfg))
      .collect().toMap
    val orig = OriginalInfer.inferScores(spark, nodes, edges, tm, cfg).collect().toMap
    assert(gi.keySet == g.nodes.map(_.id).toSet && orig.keySet == gi.keySet)
    gi.keys.foreach { id =>
      val worst = gi(id).zip(orig(id)).map { case (a, b) => math.abs(a - b) }.max
      assert(worst < 1e-8, s"node $id: score diff $worst")
    }
  }

  private def toyTm(layers: Int): TrainedModel = {
    val spec = ModelSpec("sage", layers, inDim = 1, hidden = 3, embDim = 2, numClasses = 1, task = "bce")
    TrainedModel(spec, Model.build(spec, 8).getParams)
  }

  test("GraphInfer equals Original on isolated nodes") {
    val g = CoreTestUtil.toyGraph(5, Seq((1L, 2L), (2L, 3L)))
    assertInferEqualsOriginal(g, g.edgeDs(spark), toyTm(2), FlatConfig(2, UniformSampling(1), seed = 2))
  }

  test("GraphInfer equals Original on an empty edge Dataset") {
    import spark.implicits._
    val g = CoreTestUtil.toyGraph(3, Seq.empty[(Long, Long)])
    assertInferEqualsOriginal(g, spark.emptyDataset[GEdge], toyTm(2),
      FlatConfig(2, UniformSampling(2), reindexThreshold = 1, numSalts = 4, seed = 2))
  }

  test("GraphInfer equals Original when k exceeds the diameter with sampling on") {
    val g = CoreTestUtil.toyGraph(8, (1L to 6L).map(i => (i, 7L)) :+ ((7L, 8L)))
    assertInferEqualsOriginal(g, g.edgeDs(spark), toyTm(4),
      FlatConfig(4, UniformSampling(2), reindexThreshold = 3, numSalts = 2, seed = 6))
  }

  test("GraphInfer equals Original with more partitions than nodes") {
    val g = CoreTestUtil.toyGraph(5, Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 1L)))
    assertInferEqualsOriginal(g, g.edgeDs(spark), toyTm(2), FlatConfig(2, UniformSampling(2), seed = 2), Some(16))
  }

  test("GraphInfer equals Original when an edge's source is not a node") {
    val g = CoreTestUtil.toyGraph(4, Seq((1L, 2L), (9L, 2L), (3L, 2L), (2L, 4L), (9L, 4L)))
    assertInferEqualsOriginal(g, g.edgeDs(spark), toyTm(2), FlatConfig(2, UniformSampling(2), seed = 4), Some(3))
  }

  test("GraphInfer equals Original on a hub whose in-edges come from every partition") {
    val hubSources = 2L to 12L
    assert(hubSources.map(new HashPartitioner(4).getPartition).toSet == (0 until 4).toSet)
    val g = CoreTestUtil.toyGraph(12, hubSources.map(i => (i, 1L)) ++ Seq((1L, 2L), (3L, 2L)))
    assertInferEqualsOriginal(g, g.edgeDs(spark), toyTm(2),
      FlatConfig(2, UniformSampling(8), reindexThreshold = 5, numSalts = 4, seed = 3), Some(4))
  }

  test("GraphInfer fails when an edge's destination is not a node") {
    val g = CoreTestUtil.toyGraph(3, Seq((1L, 2L), (2L, 99L)))
    val e = intercept[SparkException] {
      GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), toyTm(1), FlatConfig(1, seed = 1))
    }
    assert(e.getMessage.contains("node 99 lost its self message"))
  }

  test("GraphInfer.inferScores leaves only its result cached") {
    val tm = randomTm("gat", 2, 5)
    val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
    assert((sc.getPersistentRDDs.keySet -- before).size == 1)
    scores.unpersist(blocking = true)
    assert(sc.getPersistentRDDs.keySet == before)
  }
}
