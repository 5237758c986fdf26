package repro.core

import repro.SparkSpec
import repro.graph._
import repro.nn.{Model, ModelSpec}
import repro.tables.Tables

class TrainerSpec extends SparkSpec {

  private lazy val tiny: LocalGraph = GraphGen.uugLite(n = 300, labeledFrac = 0.8)
  private lazy val tinyEx: Map[String, Array[Example]] =
    Tables.splitExamples(spark, tiny, FlatConfig(2, NoSampling, seed = 1))
  private def spec(kind: String) =
    ModelSpec(kind, 2, inDim = 32, hidden = 8, embDim = 8, numClasses = 1, task = "bce")

  test("LocalTrainer loss decreases and the model learns the tiny task") {
    val res = LocalTrainer.train(tinyEx("train"), tinyEx("val"), spec("gcn"),
      TrainOpts(epochs = 25, batchSize = 64, lr = 0.02, threads = 4))
    val first = res.history.head.loss
    val last = res.history.takeRight(3).map(_.loss).min
    assert(last < first * 0.8, s"loss did not decrease: $first -> $last")
    assert(res.bestVal > 0.6, s"val AUC ${res.bestVal}")
  }

  test("pipeline on/off produce identical training trajectories") {
    def run(pipeline: Boolean) = LocalTrainer.train(
      tinyEx("train"), Array.empty, spec("sage"),
      TrainOpts(epochs = 4, batchSize = 64, lr = 0.02, pipeline = pipeline))
    val a = run(true); val b = run(false)
    assert(a.history.map(_.loss) == b.history.map(_.loss))
    a.model.params.zip(b.model.params).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("pruning on/off produce identical training trajectories") {
    def run(prune: Boolean) = LocalTrainer.train(
      tinyEx("train"), Array.empty, spec("gcn"),
      TrainOpts(epochs = 4, batchSize = 64, lr = 0.02, prune = prune))
    val a = run(true); val b = run(false)
    assert(a.history.map(_.loss) == b.history.map(_.loss))
  }

  test("edge partitioning on/off produce identical training trajectories") {
    def run(part: Boolean) = LocalTrainer.train(
      tinyEx("train"), Array.empty, spec("gat"),
      TrainOpts(epochs = 3, batchSize = 64, lr = 0.02, threads = 8, partition = part))
    val a = run(true); val b = run(false)
    assert(a.history.map(_.loss) == b.history.map(_.loss))
  }

  test("LocalTrainer is bit-equal at 1/2/3/7 threads, pipeline and pruning on or off") {
    for (kind <- Seq("gcn", "sage", "gat")) {
      def run(threads: Int, pipeline: Boolean, prune: Boolean) = LocalTrainer.train(
        tinyEx("train"), tinyEx("val"), spec(kind),
        TrainOpts(epochs = 2, batchSize = 64, lr = 0.02, threads = threads, prune = prune, pipeline = pipeline))
      val ref = run(1, pipeline = false, prune = false)
      for (t <- Seq(1, 2, 3, 7); pipeline <- Seq(false, true); prune <- Seq(false, true)) {
        val res = run(t, pipeline, prune)
        val what = s"$kind, $t threads, pipeline $pipeline, prune $prune"
        assert(res.history.map(h => (h.loss, h.valMetric)) == ref.history.map(h => (h.loss, h.valMetric)), what)
        res.model.params.zip(ref.model.params).foreach { case (x, y) => assert(x.toSeq == y.toSeq, what) }
      }
    }
  }

  test("LocalTrainer is deterministic in its seed") {
    def run() = LocalTrainer.train(tinyEx("train"), Array.empty, spec("gcn"),
      TrainOpts(epochs = 3, batchSize = 64, lr = 0.02, seed = 77))
    assert(run().history.map(_.loss) == run().history.map(_.loss))
  }

  test("FullGraphTrainer learns the tiny task too") {
    val res = FullGraphTrainer.train(tiny, spec("gcn"),
      TrainOpts(epochs = 60, batchSize = 0, lr = 0.02, threads = 4))
    assert(res.bestVal > 0.6, s"val AUC ${res.bestVal}")
    val test = FullGraphTrainer.evaluateFull(tiny, res.model, "test", 4)
    assert(test > 0.55, s"test AUC $test")
  }

  test("PsTrainer converges and matches LocalTrainer-quality AUC") {
    import spark.implicits._
    val trainDs = spark.createDataset(
      tinyEx("train").toIndexedSeq.map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf))))
    val res = PsTrainer.train(spark, trainDs, tinyEx("val"), spec("gcn"),
      PsOpts(epochs = 40, batchSize = 64, lr = 0.05, numWorkers = 4, evalEvery = 5))
    val first = res.history.head.loss
    val last = res.history.takeRight(5).map(_.loss).min
    assert(last < first, s"PS loss did not decrease: $first -> $last")
    assert(res.bestVal > 0.6, s"PS val AUC ${res.bestVal}")
  }

  test("PsTrainer gradient equals the full-batch gradient regardless of worker count") {
    import spark.implicits._
    // single epoch, batch covering everything per partition, lr 0 after step:
    // run 1 epoch with 1 vs 4 workers and batchSize >= partition size; the
    // mean-of-batch-gradients must coincide with the full-batch gradient, so
    // the post-step parameters agree across worker counts.
    val trainDs = spark.createDataset(
      tinyEx("train").take(40).toIndexedSeq
        .map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf))))
    def run(workers: Int) = PsTrainer.train(spark, trainDs, Array.empty, spec("gcn"),
      PsOpts(epochs = 1, batchSize = 10, lr = 0.01, numWorkers = workers, seed = 3)).model.params
    val a = run(1); val b = run(4)
    // batches differ in composition, so allow small numerical drift only if
    // sizes divide evenly; 40 examples / 10 per batch divides for both.
    val maxDiff = a.zip(b).flatMap { case (x, y) => x.zip(y).map { case (u, v) => math.abs(u - v) } }.max
    assert(maxDiff < 1e-9, s"PS params diverge across worker counts: $maxDiff")
  }

  private def flat(exs: Seq[Example]): Seq[FlatExample] =
    exs.map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf)))

  test("PsTrainer on an empty training set fails clearly and caches nothing") {
    import spark.implicits._
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val err = intercept[IllegalArgumentException] {
      PsTrainer.train(spark, spark.emptyDataset[FlatExample], Array.empty, spec("gcn"),
        PsOpts(epochs = 1, batchSize = 8, lr = 0.01, numWorkers = 2))
    }
    assert(err.getMessage.contains("PsTrainer") && err.getMessage.contains("empty"), err.getMessage)
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
  }

  test("PsTrainer with more workers than examples matches the 1-worker step") {
    import spark.implicits._
    // 5 examples over 8 workers leaves some partitions empty; one batch
    // covers each partition, so one step must equal the 1-worker step.
    val trainDs = spark.createDataset(flat(tinyEx("train").take(5).toIndexedSeq))
    def run(workers: Int) = PsTrainer.train(spark, trainDs, Array.empty, spec("gcn"),
      PsOpts(epochs = 1, batchSize = 8, lr = 0.01, numWorkers = workers, seed = 3)).model.params
    val a = run(1); val b = run(8)
    val maxDiff = a.zip(b).flatMap { case (x, y) => x.zip(y).map { case (u, v) => math.abs(u - v) } }.max
    assert(maxDiff < 1e-9, s"PS params diverge with empty partitions: $maxDiff")
  }

  test("PsTrainer is deterministic in its seed and leaves no cached RDD behind") {
    import spark.implicits._
    val trainDs = spark.createDataset(flat(tinyEx("train").take(60).toIndexedSeq))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    def run() = PsTrainer.train(spark, trainDs, Array.empty, spec("sage"),
      PsOpts(epochs = 3, batchSize = 16, lr = 0.02, numWorkers = 3, seed = 11))
    val a = run(); val b = run()
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    assert(a.history.map(_.loss) == b.history.map(_.loss))
    a.model.params.zip(b.model.params).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("PsTrainer shards do not depend on how the input is partitioned") {
    import spark.implicits._
    val trainDs = spark.createDataset(flat(tinyEx("train").take(60).toIndexedSeq))
    def run(partitions: Int) = PsTrainer.train(spark, trainDs.repartition(partitions), Array.empty,
      spec("gat"), PsOpts(epochs = 3, batchSize = 8, lr = 0.02, numWorkers = 3, seed = 5))
    val a = run(1); val b = run(64)
    assert(a.history.map(_.loss) == b.history.map(_.loss))
    a.model.params.zip(b.model.params).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("LocalTrainer returns its last parameters when no validation ran") {
    def run(valSet: Array[Example]) = LocalTrainer.train(tinyEx("train"), valSet, spec("sage"),
      TrainOpts(epochs = 2, batchSize = 64, lr = 0.02, evalEvery = 5)).model.params
    val a = run(tinyEx("val")); val b = run(Array.empty)
    a.zip(b).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("PsTrainer returns its last parameters when no validation ran") {
    import spark.implicits._
    val trainDs = spark.createDataset(flat(tinyEx("train").take(60).toIndexedSeq))
    def run(valSet: Array[Example]) = PsTrainer.train(spark, trainDs, valSet, spec("gcn"),
      PsOpts(epochs = 2, batchSize = 16, lr = 0.02, numWorkers = 2, evalEvery = 5)).model.params
    val a = run(tinyEx("val")); val b = run(Array.empty)
    a.zip(b).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("FullGraphTrainer without val nodes or without a validation epoch returns its last parameters") {
    val noVal = tiny.copy(nodes = tiny.nodes.map(n => if (n.split == "val") n.copy(split = "test") else n))
    val opts = TrainOpts(epochs = 3, batchSize = 0, lr = 0.02, threads = 2)
    val a = FullGraphTrainer.train(noVal, spec("gcn"), opts)
    val b = FullGraphTrainer.train(tiny, spec("gcn"), opts.copy(evalEvery = 5))
    assert(a.bestVal.isNaN && b.bestVal.isNaN)
    a.model.params.zip(b.model.params).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
    val initial = Model.build(spec("gcn"), opts.seed).getParams
    assert(a.model.params.zip(initial).exists { case (x, y) => x.toSeq != y.toSeq })
  }

  test("evaluate on a TrainedModel reproduces in-training evaluation") {
    val res = LocalTrainer.train(tinyEx("train"), tinyEx("val"), spec("gcn"),
      TrainOpts(epochs = 5, batchSize = 64, lr = 0.02))
    val direct = LocalTrainer.evaluate(res.model, tinyEx("val"), 64, 2)
    assert(math.abs(direct - res.bestVal) < 1e-9)
  }

  test("ModelIO round-trips a trained model") {
    val res = LocalTrainer.train(tinyEx("train"), Array.empty, spec("gat"),
      TrainOpts(epochs = 2, batchSize = 64, lr = 0.02))
    val path = java.nio.file.Files.createTempFile("agl-model", ".bin").toString
    ModelIO.save(res.model, path)
    val back = ModelIO.load(path)
    assert(back.spec == res.model.spec)
    back.params.zip(res.model.params).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
    val e1 = LocalTrainer.evaluate(res.model, tinyEx("test"), 64, 2)
    val e2 = LocalTrainer.evaluate(back, tinyEx("test"), 64, 2)
    assert(e1 == e2)
  }
}
