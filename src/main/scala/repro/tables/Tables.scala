package repro.tables

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.graph._
import repro.nn.ModelSpec

/** Reproduction drivers for the paper's evaluation tables. Each `tableN`
  * returns structured rows (asserted on by the bench suites) plus a
  * formatter; `jobs/` wraps them as spark-submit mains. Parameters are scoped
  * by `quick` (unit-test scale, SF≈0.01-ish) vs full (bench scale).
  */
object Tables {

  // ---------------------------------------------------------------- datasets

  def cora(): LocalGraph = GraphGen.coraLite()

  def ppi(quick: Boolean): LocalGraph =
    if (quick) GraphGen.ppiLite(nodesPerGraph = 40, avgDegree = 6)
    else GraphGen.ppiLite(nodesPerGraph = 150, avgDegree = 26)

  def uug(quick: Boolean): LocalGraph =
    if (quick) GraphGen.uugLite(n = 1500) else GraphGen.uugLite(n = 5000)

  def uugFlatConfig(k: Int): FlatConfig =
    FlatConfig(k, UniformSampling(10), seed = 5)

  def coraSpec(kind: String, layers: Int = 2): ModelSpec =
    ModelSpec(kind, layers, inDim = 64, hidden = 16, embDim = 16, numClasses = 7, task = "softmax")
  def ppiSpec(kind: String, layers: Int = 2): ModelSpec =
    ModelSpec(kind, layers, inDim = 50, hidden = 64, embDim = 64, numClasses = 16, task = "bce")
  def uugSpec(kind: String, layers: Int = 2): ModelSpec =
    ModelSpec(kind, layers, inDim = 32, hidden = 16, embDim = 8, numClasses = 1, task = "bce")

  /** GraphFlat over a dataset, examples collected per split. */
  def splitExamples(
      spark: SparkSession,
      g: LocalGraph,
      cfg: FlatConfig
  ): Map[String, Array[Example]] = {
    import spark.implicits._
    val labeled = g.nodes.filter(n => n.split != "none").map(n => n.id -> n).toMap
    val wanted = spark.sparkContext.broadcast(labeled.keySet)
    val flat = GraphFlat.run(spark, g.nodeDs(spark), g.edgeDs(spark), cfg)
    val feats = flat.filter(gf => wanted.value.contains(gf.target)).collect()
    flat.unpersist() // release the pipeline output cache — the driver owns the examples now
    feats
      .map { gf =>
        val nd = labeled(gf.target)
        (nd.split, Example(gf.target, nd.label, gf))
      }
      .groupBy(_._1)
      .map { case (s, arr) => s -> arr.map(_._2).sortBy(_.target) }
  }

  // ---------------------------------------------------------------- table 2

  case class Table2Row(dataset: String, nodes: Long, edges: Long, featDim: Int,
                       classes: Int, train: Int, valN: Int, test: Int)

  def table2(quick: Boolean): Seq[Table2Row] = {
    Seq(cora(), ppi(quick), uug(quick)).map { g =>
      Table2Row(g.name, g.nodes.length, g.edges.length, g.featDim, g.numClasses,
        g.split("train").length, g.split("val").length, g.split("test").length)
    }
  }

  def fmtTable2(rows: Seq[Table2Row]): String = {
    val header = f"${"dataset"}%-10s ${"#nodes"}%10s ${"#edges"}%10s ${"#feat"}%6s ${"#cls"}%5s ${"#train"}%8s ${"#val"}%7s ${"#test"}%7s"
    (header +: rows.map(r =>
      f"${r.dataset}%-10s ${r.nodes}%10d ${r.edges}%10d ${r.featDim}%6d ${r.classes}%5d ${r.train}%8d ${r.valN}%7d ${r.test}%7d"))
      .mkString("\n")
  }

  // ---------------------------------------------------------------- table 3

  case class Table3Row(dataset: String, metric: String, model: String,
                       baseline: Double, agl: Double)

  def table3(spark: SparkSession, quick: Boolean): Seq[Table3Row] = {
    val kinds = Seq("gcn", "sage", "gat")
    val threads = math.min(8, Runtime.getRuntime.availableProcessors())

    // ---- Cora-lite: accuracy, transductive
    val coraG = cora()
    val coraEx = splitExamples(spark, coraG, FlatConfig(2, NoSampling, seed = 5))
    val coraEpochs = if (quick) 25 else 120
    val coraRows = kinds.map { kind =>
      val spec = coraSpec(kind)
      val base = FullGraphTrainer.train(coraG, spec,
        TrainOpts(coraEpochs, batchSize = 0, lr = 0.01, threads = threads))
      val baseTest = FullGraphTrainer.evaluateFull(coraG, base.model, "test", threads)
      val agl = LocalTrainer.train(coraEx("train"), coraEx("val"), spec,
        TrainOpts(coraEpochs, batchSize = 64, lr = 0.01, threads = threads))
      val aglTest = LocalTrainer.evaluate(agl.model, coraEx("test"), 256, threads)
      Table3Row("cora-lite", "accuracy", kind, baseTest, aglTest)
    }

    // ---- PPI-lite: micro-F1, inductive-by-graph (uniform sampling caps the
    // dense 2-hop neighborhoods, as AGL's sampling framework is built for)
    val ppiG = ppi(quick)
    val ppiEx = splitExamples(spark, ppiG, FlatConfig(2, UniformSampling(20), seed = 5))
    val ppiEpochsAgl = if (quick) 8 else 40
    val ppiEpochsFull = if (quick) 40 else 200
    val ppiRows = kinds.map { kind =>
      val spec = ppiSpec(kind)
      val base = FullGraphTrainer.train(ppiG, spec,
        TrainOpts(ppiEpochsFull, batchSize = 0, lr = 0.01, threads = threads))
      val baseTest = FullGraphTrainer.evaluateFull(ppiG, base.model, "test", threads)
      val agl = LocalTrainer.train(ppiEx("train"), ppiEx("val"), spec,
        TrainOpts(ppiEpochsAgl, batchSize = 512, lr = 0.01, threads = threads))
      val aglTest = LocalTrainer.evaluate(agl.model, ppiEx("test"), 512, threads)
      Table3Row("ppi-lite", "micro-F1", kind, baseTest, aglTest)
    }

    // ---- UUG-lite: AUC, distributed PS training, sampling + re-indexing on.
    // PyG/DGL "OOM" in the paper → no baseline column here either.
    import spark.implicits._
    val uugG = uug(quick)
    val cfg = uugFlatConfig(2)
    val uugEx = splitExamples(spark, uugG, cfg)
    val uugEpochs = if (quick) 15 else 80
    val uugRows = kinds.map { kind =>
      val spec = uugSpec(kind)
      val trainDs = spark.createDataset(
        uugEx("train").toIndexedSeq.map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf))))
      val res = PsTrainer.train(spark, trainDs, uugEx("val"), spec,
        PsOpts(uugEpochs, batchSize = 256, lr = 0.02,
          numWorkers = if (quick) 4 else 8, threadsPerWorker = 1, evalEvery = 5))
      val test = LocalTrainer.evaluate(res.model, uugEx("test"), 512, threads)
      Table3Row("uug-lite", "AUC", kind, Double.NaN, test)
    }

    spark.catalog.clearCache()
    coraRows ++ ppiRows ++ uugRows
  }

  def fmtTable3(rows: Seq[Table3Row]): String = {
    val header = f"${"dataset"}%-10s ${"metric"}%-9s ${"model"}%-6s ${"FullGraph(DGL/PyG-like)"}%24s ${"AGL"}%8s"
    (header +: rows.map { r =>
      val b = if (r.baseline.isNaN) "OOM/n-a" else f"${r.baseline}%.3f"
      f"${r.dataset}%-10s ${r.metric}%-9s ${r.model}%-6s $b%24s ${r.agl}%8.3f"
    }).mkString("\n")
  }

  // ---------------------------------------------------------------- table 4

  case class Table4Row(model: String, layers: Int, fullGraphMs: Double,
                       baseMs: Double, pruneMs: Double, partitionMs: Double, bothMs: Double)

  def table4(spark: SparkSession, quick: Boolean): Seq[Table4Row] = {
    val g = ppi(quick)
    val threads = math.min(8, Runtime.getRuntime.availableProcessors())
    val depths = if (quick) Seq(1, 2) else Seq(1, 2, 3)
    val epochs = 5 // first epoch absorbs residual JIT; we report the median of the rest
    val batch = if (quick) 128 else 512
    val exByK: Map[Int, Array[Example]] = depths.map { k =>
      k -> splitExamples(spark, g, FlatConfig(k, UniformSampling(20), seed = 5))("train")
    }.toMap

    def timedEpochMs(history: Vector[EpochStat]): Double = {
      // median of the post-warmup epochs, robust to GC/JIT spikes
      val t = history.drop(1).map(_.timeMs.toDouble).sorted
      if (t.isEmpty) history.map(_.timeMs.toDouble).sum else t(t.size / 2)
    }

    // JIT warmup so the first measured configuration isn't penalized
    locally {
      val spec = ppiSpec("gat", 2)
      LocalTrainer.train(exByK(2).take(2 * batch), Array.empty, spec,
        TrainOpts(2, batch, lr = 0.01, threads = threads, evalEvery = 1000))
      FullGraphTrainer.train(g, spec, TrainOpts(2, 0, lr = 0.01, threads = threads, evalEvery = 1000))
    }

    val rows = for (kind <- Seq("gcn", "sage", "gat"); k <- depths) yield {
      val spec = ppiSpec(kind, k)
      def run(prune: Boolean, partition: Boolean): Double = {
        val opts = TrainOpts(epochs, batch, lr = 0.01, threads = if (partition) threads else 1,
          prune = prune, pipeline = true, evalEvery = 1000)
        timedEpochMs(LocalTrainer.train(exByK(k), Array.empty, spec, opts).history)
      }
      val full = timedEpochMs(FullGraphTrainer.train(g, spec,
        TrainOpts(epochs, 0, lr = 0.01, threads = threads, evalEvery = 1000)).history)
      Table4Row(kind, k,
        fullGraphMs = full,
        baseMs = run(prune = false, partition = false),
        pruneMs = run(prune = true, partition = false),
        partitionMs = run(prune = false, partition = true),
        bothMs = run(prune = true, partition = true))
    }
    spark.catalog.clearCache()
    rows
  }

  def fmtTable4(rows: Seq[Table4Row]): String = {
    val header = f"${"model"}%-6s ${"layers"}%6s ${"FullGraph"}%10s ${"AGL_base"}%10s ${"+pruning"}%10s ${"+partition"}%11s ${"+both"}%10s   (ms/epoch)"
    (header +: rows.map(r =>
      f"${r.model}%-6s ${r.layers}%6d ${r.fullGraphMs}%10.1f ${r.baseMs}%10.1f ${r.pruneMs}%10.1f ${r.partitionMs}%11.1f ${r.bothMs}%10.1f"))
      .mkString("\n")
  }

  // ---------------------------------------------------------------- table 5

  /** Wall times of each repeat; the counts and the score difference come
    * from the last one.
    */
  case class Table5Report(
      originalRunsMs: Seq[Long],
      graphInferRunsMs: Seq[Long],
      originalEmbComputations: Long,
      graphInferEmbComputations: Long,
      originalNodeRecords: Long,
      graphInferNodeRecords: Long,
      maxScoreDiff: Double,
      nodes: Long
  ) {
    def originalMs: Long = originalRunsMs.sorted.apply(originalRunsMs.length / 2)
    def graphInferMs: Long = graphInferRunsMs.sorted.apply(graphInferRunsMs.length / 2)
  }

  def table5(spark: SparkSession, quick: Boolean): Table5Report = {
    import spark.implicits._
    val g = if (quick) GraphGen.uugLite(n = 1200) else GraphGen.uugLite(n = 8000)
    val cfg = FlatConfig(2, UniformSampling(15), seed = 5)
    val nodes = g.nodeDs(spark).persist()
    val edges = g.edgeDs(spark).persist()
    nodes.count(); edges.count()

    // a (briefly) trained 2-layer GAT, as in the paper's inference experiment
    val ex = splitExamples(spark, g, cfg)
    val spec = uugSpec("gat")
    val trainDs = spark.createDataset(
      ex("train").toIndexedSeq.map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf))))
    val tm = PsTrainer.train(spark, trainDs, Array.empty, spec,
      PsOpts(if (quick) 3 else 8, 256, 0.02, numWorkers = 4)).model

    // Original: GraphFlat over every node + full model per GraphFeature;
    // GraphInfer: sliced message passing, each embedding computed once.
    // Both persist and count their scores before they return. Call 0 of
    // each warms up; calls 1-3 are timed, alternating.
    val embAcc = spark.sparkContext.longAccumulator("origEmb")
    val recAcc = spark.sparkContext.longAccumulator("origRec")
    val giEmbAcc = spark.sparkContext.longAccumulator("graphInferEmb")
    def timed(scores: => Dataset[(Long, Array[Double])]) = {
      val t0 = System.nanoTime()
      (scores, (System.nanoTime() - t0) / 1000000L)
    }
    val calls = (0 to 3).map { _ =>
      Seq(embAcc, recAcc, giEmbAcc).foreach(_.reset())
      (timed(OriginalInfer.inferScores(spark, nodes, edges, tm, cfg, Some(embAcc), Some(recAcc))),
        timed(GraphInfer.inferScores(spark, nodes, edges, tm, cfg, Some(giEmbAcc))))
    }
    calls.init.foreach { case ((o, _), (gi, _)) => o.unpersist(); gi.unpersist() }
    val ((origScores, _), (giScores, _)) = calls.last
    val n = giScores.count()

    val maxDiff = origScores
      .joinWith(giScores, origScores.col("_1") === giScores.col("_1"))
      .map { case ((_, a), (_, b)) =>
        a.zip(b).map { case (x, y) => math.abs(x - y) }.max
      }
      .reduce(math.max _)

    val report = Table5Report(
      originalRunsMs = calls.tail.map(_._1._2),
      graphInferRunsMs = calls.tail.map(_._2._2),
      originalEmbComputations = embAcc.value,
      graphInferEmbComputations = giEmbAcc.value,
      originalNodeRecords = recAcc.value,
      graphInferNodeRecords = n,
      maxScoreDiff = maxDiff,
      nodes = n
    )
    origScores.unpersist(); giScores.unpersist(); nodes.unpersist(); edges.unpersist()
    spark.catalog.clearCache()
    report
  }

  def fmtTable5(r: Table5Report): String = {
    def span(xs: Seq[Long]) = s"${xs.min}–${xs.max}"
    val rows = Seq(
      f"${"method"}%-12s ${"median(ms)"}%10s ${"min–max(ms)"}%13s ${"emb-computations"}%18s ${"node-records"}%14s",
      f"${"Original"}%-12s ${r.originalMs}%10d ${span(r.originalRunsMs)}%13s ${r.originalEmbComputations}%18d ${r.originalNodeRecords}%14d",
      f"${"GraphInfer"}%-12s ${r.graphInferMs}%10d ${span(r.graphInferRunsMs)}%13s ${r.graphInferEmbComputations}%18d ${r.graphInferNodeRecords}%14d",
      f"speedup ×${r.originalMs.toDouble / math.max(r.graphInferMs, 1)}%.2f (medians of ${r.originalRunsMs.length}%d alternating repeats after one warm-up each), " +
        f"compute ratio ×${r.originalEmbComputations.toDouble / math.max(r.graphInferEmbComputations, 1)}%.2f, " +
        f"max |score diff| = ${r.maxScoreDiff}%.2e over ${r.nodes}%d nodes"
    )
    rows.mkString("\n")
  }
}
