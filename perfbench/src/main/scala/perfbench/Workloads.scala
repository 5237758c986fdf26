package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.graph._
import repro.nn._
import repro.tables.Tables

/** What one pass of a workload reports: the samples of each end-to-end
  * metric it measured, the number of calls into the system it made, and the
  * output checks over its first round.
  */
final case class Pass(
    samples: Samples,
    calls: Int,
    checks: () => Seq[(String, Boolean)]
) {
  def pipelineS: Double = Workloads.median(samples.get("pipeline_s"))
}

/** A benchmark workload: a generator seeded from the command line and one
  * pipeline over the public entry points of the system. A pass runs GraphFlat
  * once and then a number of rounds of training and inference on its output,
  * so that the short phases are sampled across the whole run rather than in
  * one window of a second or two.
  */
trait Workload {
  def name: String
  /** Wall time of the GraphFlat call and of one round after it on the 4-core
    * reference host, heap probes included: `--seconds` is turned into a
    * number of rounds with them.
    */
  def flatSeconds: Double
  def roundSeconds: Double
  /** The round count does not depend on how fast this run goes, so a slow
    * run measures the same rounds as a fast one.
    */
  def rounds(seconds: Double): Int = math.max(1, ((seconds - flatSeconds) / roundSeconds).toInt)
  def generate(seed: Long): LocalGraph
  /** `heap` probes the live heap; only the GraphFlat call and the first
    * round call it, outside every timer.
    */
  def pass(spark: SparkSession, g: LocalGraph, rounds: Int, heap: () => Unit): Pass
  def layerInput(g: LocalGraph): LayerPass.Input
}

object Workloads {
  lazy val all: Seq[Workload] = Seq(UugPipeline, PpiStandalone)
  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (${all.map(_.name).mkString("|")})"))

  /** InferSpec's tolerance for inference paths that must agree. */
  val Tol = 1e-8
  def nproc: Int = Runtime.getRuntime.availableProcessors()
  /** Trainer threads: half the cores. LocalTrainer gives each thread one
    * static chunk of a kernel and waits for the slowest, and its vectorize
    * producer runs beside them; with a thread per core, any other load on
    * the host stalls every kernel.
    */
  def threads: Int = math.max(1, nproc / 2)

  /** A cached Dataset's rows on the driver, with the Dataset still held. */
  def collected[T](ds: Dataset[T]): (Dataset[T], Array[T]) = (ds, ds.collect())

  /** Probes the heap while the phase's cache is still held, then releases it. */
  def held[T](heap: () => Unit)(r: (Dataset[_], Array[T])): Array[T] = {
    heap()
    r._1.unpersist()
    r._2
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def finiteProb(v: Array[Double]): Boolean = v.forall(x => !x.isNaN && x >= 0.0 && x <= 1.0)

  def maxDiff(a: Map[Long, Array[Double]], b: Map[Long, Array[Double]]): Double =
    if (a.keySet != b.keySet) Double.PositiveInfinity
    else a.iterator.map { case (id, v) =>
      val w = b(id)
      if (v.length != w.length) Double.PositiveInfinity
      else v.indices.map(i => math.abs(v(i) - w(i))).foldLeft(0.0)(math.max)
    }.foldLeft(0.0)(math.max)

  def auc(scores: Map[Long, Array[Double]], nodes: Seq[LabeledNode]): Double =
    Metrics.auc(nodes.map(n => (scores(n.id)(0), n.label(0).toDouble)))
}

import Workloads._

/** FlatJob → TrainJob → InferJob on uug-lite: GraphFlat over the training
  * targets, then rounds of a fixed number of parameter-server steps followed
  * by GraphInfer over every node.
  */
object UugPipeline extends Workload {
  val name = "uug-pipeline"
  val cfg = FlatConfig(2, UniformSampling(15), reindexThreshold = 100, numSalts = 4, seed = 5)
  val spec: ModelSpec = Tables.uugSpec("gat")
  val steps = 6
  val batch = 256
  val workers: Int = math.min(4, nproc)
  val flatSeconds = 11.0
  val roundSeconds = 5.5

  def generate(seed: Long): LocalGraph = GraphGen.uugLite(n = 8000, seed = seed)

  def pass(spark: SparkSession, g: LocalGraph, rounds: Int, heap: () => Unit): Pass = {
    val out = new Samples
    val ph = new Samples
    val nodes = g.nodeDs(spark)
    val edges = g.edgeDs(spark)
    val flat = ph.timeMs("flat")(GraphFlat.flatExamples(spark, g, cfg, "train"))
    heap()
    val flatMs = ph.get("flat").head
    val nTrain = g.split("train").length
    val runs = (0 until rounds).map { r =>
      val h = if (r == 0) heap else () => ()
      val res = ph.timeMs("train")(PsTrainer.train(spark, flat, Array.empty, spec,
        PsOpts(steps, batch, lr = 0.02, numWorkers = workers)))
      h()
      val scores = held(h)(ph.timeMs("infer")(collected(GraphInfer.inferScores(spark, nodes, edges, res.model, cfg)))).toMap
      val trainMs = ph.get("train").last
      val inferMs = ph.get("infer").last
      res.history.foreach(st => out.add("train_examples_per_s", nTrain / (st.timeMs / 1e3)))
      out.add("infer_nodes_per_s", g.nodes.length / (inferMs / 1e3))
      out.add("pipeline_s", (flatMs + trainMs + inferMs) / 1e3)
      (res, scores)
    }
    val flatLocal = flat.collect()
    flat.unpersist()
    val (res, scores) = runs.head
    out.add("flat_s", flatMs / 1e3)
    out.add("test_quality", auc(scores, g.split("test").toIndexedSeq))
    def checks(): Seq[(String, Boolean)] = {
      val model = res.model.materialize()
      val perGf = flatLocal.map { fe =>
        val vb = Vectorize(Seq(fe.decoded), spec.layers, prune = true)
        fe.target -> model.predictScores(vb, 1).row(0)
      }.toMap
      Seq(
        "one FlatExample per train target" ->
          (flatLocal.length == nTrain && flatLocal.map(_.target).toSet == g.split("train").map(_.id).toSet),
        "one finite score in [0,1] per node" ->
          (scores.size == g.nodes.length && g.nodes.forall(n => scores.get(n.id).exists(s => s.length == 1 && finiteProb(s)))),
        "GraphInfer equals the per-GraphFeature forward on train targets" ->
          (maxDiff(perGf, scores.filter { case (id, _) => perGf.contains(id) }) <= Tol),
        "training loss is finite" -> runs.forall(_._1.history.forall(h => !h.loss.isNaN && !h.loss.isInfinite)))
    }
    Pass(out, 1 + 2 * rounds, () => checks())
  }

  def layerInput(g: LocalGraph): LayerPass.Input =
    LayerPass.Input(g, cfg, Tables.uugSpec(_), batch)
}

/** Table 4's standalone setting on ppi-lite: GraphFlat once over all nodes,
  * then rounds of LocalTrainer with pipeline, pruning and partitioning for
  * SAGE-2 and GAT-2, each followed by LocalTrainer.evaluate over every node.
  */
object PpiStandalone extends Workload {
  val name = "ppi-standalone"
  val cfg = FlatConfig(2, UniformSampling(20), seed = 5)
  val kinds = Seq("sage", "gat")
  val epochs = 20
  val batch = 512
  val evalReps = 5
  val flatSeconds = 8.0
  val roundSeconds = 3.0

  def generate(seed: Long): LocalGraph = GraphGen.ppiLite(nGraphs = 8, nodesPerGraph = 150, avgDegree = 26, seed = seed)

  def pass(spark: SparkSession, g: LocalGraph, rounds: Int, heap: () => Unit): Pass = {
    val out = new Samples
    val ph = new Samples
    val byId = g.nodes.map(n => n.id -> n).toMap
    val examples = held(heap)(ph.timeMs("flat") {
      val (ds, gfs) = collected(GraphFlat.run(spark, g.nodeDs(spark), g.edgeDs(spark), cfg))
      (ds, gfs.sortBy(_.target).map(gf => Example(gf.target, byId(gf.target).label, gf)))
    })
    val flatMs = ph.get("flat").head
    val train = examples.filter(e => byId(e.target).split == "train")
    val test = examples.filter(e => byId(e.target).split == "test")
    val runs = (0 until rounds).map { r =>
      val h = if (r == 0) heap else () => ()
      val results = ph.timeMs("train")(kinds.map(kind => LocalTrainer.train(train, Array.empty, Tables.ppiSpec(kind),
        TrainOpts(epochs, batch, lr = 0.01, threads = threads))))
      h()
      // evaluation of all nodes takes about 0.05 s, so each model runs it
      // `evalReps` times and the median call counts
      val evalMs = results.map { res =>
        val model = res.model.materialize()
        median(Seq.fill(evalReps) {
          val t0 = System.nanoTime()
          LocalTrainer.evaluate(model, examples, batch, threads, prune = true)
          (System.nanoTime() - t0) / 1e6
        })
      }
      h()
      // per model, the median epoch from the returned history
      val epochMs = results.map(res => median(res.history.map(_.timeMs.toDouble)))
      out.add("train_examples_per_s", train.length.toDouble * kinds.length / (epochMs.sum / 1e3))
      out.add("infer_nodes_per_s", examples.length.toDouble * kinds.length / (evalMs.sum / 1e3))
      out.add("pipeline_s", (flatMs + ph.get("train").last + evalMs.sum) / 1e3)
      results
    }
    val f1 = runs.head.map(r => LocalTrainer.evaluate(r.model, test, batch, threads))
    out.add("flat_s", flatMs / 1e3)
    out.add("test_quality", f1.sum / f1.length)
    def checks(): Seq[(String, Boolean)] = Seq(
      "one GraphFeature per node" -> (examples.length == g.nodes.length),
      "training loss is finite" -> runs.flatten.forall(_.history.forall(h => !h.loss.isNaN && !h.loss.isInfinite)),
      "test micro-F1 above Table 3's floor of 0.55" -> (out.get("test_quality").head > 0.55))
    Pass(out, 1 + rounds * kinds.length * (1 + evalReps), () => checks())
  }

  def layerInput(g: LocalGraph): LayerPass.Input =
    LayerPass.Input(g, cfg, Tables.ppiSpec(_), batch)
}
