package repro.core

import java.util.concurrent.{ArrayBlockingQueue, TimeUnit}
import repro.graph.{Example, LocalGraph}
import repro.linalg.{Csr, Mat}
import repro.nn._
import scala.util.Random

/** Knobs of GraphTrainer's standalone mode, mirroring §3.3.2's optimization
  * strategies: `pipeline` overlaps subgraph vectorization with model
  * computation; `prune` enables per-layer pruned adjacencies; `partition`
  * runs every kernel of a training step (aggregation, its backward scatter
  * and the dense products) edge-partitioned over `threads` threads, and
  * `partition = false` runs all of them on one thread. None of the three
  * changes a single bit of the result.
  */
case class TrainOpts(
    epochs: Int,
    batchSize: Int,
    lr: Double,
    seed: Long = 42L,
    threads: Int = Runtime.getRuntime.availableProcessors(),
    prune: Boolean = true,
    partition: Boolean = true,
    pipeline: Boolean = true,
    evalEvery: Int = 1
) {
  def aggThreads: Int = if (partition) threads else 1
}

case class EpochStat(epoch: Int, loss: Double, timeMs: Long, valMetric: Double)

case class TrainResult(model: TrainedModel, history: Vector[EpochStat]) {
  def bestVal: Double = {
    val vals = history.map(_.valMetric).filterNot(_.isNaN)
    if (vals.isEmpty) Double.NaN else vals.max
  }
  def avgEpochMs: Double =
    if (history.isEmpty) 0 else history.map(_.timeMs.toDouble).sum / history.size
}

/** GraphTrainer in standalone mode (§3.3): mini-batch training over
  * GraphFlat-produced, self-contained subgraphs. This is what Table 4 times.
  */
object LocalTrainer {

  /** Shuffle examples into batches and vectorize; with `pipeline` the
    * vectorization runs on a producer thread ahead of model computation.
    */
  def train(
      trainSet: Array[Example],
      valSet: Array[Example],
      spec: ModelSpec,
      opts: TrainOpts
  ): TrainResult = {
    val model = Model.build(spec, opts.seed)
    val adam = new Adam(model.paramShapes, opts.lr)
    val rng = new Random(opts.seed)
    var bestVal = Double.NegativeInfinity
    var bestParams: Option[Array[Array[Double]]] = None
    val history = Vector.newBuilder[EpochStat]

    for (epoch <- 1 to opts.epochs) {
      val t0 = System.nanoTime()
      val order = rng.shuffle(trainSet.indices.toList)
      val batches = order.grouped(opts.batchSize).map(_.map(trainSet).toSeq).toSeq
      var lossSum = 0.0
      var nb = 0
      foreachVectorized(batches, spec.layers, opts) { vb =>
        val (loss, grads) = model.lossAndGrad(vb, opts.aggThreads)
        adam.step(model.getParamsRef, grads)
        lossSum += loss
        nb += 1
      }
      val ms = (System.nanoTime() - t0) / 1000000L
      val valMetric =
        if (valSet.nonEmpty && epoch % opts.evalEvery == 0)
          evaluate(model, valSet, opts.batchSize, opts.aggThreads, opts.prune)
        else Double.NaN
      if (!valMetric.isNaN && valMetric > bestVal) {
        bestVal = valMetric; bestParams = Some(model.getParams)
      }
      history += EpochStat(epoch, lossSum / math.max(nb, 1), ms, valMetric)
    }
    // the best validated parameters, or the last ones when no validation ran
    TrainResult(TrainedModel(spec, bestParams.getOrElse(model.getParams)), history.result())
  }

  /** Run `f` over vectorized batches, optionally pipelined (§3.3.2). */
  def foreachVectorized(
      batches: Seq[Seq[Example]],
      layers: Int,
      opts: TrainOpts
  )(f: VecBatch => Unit): Unit = {
    if (!opts.pipeline) {
      batches.foreach(b => f(Vectorize(b, layers, opts.prune)))
    } else {
      val q = new ArrayBlockingQueue[Option[VecBatch]](4)
      @volatile var err: Throwable = null
      val producer = new Thread(() => {
        try {
          batches.foreach(b => q.put(Some(Vectorize(b, layers, opts.prune))))
          q.put(None)
        } catch { case t: Throwable => err = t; q.put(None) }
      }, "agl-vectorize")
      producer.setDaemon(true)
      producer.start()
      var done = false
      while (!done) {
        q.poll(300, TimeUnit.SECONDS) match {
          case Some(vb) => f(vb)
          case None     => done = true
          case null     => throw new IllegalStateException("vectorization pipeline stalled")
        }
      }
      producer.join()
      if (err != null) throw err
    }
  }

  def evaluate(
      model: Model,
      examples: Array[Example],
      batchSize: Int,
      threads: Int,
      prune: Boolean
  ): Double = {
    val all = examples.grouped(batchSize).map { b =>
      val vb = Vectorize(b.toSeq, model.spec.layers, prune)
      (model.predictScores(vb, threads), vb.labels)
    }.toSeq
    val scores = Mat.fromRows(all.flatMap { case (s, _) => (0 until s.rows).map(s.row) })
    val labels = Mat.fromRows(all.flatMap { case (_, l) => (0 until l.rows).map(l.row) })
    Metrics.forTask(model.spec.task, scores, labels)
  }

  def evaluate(tm: TrainedModel, examples: Array[Example], batchSize: Int, threads: Int): Double =
    evaluate(tm.materialize(), examples, batchSize, threads, prune = true)
}

/** The PyG/DGL stand-in of Tables 3–4: the identical Model run full-batch on
  * the entire in-memory graph (no GraphFlat, no per-batch subgraph
  * duplication, no disk reads).
  */
object FullGraphTrainer {

  /** Vectorize the whole graph once, targets = nodes of `split`. */
  def vectorizeFull(g: LocalGraph, layers: Int, split: String): VecBatch = {
    val idOf = g.nodes.zipWithIndex.map { case (nd, i) => nd.id -> i }.toMap
    val x = Mat.fromRows(g.nodes.toIndexedSeq.map(_.feat.map(_.toDouble)))
    val csr = Csr.fromEdges(g.nodes.length, g.edges.length, g.edges.map(e => idOf(e.src)),
      g.edges.map(e => idOf(e.dst)), g.edges.map(_.weight.toDouble))
    val targetNodes = g.nodes.filter(_.split == split)
    val targets = targetNodes.map(nd => idOf(nd.id))
    val labels = Mat.fromRows(targetNodes.toIndexedSeq.map(_.label.map(_.toDouble)))
    VecBatch(Array.fill(layers)(csr), x, targets, labels)
  }

  def train(g: LocalGraph, spec: ModelSpec, opts: TrainOpts): TrainResult = {
    val trainVb = vectorizeFull(g, spec.layers, "train")
    // a graph without val nodes trains like an empty validation set
    val valVb = if (g.split("val").isEmpty) None else Some(vectorizeFull(g, spec.layers, "val"))
    val model = Model.build(spec, opts.seed)
    val adam = new Adam(model.paramShapes, opts.lr)
    var bestVal = Double.NegativeInfinity
    var bestParams: Option[Array[Array[Double]]] = None
    val history = Vector.newBuilder[EpochStat]
    for (epoch <- 1 to opts.epochs) {
      val t0 = System.nanoTime()
      val (loss, grads) = model.lossAndGrad(trainVb, opts.aggThreads)
      adam.step(model.getParamsRef, grads)
      val ms = (System.nanoTime() - t0) / 1000000L
      val valMetric = valVb match {
        case Some(vb) if epoch % opts.evalEvery == 0 =>
          Metrics.forTask(spec.task, model.predictScores(vb, opts.aggThreads), vb.labels)
        case _ => Double.NaN
      }
      if (!valMetric.isNaN && valMetric > bestVal) { bestVal = valMetric; bestParams = Some(model.getParams) }
      history += EpochStat(epoch, loss, ms, valMetric)
    }
    TrainResult(TrainedModel(spec, bestParams.getOrElse(model.getParams)), history.result())
  }

  def evaluateFull(g: LocalGraph, tm: TrainedModel, split: String, threads: Int): Double = {
    val vb = vectorizeFull(g, tm.spec.layers, split)
    val model = tm.materialize()
    Metrics.forTask(tm.spec.task, model.predictScores(vb, threads), vb.labels)
  }
}
