package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph._
import repro.linalg.{Csr, Mat}
import repro.nn._

/** The traced breakdown: each layer's public entry points called once more on
  * the workload's own graph, with timers around every call and Spark job
  * metrics read through [[JobProbe]] per job group. Nothing here feeds an
  * end-to-end metric.
  */
object LayerPass {

  /** Everything a workload hands to the layer pass. `batch` is the number of
    * examples the workload pushes through the model at once.
    */
  final case class Input(graph: LocalGraph, cfg: FlatConfig, specOf: String => ModelSpec, batch: Int)

  /** GNN kinds whose kernels are timed; the trainers and inference run `Primary`. */
  val Kinds = Seq("sage", "gat")
  val Primary = "gat"
  val PsSteps = 3
  val LocalEpochs = 3

  /** Records the layer metrics into `out`; returns the pass's output checks. */
  def run(spark: SparkSession, probe: JobProbe, in: Input, out: Samples): Seq[(String, Boolean)] = {
    import spark.implicits._
    val sc = spark.sparkContext
    val threads = Workloads.threads
    val g = in.graph
    val nodes = g.nodeDs(spark)
    val edges = g.edgeDs(spark)
    val k = in.cfg.k

    // ---- graphflat
    val hubs = out.timeMs("graphflat.hubs_ms")(GraphFlat.hubIds(edges, in.cfg))
    out.add("graphflat.hubs", hubs.size.toDouble)
    val flat = Probe.inGroup(sc, "layer.graphflat")(GraphFlat.run(spark, nodes, edges, in.cfg))
    val gfs = flat.collect()
    flat.unpersist()
    roundMs(probe.actionMs("layer.graphflat", "GraphFlat.scala"), k).zipWithIndex
      .foreach { case (ms, i) => out.add(s"graphflat.round${i + 1}_ms", ms) }
    val fs = probe.stagesOf(probe.jobsOf("layer.graphflat"))
    out.add("graphflat.shuffle_write_mb", fs.map(_.shuffleWriteBytes).sum / 1048576.0)
    out.add("graphflat.shuffle_records", fs.map(_.shuffleWriteRecords).sum.toDouble)
    out.add("graphflat.task_skew", taskSkew(fs))
    gfs.foreach { gf =>
      out.add("graphflat.gf_nodes", gf.numNodes.toDouble)
      out.add("graphflat.gf_edges", gf.numEdges.toDouble)
    }
    out.add("graphflat.gf_nodes_max", gfs.map(_.numNodes).max.toDouble)
    val keptIn = gfs.map(gf => gf.edges.count(_.dst == gf.target).toLong).sum
    out.add("graphflat.kept_per_shipped", keptIn.toDouble / math.max(g.edges.length, 1))

    val label = g.nodes.map(n => n.id -> n).toMap
    val train = gfs.filter(gf => label(gf.target).split == "train").sortBy(_.target)
      .map(gf => Example(gf.target, label(gf.target).label, gf))

    // ---- codec: one single-thread decode of every training FlatExample
    val encoded = train.map(e => FlatExample(e.target, e.label, GraphFeature.encode(e.gf)))
    out.add("codec.encoded_mb", encoded.map(_.gfEncoded.length.toLong).sum / 1048576.0)
    out.timeMs("codec.decode_ms")(encoded.foreach(_.decoded))

    // ---- vectorize and the nn kernels, one training step per batch
    val models = Kinds.map { kind =>
      val m = Model.build(in.specOf(kind), 42L)
      kind -> (m, new Adam(m.paramShapes, 0.01))
    }
    val layers = in.specOf(Primary).layers
    var vecMs = 0.0
    var gfNodes = 0L
    var merged = 0L
    val active = new Array[Long](layers)
    val rows = new Array[Long](layers)
    train.grouped(in.batch).foreach { b =>
      val t0 = System.nanoTime()
      val vb = Vectorize(b.toSeq, layers, prune = true)
      val ms = (System.nanoTime() - t0) / 1e6
      vecMs += ms
      out.add("vectorize.batch_ms", ms)
      out.add("vectorize.nodes_per_batch", vb.x.rows.toDouble)
      gfNodes += b.map(_.gf.numNodes.toLong).sum
      merged += vb.x.rows
      vb.adjs.zipWithIndex.foreach { case (a, l) => active(l) += a.activeList.length; rows(l) += a.numRows }
      models.foreach { case (kind, (m, adam)) => step(kind, m, adam, vb, threads, out) }
    }
    out.add("vectorize.dedup_ratio", merged.toDouble / math.max(gfNodes, 1L))
    (0 until layers).foreach(l => out.add(s"vectorize.active_rows_frac.L${l + 1}", active(l).toDouble / math.max(rows(l), 1L)))
    val computeMs = Kinds.map { kind =>
      out.get(s"nn.$kind.head_ms").sum + out.get(s"nn.$kind.adam_ms").sum +
        (1 to layers).map(l => out.get(s"nn.$kind.L$l.fwd_ms").sum + out.get(s"nn.$kind.L$l.bwd_ms").sum).sum
    }.sum / Kinds.length
    out.add("localtrainer.vec_over_compute", vecMs / computeMs)

    // ---- localtrainer
    val spec = in.specOf(Primary)
    val local = LocalTrainer.train(train, Array.empty, spec,
      TrainOpts(LocalEpochs, in.batch, lr = 0.01, threads = threads))
    local.history.foreach(h => out.add("localtrainer.epoch_ms", h.timeMs.toDouble))

    // ---- pstrainer: one Spark job per step
    val ds = spark.createDataset(encoded.toIndexedSeq)
    val ps = Probe.inGroup(sc, "layer.pstrainer")(PsTrainer.train(spark, ds, Array.empty, spec,
      PsOpts(PsSteps, in.batch, lr = 0.02, numWorkers = math.min(4, Workloads.nproc))))
    val stepJobs = probe.jobsOf("layer.pstrainer").filter(_.callSite.contains("PsTrainer.scala")).takeRight(PsSteps)
    ps.history.zip(stepJobs).foreach { case (h, j) =>
      out.add("pstrainer.step_ms", h.timeMs.toDouble)
      out.add("pstrainer.job_ms", j.ms)
      out.add("pstrainer.driver_ms", h.timeMs - j.ms)
    }
    val pst = probe.stagesOf(stepJobs)
    out.add("pstrainer.task_skew", taskSkew(pst))
    out.add("pstrainer.result_kb_per_step", pst.map(_.resultBytes).sum / 1024.0 / PsSteps)

    // ---- graphinfer and originalinfer (cost does not depend on the parameter values)
    val tm = TrainedModel(spec, Model.build(spec, 42L).getParams)
    val embBefore = CountingModel.applyOneCalls.get
    val gi = Probe.inGroup(sc, "layer.graphinfer")(
      GraphInfer.inferScores(spark, nodes, edges, new CountingModel(spec, tm.params), in.cfg))
    val giScores = gi.collect().toMap
    gi.unpersist()
    val gj = probe.jobsOf("layer.graphinfer")
    val gActs = probe.actionMs("layer.graphinfer", "GraphInfer.scala")
    roundMs(gActs, k).zipWithIndex.foreach { case (ms, i) => out.add(s"graphinfer.round${i + 1}_ms", ms) }
    out.add("graphinfer.predict_ms", gActs.last)
    val gst = probe.stagesOf(gj)
    out.add("graphinfer.shuffle_write_mb", gst.map(_.shuffleWriteBytes).sum / 1048576.0)
    out.add("graphinfer.task_skew", taskSkew(gst))
    out.add("graphinfer.jobs", gj.length.toDouble)
    out.add("graphinfer.emb_computations", (CountingModel.applyOneCalls.get - embBefore).toDouble)

    val embAcc = sc.longAccumulator("originalinfer.emb")
    val recAcc = sc.longAccumulator("originalinfer.records")
    val t0 = System.nanoTime()
    val orig = Probe.inGroup(sc, "layer.originalinfer")(
      OriginalInfer.inferScores(spark, nodes, edges, tm, in.cfg, Some(embAcc), Some(recAcc)))
    val origScores = orig.collect().toMap
    val origMs = (System.nanoTime() - t0) / 1e6
    orig.unpersist()
    // its GraphFlat part ends with GraphFlat's last action
    val flatMs = probe.actionMs("layer.originalinfer", "GraphFlat.scala").sum
    out.add("originalinfer.flat_ms", flatMs)
    out.add("originalinfer.forward_ms", origMs - flatMs)
    out.add("originalinfer.shuffle_write_mb",
      probe.stagesOf(probe.jobsOf("layer.originalinfer")).map(_.shuffleWriteBytes).sum / 1048576.0)
    out.add("originalinfer.emb_computations", embAcc.value.toDouble)
    out.add("originalinfer.node_records", recAcc.value.toDouble)

    Seq("GraphInfer equals OriginalInfer on every node" ->
      (giScores.size == g.nodes.length && Workloads.maxDiff(giScores, origScores) <= Workloads.Tol))
  }

  /** The k actions before the last one of a GraphFlat or GraphInfer call are
    * its rounds: both end each round with a count and finish with one more.
    */
  def roundMs(actions: Vector[Double], k: Int): Vector[Double] = actions.slice(actions.length - 1 - k, actions.length - 1)

  /** Largest max/median task-time ratio over stages wide enough to compare. */
  def taskSkew(st: Seq[StageRec]): Double = {
    val wide = st.filter(_.taskMs.length >= 4)
    if (wide.isEmpty) 1.0 else wide.map(_.skew).max
  }

  /** One training step of `m` with a timer around every layer call, in the
    * order `Model.lossAndGrad` makes them.
    */
  private def step(kind: String, m: Model, adam: Adam, vb: VecBatch, threads: Int, out: Samples): Unit = {
    val spec = m.spec
    m.zeroGrads()
    var h = vb.x
    for (l <- 0 until spec.layers)
      h = out.timeMs(s"nn.$kind.L${l + 1}.fwd_ms")(m.gnn(l).forward(vb.adjs(l), h, threads))
    val emb = h
    var dH = out.timeMs(s"nn.$kind.head_ms") {
      val logits = m.predictor.forward(emb.rowsAt(vb.targets))
      val (_, dLogits) =
        if (spec.task == "softmax") Loss.softmaxCE(logits, vb.labels) else Loss.bceLogits(logits, vb.labels)
      val dT = m.predictor.backward(dLogits)
      val d = Mat.zeros(vb.x.rows, spec.embDim)
      vb.targets.zipWithIndex.foreach { case (t, i) =>
        var c = 0
        while (c < spec.embDim) { d.data(t * spec.embDim + c) += dT.data(i * spec.embDim + c); c += 1 }
      }
      d
    }
    for (l <- spec.layers - 1 to 0 by -1)
      dH = out.timeMs(s"nn.$kind.L${l + 1}.bwd_ms")(m.gnn(l).backward(vb.adjs(l), dH))
    out.timeMs(s"nn.$kind.adam_ms")(adam.step(m.getParamsRef, m.getGrads))
  }
}

/** The same model as `TrainedModel(spec, params)`, whose GNN layers count
  * every `applyOne` call: each is one node embedding GraphInfer computes. The
  * count is JVM-wide, which every task shares under Spark's local master.
  */
final class CountingModel(spec: ModelSpec, params: Array[Array[Double]]) extends TrainedModel(spec, params) {
  override def materialize(seed: Long): Model = {
    val m = super.materialize(seed)
    new Model(m.spec, m.gnn.map(l => new CountingModel.Layer(l): GnnLayer), m.predictor)
  }
}

object CountingModel {
  val applyOneCalls = new java.util.concurrent.atomic.AtomicLong

  final class Layer(l: GnnLayer) extends GnnLayer {
    def inDim: Int = l.inDim
    def outDim: Int = l.outDim
    def params: Array[Mat] = l.params
    def grads: Array[Mat] = l.grads
    def forward(adj: Csr, h: Mat, threads: Int): Mat = l.forward(adj, h, threads)
    def backward(adj: Csr, dOut: Mat): Mat = l.backward(adj, dOut)
    def applyOne(self: Array[Double], neighbors: Array[Array[Double]]): Array[Double] = {
      applyOneCalls.incrementAndGet()
      l.applyOne(self, neighbors)
    }
  }
}
