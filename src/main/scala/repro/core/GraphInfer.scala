package repro.core

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, Encoder, SparkSession}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator
import repro.graph._
import repro.linalg.{Csr, Mat}
import repro.nn.{GnnLayer, Model, TrainedModel}

/** GraphInfer (§3.4): hierarchical model segmentation + K+1 rounds of
  * message passing.
  *
  * A trained K-layer model is split into K GNN-layer slices plus the
  * prediction slice. Round k merges the (k-1)-layer embeddings arriving from
  * in-edge neighbors (plus the node's own), applies slice k, and propagates
  * the k-layer embedding along out-edges. The final round applies the
  * prediction slice. Every node's intermediate embedding is computed exactly
  * once — no overlap-induced recomputation.
  *
  * Messages follow GraphFlat's sample (the same `Blocks` set-up and seed)
  * and are aggregated in GraphFlat's merge order, so inference sees
  * precisely the neighborhoods the model was trained on.
  *
  * The rounds run over [[Blocks]], hash-partitioned on node id into
  * `min(spark.sql.shuffle.partitions, defaultParallelism)` partitions; a
  * block's state is its nodes' rows. A round ships each source embedding
  * once to each partition that reads it, and each partition stacks its own
  * and its received rows into one `Mat`, builds one `Csr` whose rows keep
  * the merge order, and calls the training layer's `forward` once with its
  * own rows active. The prediction slice is one `Dense.forward` +
  * `Model.activateScores` per block. Set-up and each round end with one
  * `count`, and the call with one more.
  */
object GraphInfer {

  case class Emb(id: Long, vec: Array[Double])

  /** One partition's node rows: `ids` ascending, the row of `ids(i)` at
    * `vecs(i * dim until (i + 1) * dim)`.
    */
  private case class Block(ids: Array[Long], vecs: Array[Double], dim: Int) extends Blocks.Block[Block] {
    def mat: Mat = new Mat(ids.length, dim, vecs)

    def select(rows: Array[Int]): Block = {
      val out = new Array[Double](rows.length * dim)
      var i = 0
      while (i < rows.length) { System.arraycopy(vecs, rows(i) * dim, out, i * dim, dim); i += 1 }
      Block(rows.map(ids), out, dim)
    }
  }

  /** Returns per-node K-layer embeddings (before the prediction slice).
    * `embAcc` accumulates node-embedding computations (one per node per layer).
    */
  def inferEmbeddings(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator] = None
  ): Dataset[Emb] = {
    import spark.implicits._
    withRounds(spark, nodes, edges, tm, cfg, embAcc, Blocks.defaultPartitions(spark)) { (state, _) =>
      state.flatMap(b => b.ids.indices.iterator.map(i => Emb(b.ids(i), b.vecs.slice(i * b.dim, (i + 1) * b.dim))))
    }
  }

  /** Full pipeline: K embedding rounds + the prediction slice. Returns
    * per-node task scores (softmax probs / sigmoids). `embAcc` as in
    * [[inferEmbeddings]].
    */
  def inferScores(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator] = None
  ): Dataset[(Long, Array[Double])] =
    scoresAt(Blocks.defaultPartitions(spark), spark, nodes, edges, tm, cfg, embAcc)

  /** [[inferScores]] over `partitions` block partitions. */
  private[core] def scoresAt(
      partitions: Int,
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator] = None
  ): Dataset[(Long, Array[Double])] = {
    import spark.implicits._
    withRounds(spark, nodes, edges, tm, cfg, embAcc, partitions) { (state, bcModel) =>
      state.flatMap { b =>
        val model = bcModel.value.materialize()
        val probs = Model.activateScores(model.predictor.forward(b.mat), model.spec.task)
        b.ids.indices.iterator.map(i => (b.ids(i), probs.row(i)))
      }
    }
  }

  /** Runs the K rounds, then persists and counts `out` of the last state
    * (given the broadcast model) and releases everything else the call cached.
    */
  private def withRounds[T: Encoder](
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator],
      partitions: Int
  )(out: (RDD[Block], Broadcast[TrainedModel]) => RDD[T]): Dataset[T] = {
    require(cfg.k == tm.spec.layers, "GraphInfer rounds must equal model depth")
    val bcModel = spark.sparkContext.broadcast(tm)
    val inDim = tm.spec.inDim
    // Map phase: initial "embeddings" are the raw features (h^(0) = x).
    val setup = Blocks.setup(nodes, edges, cfg, partitions)(
      ns => Block(ns.map(_.id), ns.flatMap(_.feat.map(_.toDouble)), inDim))
    setup.routes.count() // set-up ends here, so each round's action times the round alone

    var state = setup.init
    for (layerIdx <- 0 until tm.spec.layers) {
      val next = setup.round(state) { (own, es, in) =>
        embAcc.foreach(_.add(own.ids.length.toLong))
        forwardBlock(bcModel.value.materialize().gnn(layerIdx), own, es, in)
      }
      next.count()
      state.unpersist()
      state = next
    }
    val res = spark.createDataset(out(state, bcModel)).persist(StorageLevel.MEMORY_AND_DISK)
    res.count()
    state.unpersist()
    setup.unpersist()
    res
  }

  /** One layer slice over one partition: its own rows then the rows it
    * received in one `Mat`, its in-edges in one `Csr` (a row's edges in
    * merge order), and one `forward` with the own rows active.
    */
  private def forwardBlock(layer: GnnLayer, own: Block, in: Blocks.InEdges, received: Iterator[Block]): Block = {
    val blocks = own +: received.toArray
    val rowOf = mutable.LongMap.empty[Int]
    val h = new Array[Double](blocks.map(_.vecs.length).sum)
    var rows = 0
    blocks.foreach { b =>
      System.arraycopy(b.vecs, 0, h, rows * own.dim, b.vecs.length)
      b.ids.foreach { id => rowOf(id) = rows; rows += 1 }
    }
    val edges = in.edges
    val src = new Array[Int](edges.length)
    val dst = new Array[Int](edges.length)
    var m = 0
    var e = 0
    while (e < edges.length) {
      val s = rowOf.getOrElse(edges(e).src, -1)
      if (s >= 0) {
        val d = rowOf.getOrElse(edges(e).dst, -1)
        if (d < 0) Blocks.lostSelf(edges(e))
        src(m) = s; dst(m) = d; m += 1
      }
      e += 1
    }
    val csr = Csr.fromEdges(rows, m, src, dst, Array.fill(m)(1.0))
    val adj = new Csr(rows, csr.rowPtr, csr.colIdx, csr.weight, Array.range(0, own.ids.length))
    val out = layer.forward(adj, new Mat(rows, own.dim, h), 1)
    Block(own.ids, java.util.Arrays.copyOf(out.data, own.ids.length * layer.outDim), layer.outDim)
  }
}

/** The "Original" inference baseline of Table 5: run GraphFlat for *every*
  * node, then apply the full K-layer model independently per GraphFeature.
  * Overlapping neighborhoods are recomputed for each target — the
  * repetition GraphInfer eliminates.
  */
object OriginalInfer {

  /** @param embAcc   accumulates node-embedding computations (per layer)
    * @param recAcc   accumulates subgraph node records materialized
    */
  def inferScores(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator] = None,
      recAcc: Option[LongAccumulator] = None
  ): Dataset[(Long, Array[Double])] = {
    import spark.implicits._
    require(cfg.k == tm.spec.layers)
    val flat = GraphFlat.run(spark, nodes, edges, cfg)
    val bcModel = spark.sparkContext.broadcast(tm)
    val layers = tm.spec.layers
    val scores = flat.mapPartitions { it =>
      lazy val model = bcModel.value.materialize()
      it.map { gf =>
        val ex = Example(gf.target, Array.fill(tm.spec.numClasses)(0f), gf)
        val vb = Vectorize(Seq(ex), layers, prune = true)
        // every node row of every layer is recomputed for this one target
        embAcc.foreach(_.add(gf.numNodes.toLong * layers))
        recAcc.foreach(_.add(gf.numNodes.toLong))
        (gf.target, model.predictScores(vb, 1).row(0))
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    flat.unpersist()
    scores
  }
}
