package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator
import repro.graph._
import repro.linalg.Mat
import repro.nn.{Model, TrainedModel}

/** GraphInfer (§3.4): hierarchical model segmentation + K+1 rounds of
  * MapReduce message passing.
  *
  * A trained K-layer model is split into K GNN-layer slices plus the
  * prediction slice. Round k merges the (k-1)-layer embeddings arriving from
  * in-edge neighbors (plus the node's own), applies slice k, and propagates
  * the k-layer embedding along out-edges. The final round applies the
  * prediction slice. Every node's intermediate embedding is computed exactly
  * once — no overlap-induced recomputation.
  *
  * Messages follow `GraphFlat.sampledInEdges` (same seed, same hub set) and
  * are aggregated in GraphFlat's merge order, so inference sees precisely the
  * neighborhoods the model was trained on. A round clusters the messages by
  * destination and sorts each partition by (dst, order); one task then
  * materializes the model once and applies the slice to each run of one
  * destination. Slices are the training layers' own `forward` (through
  * `applyOne`) and `Dense.forward` + `Model.activateScores`.
  */
object GraphInfer {

  case class Emb(id: Long, vec: Array[Double])
  /** An embedding sent into `dst` along a sampled in-edge, or the node's own (order -1). */
  case class InMsg(dst: Long, order: Long, vec: Array[Double])

  /** Returns per-node K-layer embeddings (before the prediction slice). */
  def inferEmbeddings(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig
  ): Dataset[Emb] = {
    import spark.implicits._
    require(cfg.k == tm.spec.layers, "GraphInfer rounds must equal model depth")
    val sampled = GraphFlat.sampledInEdges(edges, cfg)
    val bcModel = spark.sparkContext.broadcast(tm)

    // Map phase: initial "embeddings" are the raw features (h^(0) = x).
    var state: Dataset[Emb] = nodes.map(n => Emb(n.id, n.feat.map(_.toDouble)))

    for (layerIdx <- 0 until tm.spec.layers) {
      val selfMsgs = state.map(e => InMsg(e.id, -1L, e.vec))
      val nbMsgs = state
        .joinWith(sampled, state.col("id") === sampled.col("edge.src"))
        .map { case (s, in) => InMsg(in.edge.dst, in.order, s.vec) }
      val newState = selfMsgs
        .union(nbMsgs)
        .repartition($"dst")
        .sortWithinPartitions($"dst", $"order")
        .mapPartitions { it =>
          lazy val layer = bcModel.value.materialize().gnn(layerIdx)
          runsByDst(it).map { msgs =>
            val key = msgs.head.dst
            if (msgs.head.order != -1L) throw new IllegalStateException(s"node $key lost its self message")
            Emb(key, layer.applyOne(msgs.head.vec, msgs.tail.map(_.vec)))
          }
        }
        .persist(StorageLevel.MEMORY_AND_DISK)
      newState.count()
      state.unpersist()
      state = newState
    }
    sampled.unpersist()
    state
  }

  /** Full pipeline: K embedding rounds + the prediction slice. Returns
    * per-node task scores (softmax probs / sigmoids).
    */
  def inferScores(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig
  ): Dataset[(Long, Array[Double])] = {
    import spark.implicits._
    val emb = inferEmbeddings(spark, nodes, edges, tm, cfg)
    val bcModel = spark.sparkContext.broadcast(tm)
    val scores = emb.mapPartitions { it =>
      val part = it.toIndexedSeq
      if (part.isEmpty) Iterator.empty
      else {
        val model = bcModel.value.materialize()
        val probs = Model.activateScores(model.predictor.forward(Mat.fromRows(part.map(_.vec))), model.spec.task)
        part.indices.iterator.map(i => (part(i).id, probs.row(i)))
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    emb.unpersist()
    scores
  }

  /** The runs of one `dst` in a partition sorted by `dst`. */
  private def runsByDst(it: Iterator[InMsg]): Iterator[Array[InMsg]] = {
    val in = it.buffered
    new Iterator[Array[InMsg]] {
      def hasNext: Boolean = in.hasNext
      def next(): Array[InMsg] = {
        val dst = in.head.dst
        val run = Array.newBuilder[InMsg]
        while (in.hasNext && in.head.dst == dst) run += in.next()
        run.result()
      }
    }
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
