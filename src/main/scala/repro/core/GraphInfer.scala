package repro.core

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator
import repro.graph._
import repro.nn.{Model, TrainedModel}

/** One executor-side materialized model per broadcast, so reducers don't
  * rebuild layer objects per node. applyOne only reads parameters, so
  * concurrent tasks can share the instance.
  */
object ModelCache {
  private val cache = new ConcurrentHashMap[Long, Model]()
  def get(bcId: Long, tm: => TrainedModel): Model =
    cache.computeIfAbsent(bcId, _ => tm.materialize())
}

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
  * neighborhoods the model was trained on.
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
    val bcId = bcModel.id

    // Map phase: initial "embeddings" are the raw features (h^(0) = x).
    var state: Dataset[Emb] = nodes.map(n => Emb(n.id, n.feat.map(_.toDouble)))

    for (layerIdx <- 0 until tm.spec.layers) {
      val selfMsgs = state.map(e => InMsg(e.id, -1L, e.vec))
      val nbMsgs = state
        .joinWith(sampled, state.col("id") === sampled.col("edge.src"))
        .map { case (s, in) => InMsg(in.edge.dst, in.order, s.vec) }
      val newState = selfMsgs
        .union(nbMsgs)
        .groupByKey(_.dst)
        .mapGroups { (key, it) =>
          val msgs = it.toArray.sortBy(_.order)
          if (msgs.head.order != -1L) throw new IllegalStateException(s"node $key lost its self message")
          val model = ModelCache.get(bcId, bcModel.value)
          Emb(key, model.gnn(layerIdx).applyOne(msgs.head.vec, msgs.tail.map(_.vec)))
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
    val bcId = bcModel.id
    val task = tm.spec.task
    val scores = emb.map { e =>
      val model = ModelCache.get(bcId, bcModel.value)
      val logits = model.predictor.applyOne(e.vec)
      (e.id, activate(logits, task))
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    emb.unpersist()
    scores
  }

  def activate(logits: Array[Double], task: String): Array[Double] =
    if (task == "softmax") {
      val mx = logits.max
      val ex = logits.map(x => math.exp(x - mx))
      val s = ex.sum
      ex.map(_ / s)
    } else logits.map(x => 1.0 / (1.0 + math.exp(-x)))
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
    val bcId = bcModel.id
    val layers = tm.spec.layers
    val scores = flat.map { gf =>
      val model = ModelCache.get(bcId, bcModel.value)
      val ex = Example(gf.target, Array.fill(tm.spec.numClasses)(0f), gf)
      val vb = Vectorize(Seq(ex), layers, prune = true)
      // every node row of every layer is recomputed for this one target
      embAcc.foreach(_.add(gf.numNodes.toLong * layers))
      recAcc.foreach(_.add(gf.numNodes.toLong))
      val s = model.predictScores(vb, 1)
      (gf.target, s.row(0))
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    flat.unpersist()
    scores
  }
}
