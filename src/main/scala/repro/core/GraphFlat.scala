package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph._

/** Configuration of the GraphFlat pipeline (and of GraphInfer, which must
  * process data identically — §3.4).
  *
  * @param k                 number of hops / Reduce rounds
  * @param sampling          in-edge sampling strategy (per node, per salt)
  * @param reindexThreshold  in-degree above which a node is a "hub" whose
  *                          in-edges are grouped by salt (re-indexing, §3.2.2)
  * @param numSalts          number of random suffixes for hub keys
  * @param seed              seed for deterministic sampling
  */
case class FlatConfig(
    k: Int,
    sampling: SamplingStrategy = NoSampling,
    reindexThreshold: Int = Int.MaxValue,
    numSalts: Int = 8,
    seed: Long = 0L
)

/** GraphFlat (§3.2): the distributed K-hop neighborhood generator, expressed
  * as Spark Dataset shuffles instead of raw Hadoop MapReduce.
  *
  * The sampler does not depend on the round, so it runs once per call
  * ([[sampledInEdges]]); this is also the only place that sees a hub's whole
  * in-degree, and where re-indexing splits it by salt. Each of the K rounds
  * ("Reduce phase") then only follows the sample:
  *   - every node ships its current self information (the accumulated
  *     subgraph) along each sampled out-edge to the destination
  *     ("propagation"), implemented as `joinWith` on src;
  *   - every node merges its previous self information with the messages it
  *     received ("merging"), implemented as one `groupByKey(dst)` +
  *     `mapGroups`, in the order of [[InEdge.order]].
  *
  * After K rounds, each node's self information *is* its K-hop neighborhood;
  * it is flattened to a GraphFeature (and optionally an encoded string).
  */
object GraphFlat {

  /** Self information of a node: the subgraph accumulated so far. */
  case class NodeState(id: Long, nodes: Array[GNode], edges: Array[GEdge])

  /** A sampled in-edge of `edge.dst`. A node merges the messages of its
    * sampled in-edges by ascending `order`: by salt, then in the order
    * `Sampling.selectGroup` returned them.
    */
  case class InEdge(edge: GEdge, order: Long)

  /** A shuffle record into `dst`: the state of the node at the tail of `via`,
    * or the node's own state (no `via`, order -1, so it merges first).
    */
  case class Msg(dst: Long, order: Long, st: NodeState, via: Option[GEdge])

  /** Ids of nodes whose in-degree exceeds the re-indexing threshold. */
  def hubIds(edges: Dataset[GEdge], cfg: FlatConfig): Set[Long] = {
    if (cfg.reindexThreshold == Int.MaxValue) Set.empty
    else {
      import edges.sparkSession.implicits._
      edges
        .groupByKey(_.dst)
        .count()
        .filter(_._2 > cfg.reindexThreshold.toLong)
        .map(_._1)
        .collect()
        .toSet
    }
  }

  /** Every node's sampled in-edges, the same subset `Sampling.selectInEdges`
    * keeps in any round: in-edges are grouped by (dst, salt of src) for hubs
    * and (dst, 0) otherwise, and each group is sampled with (seed, dst, salt).
    * A hub therefore keeps at most `numSalts × cap` in-edges. The result is
    * persisted; callers unpersist it.
    */
  def sampledInEdges(edges: Dataset[GEdge], cfg: FlatConfig): Dataset[InEdge] = {
    import edges.sparkSession.implicits._
    val hubs = edges.sparkSession.sparkContext.broadcast(hubIds(edges, cfg))
    val FlatConfig(_, sampling, _, numSalts, seed) = cfg
    val out = edges
      .groupByKey(e => (e.dst, if (hubs.value.contains(e.dst)) Sampling.saltOf(e.src, numSalts) else 0))
      .flatMapGroups { (key: (Long, Int), it: Iterator[GEdge]) =>
        val (dst, salt) = key
        Sampling.selectGroup[GEdge](it.toArray.toSeq, _.src, _.weight.toDouble, sampling, seed, dst, salt)
          .iterator.zipWithIndex.map { case (e, rank) => InEdge(e, (salt.toLong << 32) | rank) }
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    out.count()
    out
  }

  /** Run the pipeline; returns every node's K-hop neighborhood. Restrict to
    * labeled targets downstream (Theorem 1 applies per target).
    */
  def run(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      cfg: FlatConfig
  ): Dataset[GraphFeature] = {
    import spark.implicits._
    val sampled = sampledInEdges(edges, cfg)

    // Map phase: seeds each node's self information.
    var state: Dataset[NodeState] =
      nodes.map(n => NodeState(n.id, Array(GNode(n.id, n.feat)), Array.empty[GEdge]))

    for (_ <- 1 to cfg.k) {
      val self = state.map(s => Msg(s.id, -1L, s, None))
      val msgs = state
        .joinWith(sampled, state.col("id") === sampled.col("edge.src"))
        .map { case (s, in) => Msg(in.edge.dst, in.order, s, Some(in.edge)) }
      val next = self
        .union(msgs)
        .groupByKey(_.dst)
        .mapGroups((dst, it) => merge(dst, it.toArray.sortBy(_.order)))
        .persist(StorageLevel.MEMORY_AND_DISK)
      next.count()
      state.unpersist()
      state = next
    }

    // Storing phase: materialize the flattened neighborhoods and release the
    // pipeline's working state — callers unpersist the returned Dataset when
    // done (leaked caches would otherwise pile up across pipeline runs).
    val out = state.map(s => GraphFeature(s.id, s.nodes, s.edges))
      .persist(StorageLevel.MEMORY_AND_DISK)
    out.count()
    state.unpersist()
    sampled.unpersist()
    out
  }

  /** Union of the messages' subgraphs plus each connecting edge, in message
    * order; the first occurrence of a node id or an edge (src, dst) wins.
    */
  private def merge(id: Long, msgs: Array[Msg]): NodeState = {
    val nodes = mutable.ArrayBuffer.empty[GNode]
    val edges = mutable.ArrayBuffer.empty[GEdge]
    val nodeIds = mutable.HashSet.empty[Long]
    val edgeKeys = mutable.HashSet.empty[(Long, Long)]
    msgs.foreach { m =>
      m.st.nodes.foreach(n => if (nodeIds.add(n.id)) nodes += n)
      (m.st.edges ++ m.via).foreach(e => if (edgeKeys.add((e.src, e.dst))) edges += e)
    }
    NodeState(id, nodes.toArray, edges.toArray)
  }

  /** Convenience: run GraphFlat and join labels for a given split, producing
    * the <TargetedNodeId, Label, GraphFeature> triples of §3.3.1, with the
    * GraphFeature flattened to its on-DFS string form.
    */
  def flatExamples(
      spark: SparkSession,
      graph: LocalGraph,
      cfg: FlatConfig,
      split: String
  ): Dataset[FlatExample] = {
    import spark.implicits._
    val nodes = graph.nodeDs(spark)
    val edges = graph.edgeDs(spark)
    val feats = run(spark, nodes, edges, cfg)
    val targets = nodes.filter(_.split == split).map(n => (n.id, n.label))
    val out = feats
      .joinWith(targets, feats.col("target") === targets.col("_1"))
      .map { case (gf, (id, label)) => FlatExample(id, label, GraphFeature.encode(gf)) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    out.count()
    feats.unpersist()
    out
  }
}
