package repro.core

import scala.collection.mutable
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, Encoder, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph._

/** Configuration of the GraphFlat pipeline (and of GraphInfer, which must
  * process data identically — §3.4).
  *
  * @param k                 number of hops / Reduce rounds
  * @param sampling          in-edge sampling strategy (per node)
  * @param reindexThreshold  in-degree above which [[GraphFlat.hubIds]] reports
  *                          a node as a hub; it changes neither the output
  *                          nor the work, since re-indexing is the sampler's
  *                          map-side combine (see [[Sampling]])
  * @param numSalts          no longer used: it changes neither the output nor
  *                          the work
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
  * as Spark shuffles instead of raw Hadoop MapReduce.
  *
  * The sampler does not depend on the round, so it runs once per call, in
  * the set-up of [[Blocks]], whose map-side combine keeps any reducer from
  * seeing a hub's whole in-degree (re-indexing, see [[Sampling]]). The K
  * rounds ("Reduce phase") then only follow the sample: a block is
  * the self information (the accumulated subgraph) of one partition's nodes,
  * held as node ids plus edges, and the features of every node id in it.
  *   - every partition ships the states of the nodes another partition reads
  *     in one packed block, with the features of each distinct node id in it
  *     once ("propagation");
  *   - every partition merges, for each of its nodes, the node's previous
  *     state first, then the state of each sampled in-edge's source plus the
  *     edge, in ascending (src, −weight) ("merging").
  * Set-up and each round end with one `count`, and the call with one more.
  *
  * After K rounds, each node's self information *is* its K-hop neighborhood;
  * the storing phase attaches the features and flattens it to a GraphFeature
  * (and optionally an encoded string).
  */
object GraphFlat {

  /** The states of some nodes: node `ids(i)` has gathered the node ids
    * `nodes(i)` and the edges `edges(i)`, each in merge order. `feats` holds
    * one `GNode` per distinct id in `nodes`, ascending by id.
    */
  private case class Subgraphs(ids: Array[Long], nodes: Array[Array[Long]], edges: Array[Array[GEdge]], feats: Array[GNode])
      extends Blocks.Block[Subgraphs] {

    /** The states of `rows`, with the features of each distinct node id in them once. */
    def select(rows: Array[Int]): Subgraphs = {
      val ns = rows.map(nodes)
      val want = mutable.LongMap.empty[Unit]
      ns.foreach(_.foreach(want(_) = ()))
      Subgraphs(rows.map(ids), ns, rows.map(edges), feats.filter(f => want.contains(f.id)))
    }

    /** The storing phase: row `i` as a GraphFeature. */
    def features: Int => GraphFeature = {
      val featOf = mutable.LongMap.from(feats.iterator.map(f => f.id -> f))
      i => GraphFeature(ids(i), nodes(i).map(featOf), edges(i))
    }
  }

  /** Ids of nodes whose in-degree exceeds the re-indexing threshold: a
    * report of the graph's skew, off the call path of [[run]].
    */
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

  /** Run the pipeline; returns every node's K-hop neighborhood. Restrict to
    * labeled targets downstream (Theorem 1 applies per target). Callers
    * unpersist the returned Dataset when done.
    */
  def run(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      cfg: FlatConfig
  ): Dataset[GraphFeature] = runAt(Blocks.defaultPartitions(spark), spark, nodes, edges, cfg)

  /** [[run]] over `partitions` block partitions. */
  private[core] def runAt(
      partitions: Int,
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      cfg: FlatConfig
  ): Dataset[GraphFeature] = {
    import spark.implicits._
    withRounds(spark, nodes, edges, cfg, partitions) { (state, _) =>
      state.flatMap { b =>
        val gf = b.features
        b.ids.indices.iterator.map(gf)
      }
    }
  }

  /** Runs the K rounds, then persists and counts `out` of the last state
    * (given the block partitioner) and releases everything else the call
    * cached.
    */
  private def withRounds[T: Encoder](
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      cfg: FlatConfig,
      partitions: Int
  )(out: (RDD[Subgraphs], HashPartitioner) => RDD[T]): Dataset[T] = {
    // Map phase: seeds each node's self information.
    val setup = Blocks.setup(nodes, edges, cfg, partitions)(
      ns => Subgraphs(ns.map(_.id), ns.map(n => Array(n.id)), ns.map(_ => Array.empty[GEdge]), ns.map(n => GNode(n.id, n.feat))))
    setup.routes.count() // set-up ends here, so each round's action times the round alone

    var state = setup.init
    for (_ <- 1 to cfg.k) {
      val next = setup.round(state)(merge)
      next.count()
      state.unpersist()
      state = next
    }

    // Storing phase: materialize the result and release the pipeline's
    // working state (leaked caches would otherwise pile up across runs).
    val res = spark.createDataset(out(state, setup.part)).persist(StorageLevel.MEMORY_AND_DISK)
    res.count()
    state.unpersist()
    setup.unpersist()
    res
  }

  /** One round on one partition. Each node's new state is the union of its
    * own state, then each sampled in-edge's source state plus the edge, in
    * merge order; the first occurrence of a node id or an edge (src, dst)
    * wins. A source that is not a node sends nothing.
    */
  private def merge(own: Subgraphs, in: Blocks.InEdges, received: Iterator[Subgraphs]): Subgraphs = {
    val blocks = own +: received.toArray
    val at = mutable.LongMap.empty[Long] // node id -> (block << 32) | row
    for ((b, bi) <- blocks.zipWithIndex; r <- b.ids.indices) at(b.ids(r)) = (bi.toLong << 32) | r
    val nodes = own.nodes.clone()
    val edges = own.edges.clone()
    val es = in.edges
    var e = 0
    while (e < es.length) {
      val dst = es(e).dst
      var end = e
      while (end < es.length && es(end).dst == dst) end += 1
      val i = java.util.Arrays.binarySearch(own.ids, dst)
      if (i < 0) (e until end).find(j => at.contains(es(j).src)).foreach(j => Blocks.lostSelf(es(j)))
      else {
        val ns = mutable.ArrayBuilder.make[Long]
        val eb = mutable.ArrayBuilder.make[GEdge]
        val nodeIds = mutable.LongMap.empty[Unit]
        val edgeKeys = mutable.HashSet.empty[(Long, Long)]
        def addEdge(x: GEdge): Unit = if (edgeKeys.add((x.src, x.dst))) eb += x
        def add(b: Subgraphs, r: Int): Unit = {
          b.nodes(r).foreach(v => if (!nodeIds.contains(v)) { nodeIds(v) = (); ns += v })
          b.edges(r).foreach(addEdge)
        }
        add(own, i)
        (e until end).foreach { j =>
          at.get(es(j).src).foreach { loc => add(blocks((loc >>> 32).toInt), loc.toInt); addEdge(es(j)) }
        }
        nodes(i) = ns.result()
        edges(i) = eb.result()
      }
      e = end
    }
    Subgraphs(own.ids, nodes, edges, blocks.flatMap(_.feats).distinctBy(_.id).sortBy(_.id))
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
  ): Dataset[FlatExample] = examplesAt(Blocks.defaultPartitions(spark), spark, graph, cfg, split)

  /** [[flatExamples]] over `partitions` block partitions. */
  private[core] def examplesAt(
      partitions: Int,
      spark: SparkSession,
      graph: LocalGraph,
      cfg: FlatConfig,
      split: String
  ): Dataset[FlatExample] = {
    import spark.implicits._
    val nodes = graph.nodeDs(spark)
    withRounds(spark, nodes, graph.edgeDs(spark), cfg, partitions) { (state, part) =>
      // the split's targets, partitioned as the blocks are
      val targets = nodes.filter(_.split == split).rdd.map(n => (n.id, n)).partitionBy(part)
      state.zipPartitions(targets) { (bs, ts) =>
        val b = bs.next()
        val gf = b.features
        ts.map { case (id, n) =>
          FlatExample(id, n.label, GraphFeature.encode(gf(java.util.Arrays.binarySearch(b.ids, id))))
        }
      }
    }
  }
}
