package repro.core

import scala.reflect.ClassTag
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph._

/** The per-partition block rounds GraphFlat and GraphInfer share.
  *
  * Nodes are hash-partitioned on id into one block per partition. Set-up
  * caches, per partition, the initial state block of its nodes (ascending
  * id), the sampled in-edges into its nodes sorted by (dst, order), which is
  * the merge order of `GraphFlat.sampledInEdges`, and a route table: for
  * every other partition, the rows of this one it reads. A round ships each
  * routed row once to each partition that reads it, one packed block per
  * (source, destination) partition pair, as GraphX routes replicated
  * vertices; each partition then merges locally.
  *
  * Callers count the set-up and each round themselves, so that the call
  * site of each of those jobs names the caller's file.
  *
  * Shuffled values are case classes: Spark sends a pair RDD whose key and
  * value are both primitives or primitive arrays through Kryo, which needs
  * `java.nio` opened to it on JDK 17.
  */
private[core] object Blocks {

  /** One partition's state: rows for its nodes, ascending by id. */
  trait Block[B] {
    def ids: Array[Long]

    /** The rows `rows` of this block, packed to ship. */
    def select(rows: Array[Int]): B
  }

  /** `min(spark.sql.shuffle.partitions, defaultParallelism)`. */
  def defaultPartitions(spark: SparkSession): Int =
    math.min(spark.conf.get("spark.sql.shuffle.partitions").toInt, spark.sparkContext.defaultParallelism)

  /** A partition's sampled in-edges, sorted by (dst, order). */
  case class InEdges(edges: Array[GEdge])

  /** Rows of a source partition's block that partition `to` reads. */
  case class Route(to: Int, rows: Array[Int])

  /** A cached set-up; `init` is the first state of the rounds. */
  final class Setup[B <: Block[B]: ClassTag](
      val part: HashPartitioner,
      val init: RDD[B],
      val routes: RDD[Array[Route]],
      inEdges: RDD[InEdges]
  ) {

    /** One round, persisted but not yet counted: each partition ships its
      * routed rows, then merges its own block with its in-edges and the
      * blocks it received.
      */
    def round(state: RDD[B])(merge: (B, InEdges, Iterator[B]) => B): RDD[B] = {
      val received = state.zipPartitions(routes) { (bs, rs) =>
        val b = bs.next()
        rs.next().iterator.map(r => (r.to, b.select(r.rows)))
      }.partitionBy(part)
      state.zipPartitions(inEdges, received)((bs, es, in) => Iterator(merge(bs.next(), es.next(), in.map(_._2))))
        .persist(StorageLevel.MEMORY_AND_DISK)
    }

    /** Releases everything the set-up cached. */
    def unpersist(): Unit = Seq(init, inEdges, routes).foreach(_.unpersist())
  }

  /** Caches the set-up over `partitions` block partitions; `init` builds a
    * partition's first state from its nodes in ascending id order.
    */
  def setup[B <: Block[B]: ClassTag](
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      cfg: FlatConfig,
      partitions: Int
  )(init: Array[LabeledNode] => B): Setup[B] = {
    val part = new HashPartitioner(partitions)
    val state = nodes.rdd
      .map(n => (n.id, n))
      .partitionBy(part)
      .mapPartitions(it => Iterator(init(it.map(_._2).toArray.sortBy(_.id))))
      .persist(StorageLevel.MEMORY_AND_DISK)
    val inEdges = GraphFlat.sampledInEdges(edges, cfg).rdd
      .map(in => (in.edge.dst, in))
      .partitionBy(part)
      .mapPartitions { it =>
        Iterator(InEdges(it.map(_._2).toArray.sortBy(in => (in.edge.dst, in.order)).map(_.edge)))
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    // the sorted ids each partition reads from each other partition
    val wanted = inEdges.mapPartitionsWithIndex { (to, it) =>
      it.next().edges.map(_.src).distinct.filter(part.getPartition(_) != to).groupBy(part.getPartition).iterator
        .map { case (from, ids) => (from, (to, ids.sorted)) }
    }.partitionBy(part)
    val routes = state.zipPartitions(wanted) { (bs, ws) =>
      val own = bs.next().ids
      // a source missing from the node table has no row, so its messages are dropped
      Iterator(ws.map { case (_, (to, want)) =>
        Route(to, want.map(java.util.Arrays.binarySearch(own, _)).filter(_ >= 0))
      }.toArray)
    }.persist(StorageLevel.MEMORY_AND_DISK)
    new Setup(part, state, routes, inEdges)
  }

  /** A merge found an in-edge from a node into an id outside the node table. */
  def lostSelf(e: GEdge): Nothing =
    throw new IllegalStateException(
      s"node ${e.dst} lost its self message: edge ${e.src} -> ${e.dst} points outside the node table")
}
