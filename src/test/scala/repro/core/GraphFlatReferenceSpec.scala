package repro.core

import repro.SparkSpec
import repro.graph._

/** GraphFlat against a plain-Scala reference: K rounds of the K-hop closure
  * on the driver, each node keeping the `cap` in-edges of smallest
  * (`SamplingStrategy.key`, src, −weight) out of all its in-edges and
  * merging its own state first, then each sampled in-neighbor's state plus
  * the connecting edge, in ascending (src, −weight) (first occurrence of a
  * node id or an edge (src, dst) wins). GraphFlat must produce the same
  * arrays, not only the same sets, so that training sees the same input
  * order on every run.
  */
class GraphFlatReferenceSpec extends SparkSpec {

  private lazy val g = GraphGen.uugLite(n = 300, seed = 4)
  private val threshold = 12

  private def reference(g: LocalGraph, cfg: FlatConfig): Map[Long, GraphFeature] = {
    val FlatConfig(_, sampling, _, _, seed) = cfg
    val sampled = g.edges.toSeq.groupBy(_.dst).map { case (dst, es) =>
      dst -> es.sortBy(e => (sampling.key(seed, dst, e.src, e.weight), e.src, -e.weight))
        .take(sampling.cap)
        .sortBy(e => (e.src, -e.weight))
    }
    var state = g.nodes.map(n => n.id -> GraphFeature(n.id, Array(GNode(n.id, n.feat)), Array.empty)).toMap
    for (_ <- 1 to cfg.k) {
      state = state.map { case (id, self) =>
        val parts = self +: sampled.getOrElse(id, Nil).map { e =>
          val s = state(e.src)
          GraphFeature(id, s.nodes, s.edges :+ e)
        }
        id -> GraphFeature(id,
          parts.flatMap(_.nodes).distinctBy(_.id).toArray,
          parts.flatMap(_.edges).distinctBy(e => (e.src, e.dst)).toArray)
      }
    }
    state
  }

  private def assertArrayEqual(a: Map[Long, GraphFeature], b: Map[Long, GraphFeature], what: String): Unit = {
    assert(a.keySet == b.keySet, what)
    a.keys.foreach { id =>
      assert(a(id).nodes.toSeq == b(id).nodes.toSeq, s"$what: node arrays differ for $id")
      assert(a(id).edges.toSeq == b(id).edges.toSeq, s"$what: edge arrays differ for $id")
    }
  }

  test("the test graph has hubs above the re-indexing threshold") {
    assert(GraphFlat.hubIds(g.edgeDs(spark), FlatConfig(1, reindexThreshold = threshold)).size >= 3)
  }

  for (
    sampling <- Seq(NoSampling, UniformSampling(4), WeightedSampling(4), TopKSampling(4));
    k <- 1 to 3
  ) {
    test(s"GraphFlat equals the driver-side K-hop closure array for array ($sampling, k=$k)") {
      val cfg = FlatConfig(k, sampling, reindexThreshold = threshold, numSalts = 4, seed = 13)
      assertArrayEqual(CoreTestUtil.flatMap(spark, g, cfg), reference(g, cfg), cfg.toString)
    }
  }

  test("two runs with hubs and sampling give identical arrays") {
    val cfg = FlatConfig(2, UniformSampling(3), reindexThreshold = threshold, numSalts = 4, seed = 2)
    assertArrayEqual(CoreTestUtil.flatMap(spark, g, cfg), CoreTestUtil.flatMap(spark, g, cfg), "rerun")
  }
}
