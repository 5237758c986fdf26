package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.Dataset
import repro.SparkSpec
import repro.graph._
import CoreTestUtil._

class GraphFlatSpec extends SparkSpec {

  test("1-hop neighborhood of a chain collects direct in-edges only") {
    // 1→2→3: info flows 1⇒2⇒3
    val g = toyGraph(3, Seq((1L, 2L), (2L, 3L)))
    val m = flatMap(spark, g, FlatConfig(1))
    assert(nodeIds(m(3)) == Set(3L, 2L))
    assert(edgePairs(m(3)) == Set((2L, 3L)))
    assert(nodeIds(m(1)) == Set(1L)) // no in-edges
    assert(edgePairs(m(1)).isEmpty)
  }

  test("2-hop neighborhood of a chain reaches the head") {
    val g = toyGraph(3, Seq((1L, 2L), (2L, 3L)))
    val m = flatMap(spark, g, FlatConfig(2))
    assert(nodeIds(m(3)) == Set(1L, 2L, 3L))
    assert(edgePairs(m(3)) == Set((1L, 2L), (2L, 3L)))
    assert(nodeIds(m(2)) == Set(1L, 2L))
  }

  test("k larger than the graph diameter saturates") {
    val g = toyGraph(3, Seq((1L, 2L), (2L, 3L)))
    val m = flatMap(spark, g, FlatConfig(4))
    assert(nodeIds(m(3)) == Set(1L, 2L, 3L))
    assert(edgePairs(m(3)) == Set((1L, 2L), (2L, 3L)))
  }

  test("diamond 2-hop neighborhood is the full diamond") {
    val g = toyGraph(4, Seq((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L)))
    val m = flatMap(spark, g, FlatConfig(2))
    assert(nodeIds(m(4)) == Set(1L, 2L, 3L, 4L))
    assert(edgePairs(m(4)) == Set((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L)))
  }

  test("direction matters: out-edges do not contribute to the neighborhood") {
    val g = toyGraph(3, Seq((1L, 2L), (3L, 2L))) // 2 has two in-edges, no out
    val m = flatMap(spark, g, FlatConfig(2))
    assert(nodeIds(m(2)) == Set(1L, 2L, 3L))
    assert(nodeIds(m(1)) == Set(1L))
    assert(nodeIds(m(3)) == Set(3L))
  }

  test("cycle neighborhoods wrap correctly") {
    val g = toyGraph(3, Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    val m2 = flatMap(spark, g, FlatConfig(2))
    assert(nodeIds(m2(1)) == Set(1L, 2L, 3L))
    // edges with destination within 1 hop of node 1: (2→3) d(3)=1, (3→1) d(1)=0
    assert(edgePairs(m2(1)) == Set((2L, 3L), (3L, 1L)))
    val m3 = flatMap(spark, g, FlatConfig(3))
    assert(edgePairs(m3(1)) == Set((1L, 2L), (2L, 3L), (3L, 1L)))
  }

  test("edges between two 1-hop nodes are captured (induced in-flow edges)") {
    // 2→3 both point at 4; also 2→3 edge: dst 3 at distance 1 from 4 → included at k=2
    val g = toyGraph(4, Seq((2L, 4L), (3L, 4L), (2L, 3L)))
    val m = flatMap(spark, g, FlatConfig(2))
    assert(edgePairs(m(4)) == Set((2L, 4L), (3L, 4L), (2L, 3L)))
  }

  test("GraphFeatures carry node features and edge weights") {
    val g = toyGraph(2, Seq((1L, 2L, 0.7f)))
    val m = flatMap(spark, g, FlatConfig(1))
    val gf = m(2)
    assert(gf.nodes.find(_.id == 1L).get.feat.toSeq == Seq(1.0f))
    assert(gf.edges.head.weight == 0.7f)
    assert(gf.edges.head.feat.toSeq == Seq(0.7f))
  }

  test("uniform sampling caps per-node in-edges") {
    val star = toyGraph(11, (1L to 10L).map(i => (i, 11L)))
    val m = flatMap(spark, star, FlatConfig(1, UniformSampling(3), seed = 9))
    assert(m(11L).edges.length == 3)
    assert(m(11L).nodes.length == 4) // target + 3 sampled
  }

  test("sampling is deterministic across runs") {
    val star = toyGraph(11, (1L to 10L).map(i => (i, 11L)))
    val a = flatMap(spark, star, FlatConfig(2, UniformSampling(3), seed = 9))
    val b = flatMap(spark, star, FlatConfig(2, UniformSampling(3), seed = 9))
    assert(a(11L).edges.map(e => (e.src, e.dst)).toSet == b(11L).edges.map(e => (e.src, e.dst)).toSet)
  }

  test("multi-round sampling re-selects the same subset (neighborhood stays capped)") {
    val star = toyGraph(11, (1L to 10L).map(i => (i, 11L)))
    val m1 = flatMap(spark, star, FlatConfig(1, UniformSampling(3), seed = 9))
    val m3 = flatMap(spark, star, FlatConfig(3, UniformSampling(3), seed = 9))
    assert(edgePairs(m1(11L)) == edgePairs(m3(11L)))
  }

  test("topk sampling keeps heaviest in-edges") {
    val g = toyGraph(5, Seq((1L, 5L, 0.1f), (2L, 5L, 0.9f), (3L, 5L, 0.5f), (4L, 5L, 0.8f)))
    val m = flatMap(spark, g, FlatConfig(1, TopKSampling(2), seed = 1))
    assert(edgePairs(m(5L)) == Set((2L, 5L), (4L, 5L)))
  }

  test("re-indexing (salted hubs) with NoSampling equals the plain pipeline") {
    val g = GraphGen.uugLite(n = 150)
    val plain = flatMap(spark, g, FlatConfig(2, NoSampling))
    val salted = flatMap(spark, g, FlatConfig(2, NoSampling, reindexThreshold = 3, numSalts = 4))
    assert(plain.keySet == salted.keySet)
    plain.keys.foreach { id =>
      assert(nodeIds(plain(id)) == nodeIds(salted(id)), s"node set mismatch for $id")
      assert(edgePairs(plain(id)) == edgePairs(salted(id)), s"edge set mismatch for $id")
    }
  }

  test("re-indexing with sampling is deterministic and respects the per-salt cap") {
    val star = toyGraph(41, (1L to 40L).map(i => (i, 41L)))
    val cfg = FlatConfig(1, UniformSampling(3), reindexThreshold = 10, numSalts = 4, seed = 3)
    val a = flatMap(spark, star, cfg)
    val b = flatMap(spark, star, cfg)
    assert(edgePairs(a(41L)) == edgePairs(b(41L)))
    assert(a(41L).edges.length == 3)
  }

  test("hub detection finds exactly the high in-degree nodes") {
    val star = toyGraph(11, (1L to 10L).map(i => (i, 11L)) :+ (11L, 1L))
    val hubs = GraphFlat.hubIds(star.edgeDs(spark), FlatConfig(1, reindexThreshold = 5))
    assert(hubs == Set(11L))
    assert(GraphFlat.hubIds(star.edgeDs(spark), FlatConfig(1)).isEmpty)
  }

  test("flatExamples joins labels for the requested split") {
    val g = GraphGen.uugLite(n = 120)
    val fes = GraphFlat.flatExamples(spark, g, FlatConfig(2, UniformSampling(5), seed = 2), "train")
      .collect()
    val trainIds = g.split("train").map(_.id).toSet
    assert(fes.map(_.target).toSet == trainIds)
    val labelOf = g.nodes.map(n => n.id -> n.label(0)).toMap
    fes.foreach { fe =>
      assert(fe.label.toSeq == Seq(labelOf(fe.target)))
      val ex = fe.decoded
      assert(ex.gf.target == fe.target)
      assert(ex.gf.nodes.exists(_.id == fe.target))
    }
  }

  test("every GraphFeature is self-contained (edges reference contained nodes)") {
    val g = GraphGen.uugLite(n = 200)
    val m = flatMap(spark, g, FlatConfig(2, UniformSampling(5), reindexThreshold = 50, numSalts = 4, seed = 7))
    m.values.foreach { gf =>
      val ids = nodeIds(gf)
      gf.edges.foreach(e => assert(ids(e.src) && ids(e.dst), s"dangling edge in ${gf.target}"))
      assert(ids(gf.target))
    }
  }

  test("isolated nodes keep a GraphFeature of themselves alone") {
    val g = toyGraph(4, Seq((1L, 2L)))
    val m = flatMap(spark, g, FlatConfig(2, UniformSampling(1), seed = 4))
    Seq(3L, 4L).foreach { id =>
      assert(m(id).nodes.toSeq == Seq(GNode(id, Array(id.toFloat))))
      assert(m(id).edges.isEmpty)
    }
    assert(edgePairs(m(2L)) == Set((1L, 2L)))
  }

  test("an empty edge Dataset gives every node a one-node GraphFeature") {
    import spark.implicits._
    val g = toyGraph(3, Seq.empty[(Long, Long)])
    val cfg = FlatConfig(2, UniformSampling(2), reindexThreshold = 1, numSalts = 4, seed = 1)
    val m = GraphFlat.run(spark, g.nodeDs(spark), spark.emptyDataset[GEdge], cfg)
      .collect().map(gf => gf.target -> gf).toMap
    assert(m.keySet == Set(1L, 2L, 3L))
    m.values.foreach(gf => assert(nodeIds(gf) == Set(gf.target) && gf.edges.isEmpty))
  }

  test("with sampling on, k larger than the diameter gives the same arrays as k = diameter") {
    // leaves 1..6 point at hub 7, and 7 points at 8: diameter 2
    val g = toyGraph(8, (1L to 6L).map(i => (i, 7L)) :+ ((7L, 8L)))
    val cfg = FlatConfig(2, UniformSampling(2), reindexThreshold = 3, numSalts = 2, seed = 6)
    val m2 = flatMap(spark, g, cfg)
    val m5 = flatMap(spark, g, cfg.copy(k = 5))
    m2.keys.foreach { id =>
      assert(m2(id).nodes.toSeq == m5(id).nodes.toSeq, s"nodes of $id")
      assert(m2(id).edges.toSeq == m5(id).edges.toSeq, s"edges of $id")
    }
    assert(m2(8L).edges.length <= 2 * 2 + 1)
  }

  test("GraphFlat fails when an edge's destination is not a node") {
    val g = toyGraph(3, Seq((1L, 2L), (2L, 99L), (99L, 3L)))
    val e = intercept[SparkException](flatMap(spark, g, FlatConfig(2)))
    assert(e.getMessage.contains("node 99 lost its self message"))
  }

  test("an edge whose source is not a node is dropped") {
    val g = toyGraph(3, Seq((9L, 2L), (1L, 2L), (2L, 3L), (9L, 3L)))
    val m = flatMap(spark, g, FlatConfig(2))
    assert(m.keySet == Set(1L, 2L, 3L))
    assert(m(2L).nodes.map(_.id).toSeq == Seq(2L, 1L))
    assert(edgePairs(m(2L)) == Set((1L, 2L)))
    assert(m(3L).nodes.map(_.id).toSeq == Seq(3L, 2L, 1L))
    assert(edgePairs(m(3L)) == Set((1L, 2L), (2L, 3L)))
  }

  /** A GraphFeature per target, as comparable arrays. */
  private def arrays(gfs: Iterable[GraphFeature]): Map[Long, (Seq[GNode], Seq[GEdge])] =
    gfs.map(gf => gf.target -> (gf.nodes.toSeq, gf.edges.toSeq)).toMap

  private lazy val hubGraph = GraphGen.uugLite(n = 300, seed = 4)
  private val hubCfg = FlatConfig(2, UniformSampling(4), reindexThreshold = 12, numSalts = 4, seed = 13)

  test("GraphFlat output is array-equal at 1, 7 and 64 partitions, coalescing on/off") {
    // the sampler shuffles with the same partition count; at 64 some blocks are empty
    def run(partitions: Int, coalesce: Boolean) = withConf(
        "spark.sql.shuffle.partitions" -> partitions.toString,
        "spark.sql.adaptive.coalescePartitions.enabled" -> coalesce.toString) {
      val ds = GraphFlat.runAt(partitions, spark, hubGraph.nodeDs(spark), hubGraph.edgeDs(spark), hubCfg)
      try arrays(ds.collect()) finally ds.unpersist()
    }
    val one = run(1, coalesce = false)
    assert(one.size == hubGraph.nodes.length)
    for (partitions <- Seq(1, 7, 64); coalesce <- Seq(false, true))
      assert(run(partitions, coalesce) == one, s"$partitions partitions, coalescing $coalesce")
  }

  test("flatExamples decodes to GraphFlat.run restricted to the split, at 1, 7 and 64 partitions") {
    val all = arrays(flatMap(spark, hubGraph, hubCfg).values)
    val labelOf = hubGraph.nodes.map(n => n.id -> n.label.toSeq).toMap
    val trainIds = hubGraph.split("train").map(_.id).toSet
    for (partitions <- Seq(1, 7, 64)) {
      val ds = GraphFlat.examplesAt(partitions, spark, hubGraph, hubCfg, "train")
      val fes = try ds.collect() finally ds.unpersist()
      assert(fes.map(_.target).sorted.toSeq == trainIds.toSeq.sorted, s"$partitions partitions")
      fes.foreach(fe => assert(fe.label.toSeq == labelOf(fe.target)))
      assert(arrays(fes.map(_.decoded.gf)) == all.filter { case (id, _) => trainIds(id) }, s"$partitions partitions")
    }
  }

  test("GraphFlat output is array-equal for every numSalts and reindexThreshold") {
    // leaves 1..30 point at hubs 31 and 32, and the hubs at each other and at 33
    val edges = (1L to 30L).flatMap(i => Seq((i, 31L, 1f + i % 3), (i, 32L, 0.5f))) ++
      Seq((31L, 32L, 2f), (32L, 31L, 2f), (31L, 33L, 1f), (32L, 33L, 1f))
    val g = toyGraph(33, edges)
    for (sampling <- Seq(UniformSampling(3), WeightedSampling(3))) {
      val one = arrays(flatMap(spark, g, FlatConfig(2, sampling, seed = 8)).values)
      assert(one(31L)._2.count(_.dst == 31L) == 3 && one(32L)._2.count(_.dst == 32L) == 3)
      for (numSalts <- Seq(1, 4, 16); threshold <- Seq(0, 5, Int.MaxValue)) {
        val cfg = FlatConfig(2, sampling, reindexThreshold = threshold, numSalts = numSalts, seed = 8)
        assert(arrays(flatMap(spark, g, cfg).values) == one, cfg.toString)
      }
    }
  }

  test("GraphFlat.run and flatExamples leave only their result cached") {
    val g = GraphGen.uugLite(n = 150)
    val cfg = FlatConfig(2, UniformSampling(4), reindexThreshold = 10, numSalts = 4, seed = 1)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val calls = Seq[() => Dataset[_]](
      () => GraphFlat.run(spark, g.nodeDs(spark), g.edgeDs(spark), cfg),
      () => GraphFlat.flatExamples(spark, g, cfg, "train"))
    for (call <- calls) {
      val ds = call()
      assert((sc.getPersistentRDDs.keySet -- before).size == 1)
      ds.unpersist(blocking = true)
      assert(sc.getPersistentRDDs.keySet == before)
    }
  }
}
