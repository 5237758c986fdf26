package repro.graph

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.collection.mutable
import scala.util.Random

/** A labeled node: feature vector, label vector (empty = unlabeled), and the
  * split ("train" | "val" | "test" | "none").
  */
case class LabeledNode(id: Long, feat: Array[Float], label: Array[Float], split: String)

/** A full synthetic attributed graph, generated deterministically on the
  * driver (see DESIGN §2: these stand in for Cora / PPI / the proprietary
  * Alipay UUG graph) and lifted to Datasets for the distributed pipelines.
  */
case class LocalGraph(
    name: String,
    nodes: Array[LabeledNode],
    edges: Array[GEdge],
    numClasses: Int,
    task: String
) {
  def nodeDs(spark: SparkSession): Dataset[LabeledNode] = {
    import spark.implicits._
    spark.createDataset(nodes.toIndexedSeq)
  }
  def edgeDs(spark: SparkSession): Dataset[GEdge] = {
    import spark.implicits._
    spark.createDataset(edges.toIndexedSeq)
  }
  def split(s: String): Array[LabeledNode] = nodes.filter(_.split == s)
  def featDim: Int = nodes.head.feat.length
}

/** Synthetic attributed-graph generators: the Cora, PPI and UUG stand-ins.
  * All are deterministic in their seed.
  */
object GraphGen {

  /** Cora-lite: homophilous SBM citation graph, multiclass node labels.
    * Defaults mirror Cora's shape (2708 nodes, 7 classes, splits
    * 140/500/1000) with 64-d class-centroid features instead of 1433-d
    * bag-of-words (documented substitution).
    */
  def coraLite(
      n: Int = 2708,
      numClasses: Int = 7,
      featDim: Int = 64,
      undirectedEdges: Int = 5429,
      homophily: Double = 0.9,
      centroidScale: Double = 0.5,
      noiseSigma: Double = 2.2,
      trainPerClass: Int = 20,
      nVal: Int = 500,
      nTest: Int = 1000,
      seed: Long = 7
  ): LocalGraph = {
    val rng = new Random(seed)
    val cls = Array.fill(n)(rng.nextInt(numClasses))
    val centroids = Array.fill(numClasses, featDim)(rng.nextGaussian() * centroidScale)
    val byClass = Array.tabulate(numClasses)(c => (0 until n).filter(cls(_) == c).toArray)
    val nodesRaw = Array.tabulate(n) { i =>
      val f = Array.tabulate(featDim)(d =>
        (centroids(cls(i))(d) + noiseSigma * rng.nextGaussian()).toFloat)
      val label = Array.tabulate(numClasses)(c => if (c == cls(i)) 1.0f else 0.0f)
      (i.toLong, f, label)
    }
    val seen = mutable.HashSet.empty[(Int, Int)]
    val edges = mutable.ArrayBuffer.empty[GEdge]
    var made = 0
    var guard = 0
    while (made < undirectedEdges && guard < undirectedEdges * 50) {
      guard += 1
      val a = rng.nextInt(n)
      val bPool = if (rng.nextDouble() < homophily) byClass(cls(a)) else null
      val b = if (bPool != null) bPool(rng.nextInt(bPool.length)) else rng.nextInt(n)
      if (a != b && !seen((math.min(a, b), math.max(a, b)))) {
        seen += ((math.min(a, b), math.max(a, b)))
        edges += GEdge(a, b, 1.0f, Array(1.0f))
        edges += GEdge(b, a, 1.0f, Array(1.0f))
        made += 1
      }
    }
    // splits: per-class train, then val/test from the shuffled remainder
    val split = Array.fill(n)("none")
    for (c <- 0 until numClasses) {
      val shuffled = rng.shuffle(byClass(c).toList)
      shuffled.take(trainPerClass).foreach(split(_) = "train")
    }
    val rest = rng.shuffle((0 until n).filter(split(_) == "none").toList)
    rest.take(nVal).foreach(split(_) = "val")
    rest.slice(nVal, nVal + nTest).foreach(split(_) = "test")
    val nodes = nodesRaw.map { case (id, f, l) => LabeledNode(id, f, l, split(id.toInt)) }
    LocalGraph("cora-lite", nodes, edges.toArray, numClasses, "softmax")
  }

  /** PPI-lite: `nGraphs` disjoint random graphs; multilabel targets from a
    * linear rule over self + neighbor-mean features, so labels genuinely
    * depend on the neighborhood (a GNN beats an MLP). Splits are per graph
    * (20/2/2 at nGraphs=24), as in PPI.
    */
  def ppiLite(
      nGraphs: Int = 24,
      nodesPerGraph: Int = 200,
      featDim: Int = 50,
      numLabels: Int = 16,
      avgDegree: Double = 14,
      seed: Long = 11
  ): LocalGraph = {
    val rng = new Random(seed)
    val n = nGraphs * nodesPerGraph
    val feats = Array.fill(n)(Array.fill(featDim)(rng.nextGaussian().toFloat))
    val wLab = Array.fill(numLabels)(Array.fill(2 * featDim)(rng.nextGaussian() / math.sqrt(2.0 * featDim)))
    val edges = mutable.ArrayBuffer.empty[GEdge]
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val nUndirPerGraph = (avgDegree * nodesPerGraph / 2).toInt
    for (g <- 0 until nGraphs) {
      val off = g * nodesPerGraph
      val seen = mutable.HashSet.empty[(Int, Int)]
      var made = 0
      var guard = 0
      while (made < nUndirPerGraph && guard < nUndirPerGraph * 50) {
        guard += 1
        val a = off + rng.nextInt(nodesPerGraph)
        val b = off + rng.nextInt(nodesPerGraph)
        if (a != b && !seen((math.min(a, b), math.max(a, b)))) {
          seen += ((math.min(a, b), math.max(a, b)))
          edges += GEdge(a, b, 1.0f, Array(1.0f))
          edges += GEdge(b, a, 1.0f, Array(1.0f))
          adj(a) += b; adj(b) += a
          made += 1
        }
      }
    }
    val nodes = Array.tabulate(n) { i =>
      val nbMean = new Array[Double](featDim)
      if (adj(i).nonEmpty) {
        adj(i).foreach { j => var d = 0; while (d < featDim) { nbMean(d) += feats(j)(d); d += 1 } }
        var d = 0
        while (d < featDim) { nbMean(d) /= adj(i).length; d += 1 }
      }
      val label = Array.tabulate(numLabels) { l =>
        var s = 0.0
        var d = 0
        while (d < featDim) {
          s += wLab(l)(d) * feats(i)(d) + wLab(l)(featDim + d) * nbMean(d); d += 1
        }
        if (s > 0) 1.0f else 0.0f
      }
      val g = i / nodesPerGraph
      val split =
        if (g < nGraphs - 4) "train" else if (g < nGraphs - 2) "val" else "test"
      LabeledNode(i, feats(i), label, split)
    }
    LocalGraph("ppi-lite", nodes, edges.toArray, numLabels, "bce")
  }

  /** UUG-lite: power-law social graph standing in for Alipay's proprietary
    * User-User Graph. Binary labels; "reliable" nodes (25%) carry a strong
    * class signal in their features and a visible reliability flag, others
    * carry noise — attention (GAT) can exploit the flag, plain mean
    * aggregation (GCN) cannot, reproducing the paper's GAT-wins-on-UUG shape.
    * Noise edges target zipf-distributed destinations, creating the in-degree
    * "hub" skew that GraphFlat's re-indexing + sampling must handle.
    */
  def uugLite(
      n: Int = 2000,
      featDim: Int = 32,
      avgSocialDeg: Double = 6,
      noiseEdgeFrac: Double = 0.6,
      homophily: Double = 0.9,
      reliableFrac: Double = 0.25,
      labeledFrac: Double = 0.5,
      zipfAlpha: Double = 1.05,
      seed: Long = 23
  ): LocalGraph = {
    val rng = new Random(seed)
    val y = Array.fill(n)(if (rng.nextBoolean()) 1 else 0)
    val reliable = Array.fill(n)(rng.nextDouble() < reliableFrac)
    val sigDims = 8
    // Reliable nodes broadcast their true class in the signal dims; the rest
    // broadcast a *confidently random* sign. Mean aggregation (GCN) cannot
    // tell them apart — averaging mixes in strong wrong signals — while
    // attention (GAT) can key on the visible reliability flag in f(0).
    // This reproduces the paper's "neighbors play different roles" account
    // of GAT's large win on UUG (§4.2.1).
    val nodesRaw = Array.tabulate(n) { i =>
      val f = new Array[Float](featDim)
      f(0) = if (reliable(i)) 1.0f else 0.0f
      val trueSgn = if (y(i) == 1) 1.0 else -1.0
      val sgn = if (reliable(i)) trueSgn else (if (rng.nextBoolean()) 1.0 else -1.0)
      var d = 0
      while (d < sigDims) {
        f(1 + d) = (sgn * 1.5 + rng.nextGaussian() * 0.6).toFloat
        d += 1
      }
      d = 1 + sigDims
      while (d < featDim) { f(d) = rng.nextGaussian().toFloat; d += 1 }
      f
    }
    val byClass = Array.tabulate(2)(c => (0 until n).filter(y(_) == c).toArray)
    val edges = mutable.ArrayBuffer.empty[GEdge]
    val nSocial = (n * avgSocialDeg / 2).toInt
    var i = 0
    while (i < nSocial) {
      val a = rng.nextInt(n)
      val pool = if (rng.nextDouble() < homophily) byClass(y(a)) else null
      val b = if (pool != null) pool(rng.nextInt(pool.length)) else rng.nextInt(n)
      if (a != b) {
        edges += GEdge(a, b, 1.0f, Array(1.0f, 0.0f))
        edges += GEdge(b, a, 1.0f, Array(1.0f, 0.0f))
      }
      i += 1
    }
    // zipf-destination noise edges: hubs = low node ids
    val zipfNorm = (1L to math.min(n.toLong, 10000L)).map(k => 1.0 / math.pow(k, zipfAlpha)).sum
    val nNoise = (n * avgSocialDeg * noiseEdgeFrac).toInt
    i = 0
    while (i < nNoise) {
      val src = rng.nextInt(n)
      val u = rng.nextDouble()
      val dst = math.min(n.toLong, math.max(1L,
        math.pow(1.0 / (u * zipfNorm + 1e-9), 1.0 / zipfAlpha).toLong)).toInt - 1
      if (src != dst) edges += GEdge(src, dst, 0.2f, Array(0.0f, 1.0f))
      i += 1
    }
    // dedup directed edges (keep first occurrence)
    val dedup = mutable.LinkedHashMap.empty[(Long, Long), GEdge]
    edges.foreach(e => if (!dedup.contains((e.src, e.dst))) dedup((e.src, e.dst)) = e)
    val split = Array.fill(n)("none")
    val labeled = rng.shuffle((0 until n).toList).take((n * labeledFrac).toInt)
    labeled.zipWithIndex.foreach { case (id, k) =>
      val frac = k.toDouble / labeled.length
      split(id) = if (frac < 0.7) "train" else if (frac < 0.8) "val" else "test"
    }
    val nodes = Array.tabulate(n) { id =>
      LabeledNode(id, nodesRaw(id), Array(y(id).toFloat), split(id))
    }
    LocalGraph("uug-lite", nodes, dedup.values.toArray, 1, "bce")
  }
}
