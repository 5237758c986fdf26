package repro.core

import repro.graph.Example
import repro.linalg.{Csr, Mat}
import repro.nn.VecBatch
import scala.collection.mutable

/** Subgraph vectorization (§3.3.1): merge a batch of GraphFeatures into one
  * subgraph and emit A_B (as destination-sorted CSR) and X_B, plus target
  * indices and the label matrix. No layer reads edge features, so E_B is
  * not built.
  *
  * With `prune = true` the per-layer adjacencies A_B^(k) of the *graph
  * pruning* strategy (§3.3.2) are built: layer k keeps only edges whose
  * destination is within K-1-k hops of a target (the shrinking receptive
  * field), so later layers touch ever fewer edges. With `prune = false`
  * every layer uses the full merged adjacency (the AGL_base configuration
  * of Table 4).
  *
  * This runs on the trainer's preprocessing (pipeline) stage for every
  * batch, so it is written allocation-lean: primitive-keyed interning and
  * dedup, counting-sort CSR construction (O(N+E)), and pruned layers
  * derived as row subsets of the full CSR. The paper's pipeline strategy
  * only pays off if this stage is cheaper than model computation.
  */
object Vectorize {

  def apply(examples: Seq[Example], layers: Int, prune: Boolean): VecBatch = {
    require(examples.nonEmpty, "empty batch")
    val idOf = mutable.LongMap.empty[Int]
    val feats = mutable.ArrayBuffer.empty[Array[Float]]

    def internNode(id: Long, feat: Array[Float]): Int =
      idOf.getOrElseUpdate(id, { feats += feat; feats.length - 1 })

    // targets first so their rows are stable and cheap to gather
    val exArr = examples.toArray
    val targets = new Array[Int](exArr.length)
    var i = 0
    while (i < exArr.length) {
      val ex = exArr(i)
      val selfNode = ex.gf.nodes.find(_.id == ex.target)
        .getOrElse(throw new IllegalArgumentException(
          s"target ${ex.target} missing from its GraphFeature"))
      targets(i) = internNode(ex.target, selfNode.feat)
      i += 1
    }
    i = 0
    while (i < exArr.length) {
      val ns = exArr(i).gf.nodes
      var j = 0
      while (j < ns.length) { internNode(ns(j).id, ns(j).feat); j += 1 }
      i += 1
    }
    val n = feats.length

    // dedup edges across overlapping neighborhoods on packed (srcIdx, dstIdx);
    // this scan touches every edge of every GraphFeature in the batch, so it
    // uses an allocation-free open-addressing set (boxed HashSet probes here
    // made vectorization, not model computation, the epoch bottleneck)
    var totalEdges = 0
    i = 0
    while (i < exArr.length) { totalEdges += exArr(i).gf.edges.length; i += 1 }
    val seen = new LongSet(totalEdges)
    val eSrc = new IntVec(math.max(16, totalEdges / 4))
    val eDst = new IntVec(math.max(16, totalEdges / 4))
    val eW = new DoubleVec(math.max(16, totalEdges / 4))
    i = 0
    while (i < exArr.length) {
      val es = exArr(i).gf.edges
      var j = 0
      while (j < es.length) {
        val e = es(j)
        val s = idOf.getOrElse(e.src, -1)
        val d = idOf.getOrElse(e.dst, -1)
        require(s >= 0 && d >= 0,
          s"edge (${e.src},${e.dst}) references a node absent from the merged subgraph")
        val key = (s.toLong << 32) | (d.toLong & 0xffffffffL)
        if (seen.add(key)) {
          eSrc += s; eDst += d; eW += e.weight.toDouble
        }
        j += 1
      }
      i += 1
    }
    val m = eSrc.length

    val x = Mat.zeros(n, feats.head.length)
    i = 0
    while (i < n) {
      val f = feats(i)
      var d = 0
      while (d < f.length) { x(i, d) = f(d); d += 1 }
      i += 1
    }

    val full = Csr.fromEdges(n, m, eSrc.a, eDst.a, eW.a)

    val adjs: Array[Csr] =
      if (!prune || layers == 1) Array.fill(layers)(full)
      else {
        val dist = distances(n, full, targets)
        Array.tabulate(layers) { k =>
          rowSubset(full, dist, horizon = layers - 1 - k)
        }
      }

    val numLabels = exArr.head.label.length
    val labels = Mat.zeros(exArr.length, numLabels)
    i = 0
    while (i < exArr.length) {
      val l = exArr(i).label
      var c = 0
      while (c < numLabels) { labels(i, c) = l(c); c += 1 }
      i += 1
    }
    VecBatch(adjs, x, targets, labels)
  }

  /** Growable primitive int vector (ArrayBuffer[Int] boxes). */
  private final class IntVec(cap: Int) {
    var a = new Array[Int](math.max(cap, 16))
    var n = 0
    def +=(v: Int): Unit = {
      if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
      a(n) = v; n += 1
    }
    def length: Int = n
  }

  private final class DoubleVec(cap: Int) {
    var a = new Array[Double](math.max(cap, 16))
    var n = 0
    def +=(v: Double): Unit = {
      if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
      a(n) = v; n += 1
    }
  }

  /** Open-addressing set of non-negative longs (linear probing, -1 = empty). */
  private final class LongSet(expected: Int) {
    private var cap = java.lang.Integer.highestOneBit(math.max(16, expected * 2) - 1) * 2
    private var mask = cap - 1
    private var keys = { val k = new Array[Long](cap); java.util.Arrays.fill(k, -1L); k }
    private var size = 0

    def add(key: Long): Boolean = {
      var i = mix(key) & mask
      while (true) {
        val k = keys(i)
        if (k == key) return false
        if (k == -1L) {
          keys(i) = key
          size += 1
          if (size * 4 > cap * 3) grow()
          return true
        }
        i = (i + 1) & mask
      }
      false
    }

    @inline private def mix(k: Long): Int = {
      val h = k * -7046029254386353131L
      ((h ^ (h >>> 32)) & 0x7fffffff).toInt
    }

    private def grow(): Unit = {
      val old = keys
      cap *= 2; mask = cap - 1
      keys = { val k = new Array[Long](cap); java.util.Arrays.fill(k, -1L); k }
      var i = 0
      while (i < old.length) {
        val key = old(i)
        if (key != -1L) {
          var j = mix(key) & mask
          while (keys(j) != -1L) j = (j + 1) & mask
          keys(j) = key
        }
        i += 1
      }
    }
  }

  /** Pruned layer: keep exactly the rows whose destination is within
    * `horizon` hops of a target, and record them as the layer's active-row
    * set so dense transforms skip pruned rows too. O(N + E').
    */
  private def rowSubset(full: Csr, dist: Array[Int], horizon: Int): Csr = {
    val n = full.numRows
    val rowPtr = new Array[Int](n + 1)
    var nActive = 0
    var r = 0
    while (r < n) {
      val keep = dist(r) <= horizon
      if (keep) nActive += 1
      rowPtr(r + 1) = rowPtr(r) + (if (keep) full.degree(r) else 0)
      r += 1
    }
    val m = rowPtr(n)
    val col = new Array[Int](m)
    val w = new Array[Double](m)
    val actives = new Array[Int](nActive)
    var a = 0
    r = 0
    while (r < n) {
      if (dist(r) <= horizon) {
        actives(a) = r; a += 1
        val from = full.rowPtr(r); val len = full.degree(r); val to = rowPtr(r)
        System.arraycopy(full.colIdx, from, col, to, len)
        System.arraycopy(full.weight, from, w, to, len)
      }
      r += 1
    }
    new Csr(n, rowPtr, col, w, actives)
  }

  /** Multi-source BFS distance d(V_B, u): hops from u to the nearest target
    * following edge direction. BFS from the targets over the in-edge CSR
    * (row = dst, entries = srcs), O(N + E). Unreachable → Int.MaxValue.
    */
  private def distances(n: Int, csr: Csr, targets: Array[Int]): Array[Int] = {
    val dist = Array.fill(n)(Int.MaxValue)
    val queue = new Array[Int](n)
    var head = 0; var tail = 0
    var i = 0
    while (i < targets.length) {
      val t = targets(i)
      if (dist(t) != 0) { dist(t) = 0; queue(tail) = t; tail += 1 }
      i += 1
    }
    while (head < tail) {
      val v = queue(head); head += 1
      var e = csr.rowPtr(v)
      while (e < csr.rowPtr(v + 1)) {
        val u = csr.colIdx(e)
        if (dist(u) == Int.MaxValue) { dist(u) = dist(v) + 1; queue(tail) = u; tail += 1 }
        e += 1
      }
    }
    dist
  }
}
