package repro.core

import repro.graph.GEdge

/** Neighbor-sampling strategies for GraphFlat (§3.2.2).
  *
  * A strategy gives every in-edge src → dst a key that depends only on
  * (seed, dst, src, weight). A node's sample is its `cap` in-edges that come
  * first in (key, src, −weight, edge features), a total order, so neither
  * the round, the partitioning nor the shuffle's arrival order can change
  * it. These are bottom-k sketches (Cohen & Kaplan, PODC 2007): the sample
  * of a union is the sample of the union of each part's sample, so
  * [[Blocks]] keeps a node's sample inside each input partition before the
  * shuffle and again after it. That map-side combine is AGL's re-indexing:
  * no reducer receives more than `cap` of a hub's in-edges per input
  * partition, and a hub keeps exactly `cap` in-edges like any other node.
  *
  * GraphFlat's K rounds and GraphInfer follow the same sample, so inference
  * sees exactly the neighborhoods training did (the paper's "consistence of
  * data processing" in §3.4, made exact).
  */
sealed trait SamplingStrategy extends Serializable {

  /** The most in-edges a node keeps. */
  def cap: Int

  /** The key of the in-edge src → dst of weight `w`; smaller keys are kept. */
  def key(seed: Long, dst: Long, src: Long, w: Double): Double
}

/** Keep every in-edge (the default for small graphs / correctness tests). */
case object NoSampling extends SamplingStrategy {
  def cap: Int = Int.MaxValue
  def key(seed: Long, dst: Long, src: Long, w: Double): Double = 0.0
}

/** Uniformly keep at most `cap` in-edges: the key is a hash of (seed, dst, src). */
final case class UniformSampling(cap: Int) extends SamplingStrategy {
  def key(seed: Long, dst: Long, src: Long, w: Double): Double = Sampling.unit(seed, dst, src)
}

/** Weighted sampling without replacement (Efraimidis–Spirakis): the key
  * −ln(u)/w keeps the same in-edges as the largest u^(1/w).
  */
final case class WeightedSampling(cap: Int) extends SamplingStrategy {
  def key(seed: Long, dst: Long, src: Long, w: Double): Double =
    -math.log(Sampling.unit(seed, dst, src)) / math.max(w, 1e-9)
}

/** Deterministically keep the `cap` heaviest in-edges. */
final case class TopKSampling(cap: Int) extends SamplingStrategy {
  def key(seed: Long, dst: Long, src: Long, w: Double): Double = -w
}

object Sampling {

  /** A hash of (seed, dst, src) mapped into the open interval (0, 1). */
  def unit(seed: Long, dst: Long, src: Long): Double =
    ((mix(mix(mix(seed) ^ dst) ^ src) >>> 11) + 0.5) / (1L << 53).toDouble

  /** SplitMix64's finalizer. */
  private def mix(x: Long): Long = {
    val a = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    val b = (a ^ (a >>> 27)) * 0x94d049bb133111ebL
    b ^ (b >>> 31)
  }

  /** The merge order of a node's in-edges: ascending (src, −weight), then
    * the edge features.
    */
  private def mergeOrder(a: GEdge, b: GEdge): Int = {
    val c = java.lang.Long.compare(a.src, b.src)
    if (c != 0) c
    else {
      val w = java.lang.Float.compare(b.weight, a.weight)
      if (w != 0) w else java.util.Arrays.compare(a.feat, b.feat)
    }
  }

  private val byDstThenMerge: java.util.Comparator[GEdge] = { (a, b) =>
    val c = java.lang.Long.compare(a.dst, b.dst)
    if (c != 0) c else mergeOrder(a, b)
  }

  private final class Keyed(val e: GEdge, val key: Double)

  private val byDstThenKey: java.util.Comparator[Keyed] = { (a, b) =>
    val c = java.lang.Long.compare(a.e.dst, b.e.dst)
    if (c != 0) c
    else {
      val k = java.lang.Double.compare(a.key, b.key)
      if (k != 0) k else mergeOrder(a.e, b.e)
    }
  }

  /** The sample of every destination among `edges`, sorted by (dst, merge
    * order). Samples merge: the sample of the concatenated samples of any
    * split of `edges` is the sample of `edges`.
    */
  def sample(edges: Array[GEdge], strategy: SamplingStrategy, seed: Long): Array[GEdge] = {
    val kept =
      if (strategy.cap == Int.MaxValue) edges.clone()
      else {
        val keyed = edges.map(e => new Keyed(e, strategy.key(seed, e.dst, e.src, e.weight)))
        java.util.Arrays.sort(keyed, byDstThenKey)
        // keyed(i) is among the first `cap` of its destination
        val cap = strategy.cap
        keyed.indices.iterator.filter(i => i < cap || keyed(i - cap).e.dst != keyed(i).e.dst).map(keyed(_).e).toArray
      }
    java.util.Arrays.sort(kept, byDstThenMerge)
    kept
  }
}
