package repro.core

import scala.util.Random
import scala.util.hashing.byteswap64

/** Neighbor-sampling strategies for GraphFlat (§3.2.2).
  *
  * `select` returns the chosen candidate indices out of `n`, given a weight
  * accessor. Selection is driven by an explicit RNG so it is deterministic in
  * (seed, nodeId, salt) — crucially *independent of the round*. GraphFlat
  * therefore samples every node's in-edges once per call
  * (`GraphFlat.sampledInEdges`) and all K rounds follow that sample, so the
  * K-hop neighborhood's in-edge set per node is the sample; GraphInfer
  * propagates along the same sample and sees exactly the neighborhoods
  * training did (the paper's "consistence of data processing" in §3.4, made
  * exact).
  */
sealed trait SamplingStrategy extends Serializable {
  def select(n: Int, weight: Int => Double, rng: Random): Array[Int]
}

/** Keep every in-edge (the default for small graphs / correctness tests). */
case object NoSampling extends SamplingStrategy {
  def select(n: Int, weight: Int => Double, rng: Random): Array[Int] = Array.range(0, n)
}

/** Uniformly keep at most `cap` in-edges. */
final case class UniformSampling(cap: Int) extends SamplingStrategy {
  def select(n: Int, weight: Int => Double, rng: Random): Array[Int] =
    if (n <= cap) Array.range(0, n)
    else rng.shuffle(List.range(0, n)).take(cap).sorted.toArray
}

/** Weighted sampling without replacement (Efraimidis–Spirakis keys):
  * keep the `cap` candidates with the largest u^(1/w).
  */
final case class WeightedSampling(cap: Int) extends SamplingStrategy {
  def select(n: Int, weight: Int => Double, rng: Random): Array[Int] =
    if (n <= cap) Array.range(0, n)
    else {
      val keys = Array.tabulate(n) { i =>
        val w = math.max(weight(i), 1e-9)
        (math.pow(rng.nextDouble(), 1.0 / w), i)
      }
      keys.sortBy(-_._1).take(cap).map(_._2).sorted
    }
}

/** Deterministically keep the `cap` heaviest in-edges. */
final case class TopKSampling(cap: Int) extends SamplingStrategy {
  def select(n: Int, weight: Int => Double, rng: Random): Array[Int] =
    if (n <= cap) Array.range(0, n)
    else Array.range(0, n).sortBy(i => (-weight(i), i)).take(cap).sorted
}

object Sampling {
  /** Stable salt assignment for re-indexing: which partial reducer a message
    * from `src` lands on when its destination is a hub.
    */
  def saltOf(src: Long, numSalts: Int): Int =
    (((byteswap64(src) % numSalts) + numSalts) % numSalts).toInt

  /** Deterministic RNG per (seed, node, salt) — round-independent on purpose. */
  def rngFor(seed: Long, nodeId: Long, salt: Int): Random =
    new Random(byteswap64(seed ^ byteswap64(nodeId * 1315423911L + salt)))

  /** Canonical in-edge selection for node `nodeId`: sort candidates by
    * (src, -weight), then apply the strategy per salt group (salt 0 only for
    * non-hub nodes; hash-of-src salting for hubs, mirroring re-indexing), in
    * salt order. `GraphFlat.sampledInEdges` computes the same selection one
    * (node, salt) group at a time.
    */
  def selectInEdges[T](
      cands: Seq[T],
      srcOf: T => Long,
      weightOf: T => Double,
      strategy: SamplingStrategy,
      seed: Long,
      nodeId: Long,
      isHub: Boolean,
      numSalts: Int
  ): Seq[T] = {
    if (!isHub) selectGroup(cands, srcOf, weightOf, strategy, seed, nodeId, 0)
    else {
      cands
        .groupBy(c => saltOf(srcOf(c), numSalts))
        .toSeq
        .sortBy(_._1)
        .flatMap { case (salt, group) =>
          selectGroup(group, srcOf, weightOf, strategy, seed, nodeId, salt)
        }
    }
  }

  /** One salt group: canonical order, then strategy selection. */
  def selectGroup[T](
      group: Seq[T],
      srcOf: T => Long,
      weightOf: T => Double,
      strategy: SamplingStrategy,
      seed: Long,
      nodeId: Long,
      salt: Int
  ): Seq[T] = {
    val sorted = group.sortBy(c => (srcOf(c), -weightOf(c)))
    val idx = strategy.select(sorted.length, i => weightOf(sorted(i)), rngFor(seed, nodeId, salt))
    idx.toIndexedSeq.map(sorted)
  }
}
