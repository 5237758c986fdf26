package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.graph.GEdge

class SamplingSpec extends AnyFunSuite {

  private val strategies = Seq(NoSampling, UniformSampling(5), WeightedSampling(5), TopKSampling(5))

  /** `n` in-edges of `dst` from random sources with weights in [0.1, 1.1). */
  private def cands(n: Int, seed: Long, dst: Long = 9L): Seq[GEdge] = {
    val rng = new Random(seed)
    Seq.fill(n)(GEdge(rng.nextLong().abs, dst, (0.1 + rng.nextDouble()).toFloat, Array(rng.nextFloat())))
  }

  private def sample(es: Seq[GEdge], s: SamplingStrategy, seed: Long = 5L): Seq[GEdge] =
    Sampling.sample(es.toArray, s, seed).toSeq

  test("NoSampling keeps everything") {
    val cs = cands(17, 1)
    assert(sample(cs, NoSampling) == cs.sortBy(e => (e.src, -e.weight)))
  }

  test("UniformSampling caps the selection") {
    for (n <- Seq(3, 10, 50)) {
      val cs = cands(n, n)
      val sel = sample(cs, UniformSampling(5))
      assert(sel.length == math.min(n, 5))
      assert(sel.toSet.subsetOf(cs.toSet))
    }
  }

  test("selection is deterministic in (seed, node) and order-independent") {
    val cs = cands(30, 2)
    val a = sample(cs, UniformSampling(7))
    assert(a == sample(new Random(0).shuffle(cs), UniformSampling(7)))
    val other = cs.map(_.copy(dst = 10L))
    assert(a.map(_.src) != sample(other, UniformSampling(7)).map(_.src))
  }

  test("different seeds generally select different subsets") {
    val cs = cands(40, 3)
    assert(sample(cs, UniformSampling(10), 1L).toSet != sample(cs, UniformSampling(10), 2L).toSet)
  }

  test("TopKSampling keeps the heaviest candidates") {
    val cs = (0 until 10).map(i => GEdge(i.toLong, 9L, i.toFloat, Array.empty))
    assert(sample(cs, TopKSampling(3)).map(_.weight).toSet == Set(9f, 8f, 7f))
  }

  test("WeightedSampling favors heavy candidates in aggregate") {
    // one heavy item among many light ones: should be picked almost always
    val picks = (0 until 200).count { node =>
      val cs = GEdge(999L, node.toLong, 100f, Array.empty) +:
        (0 until 20).map(i => GEdge(i.toLong, node.toLong, 0.01f, Array.empty))
      sample(cs, WeightedSampling(3)).exists(_.src == 999L)
    }
    assert(picks > 180, s"heavy item picked only $picks/200 times")
  }

  test("a hub keeps exactly cap edges, in merge order") {
    for (s <- strategies.tail) {
      val sel = sample(cands(200, 4), s)
      assert(sel.length == s.cap, s.toString)
      assert(sel == sel.sortBy(e => (e.src, -e.weight)), s.toString)
    }
  }

  test("bottom-cap samples merge for every strategy") {
    // part of the candidates share a source and a weight, so the tie-break on features is exercised
    val rng = new Random(6)
    for (s <- strategies; trial <- 0 until 50) {
      val dsts = Array.fill(1 + rng.nextInt(3))(rng.nextInt(100).toLong)
      val base = dsts.flatMap(d => cands(rng.nextInt(40), rng.nextLong(), d))
      val cs = base ++ base.take(rng.nextInt(5)).map(e => e.copy(feat = Array(rng.nextFloat())))
      val parts = Array.fill(1 + rng.nextInt(8))(Array.newBuilder[GEdge])
      rng.shuffle(cs.toSeq).foreach(e => parts(rng.nextInt(parts.length)) += e)
      val merged = rng.shuffle(parts.toSeq.flatMap(p => sample(p.result().toSeq, s)))
      assert(sample(merged, s) == sample(cs.toSeq, s), s"$s, trial $trial")
    }
  }
}
