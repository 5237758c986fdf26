package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph._
import repro.linalg.CsrTestUtil
import repro.nn.{Model, ModelSpec}

class VectorizeSpec extends AnyFunSuite {

  private def node(id: Long): GNode = GNode(id, Array(id.toFloat))
  private def edge(s: Long, d: Long, w: Float = 1f): GEdge = GEdge(s, d, w, Array(w))

  // diamond: 1→2, 1→3, 2→4, 3→4 ; 2-hop neighborhood of 4 is the whole thing
  private val diamondGf = GraphFeature(4,
    Array(node(4), node(2), node(3), node(1)),
    Array(edge(1, 2), edge(1, 3), edge(2, 4), edge(3, 4)))

  test("single-example batch builds correct matrices") {
    val ex = Example(4, Array(1f, 0f), diamondGf)
    val vb = Vectorize(Seq(ex), layers = 2, prune = false)
    assert(vb.x.rows == 4)
    assert(vb.targets.toSeq == Seq(0)) // target interned first
    assert(vb.x(0, 0) == 4.0) // target features in row 0
    assert(vb.adjs.length == 2)
    assert(vb.adjs(0).nnz == 4)
    assert(vb.labels.rows == 1 && vb.labels(0, 0) == 1.0)
  }

  test("adjacency is destination-sorted with correct endpoints") {
    val ex = Example(4, Array(1f), diamondGf)
    val vb = Vectorize(Seq(ex), 1, prune = false)
    val csr = vb.adjs(0)
    val dense = CsrTestUtil.toDense(csr)
    // row = dst idx, col = src idx; idx(4)=0, idx(2)=1, idx(3)=2, idx(1)=3
    assert(dense(0, 1) == 1.0 && dense(0, 2) == 1.0) // 2→4, 3→4
    assert(dense(1, 3) == 1.0 && dense(2, 3) == 1.0) // 1→2, 1→3
    assert(csr.degree(3) == 0) // node 1 has no in-edges here
  }

  test("pruning keeps only target in-edges at the last layer") {
    val ex = Example(4, Array(1f), diamondGf)
    val vb = Vectorize(Seq(ex), layers = 2, prune = true)
    // layer 1 (last): horizon 0 → only edges into the target (2→4, 3→4)
    assert(vb.adjs(1).nnz == 2)
    // layer 0: horizon 1 → all edges whose dst is within 1 hop (all 4 here)
    assert(vb.adjs(0).nnz == 4)
  }

  test("pruning drops unreachable-edge noise") {
    // add a stray edge 2→3?? no: edge between two distance-1 nodes has dst at
    // distance 1 → kept at layer 0, dropped at layer 1.
    val gf = GraphFeature(4,
      diamondGf.nodes,
      diamondGf.edges :+ edge(2, 3))
    val vb = Vectorize(Seq(Example(4, Array(1f), gf)), 2, prune = true)
    assert(vb.adjs(0).nnz == 5)
    assert(vb.adjs(1).nnz == 2)
  }

  test("pruned and unpruned training losses are identical (targets only see the same info)") {
    val spec = ModelSpec("gcn", 2, inDim = 1, hidden = 3, embDim = 2, numClasses = 2, task = "softmax")
    val ex = Example(4, Array(1f, 0f), diamondGf)
    val vbP = Vectorize(Seq(ex), 2, prune = true)
    val vbF = Vectorize(Seq(ex), 2, prune = false)
    val m1 = Model.build(spec, 5)
    val m2 = Model.build(spec, 5)
    val (lp, gp) = m1.lossAndGrad(vbP, 1)
    val (lf, gf) = m2.lossAndGrad(vbF, 1)
    assert(lp == lf)
    gp.zip(gf).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
  }

  test("batch merge dedups overlapping neighborhoods") {
    val gfA = GraphFeature(2, Array(node(2), node(1)), Array(edge(1, 2)))
    val gfB = GraphFeature(3, Array(node(3), node(1)), Array(edge(1, 3)))
    val gfC = GraphFeature(4, Array(node(4), node(1)), Array(edge(1, 4)))
    val vb = Vectorize(Seq(
      Example(2, Array(1f), gfA), Example(3, Array(0f), gfB), Example(4, Array(1f), gfC)), 1, prune = false)
    assert(vb.x.rows == 4) // node 1 interned once
    assert(vb.adjs(0).nnz == 3)
    assert(vb.targets.toSeq == Seq(0, 1, 2))
  }

  test("duplicate edges across examples are dropped") {
    val gfA = GraphFeature(2, Array(node(2), node(1)), Array(edge(1, 2)))
    val gfB = GraphFeature(2, Array(node(2), node(1)), Array(edge(1, 2)))
    val vb = Vectorize(Seq(Example(2, Array(1f), gfA), Example(2, Array(1f), gfB)), 1, prune = false)
    assert(vb.adjs(0).nnz == 1)
  }

  test("isolated target vectorizes fine") {
    val gf = GraphFeature(9, Array(node(9)), Array.empty)
    val vb = Vectorize(Seq(Example(9, Array(0f), gf)), 2, prune = true)
    assert(vb.x.rows == 1 && vb.adjs.forall(_.nnz == 0))
  }

  test("missing target node is rejected") {
    val gf = GraphFeature(7, Array(node(1)), Array.empty)
    intercept[IllegalArgumentException](Vectorize(Seq(Example(7, Array(0f), gf)), 1, prune = false))
  }

  test("edge referencing an absent node is rejected") {
    val gf = GraphFeature(1, Array(node(1)), Array(edge(5, 1)))
    intercept[IllegalArgumentException](Vectorize(Seq(Example(1, Array(0f), gf)), 1, prune = false))
  }

  test("pruning keeps rows within shortest in-path reach (chain plus shortcut)") {
    // rows: target 3 → 0, node 2 → 1, node 1 → 2; active rows per layer
    def active(edges: GEdge*): Seq[Seq[Int]] = {
      val gf = GraphFeature(3, Array(node(3), node(2), node(1)), edges.toArray)
      Vectorize(Seq(Example(3, Array(1f), gf)), 2, prune = true).adjs.map(_.activeList.toSeq).toSeq
    }
    // chain 1→2→3 plus shortcut 1→3: both 1 and 2 are one hop from 3
    assert(active(edge(1, 2), edge(2, 3), edge(1, 3)) == Seq(Seq(0, 1, 2), Seq(0)))
    // the chain alone leaves 1 two hops away
    assert(active(edge(1, 2), edge(2, 3)) == Seq(Seq(0, 1), Seq(0)))
    // 1→2 alone never reaches the target
    assert(active(edge(1, 2)) == Seq(Seq(0), Seq(0)))
  }

  test("empty batch is rejected") {
    intercept[IllegalArgumentException](Vectorize(Seq.empty, 1, prune = false))
  }
}
