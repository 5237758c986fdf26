package repro.linalg

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Sparse adjacency in CSR form, rows = destination nodes.
  *
  * AGL's *edge partitioning* optimization requires all edges with the same
  * destination to land in the same partition (= the same thread), so
  * aggregation writes are conflict-free. We therefore store edges sorted by
  * destination row and partition by contiguous row ranges balanced on edge
  * count.
  *
  * `activeRows` implements *graph pruning* (§3.3.2): when non-null, it lists
  * the destination rows whose embeddings the layer must produce (nodes within
  * the remaining receptive field); aggregation and the layers' dense
  * transforms skip every other row. `null` means all rows are active.
  *
  * `edgeId` carries the position of each entry in the batch's edge-feature
  * matrix E_B so models that consume edge features can look them up.
  */
final class Csr(
    val numRows: Int,
    val rowPtr: Array[Int],
    val colIdx: Array[Int],
    val weight: Array[Double],
    val edgeId: Array[Int],
    val activeRows: Array[Int] = null
) extends Serializable {
  require(rowPtr.length == numRows + 1)
  def nnz: Int = colIdx.length
  @inline def degree(r: Int): Int = rowPtr(r + 1) - rowPtr(r)

  /** The rows this layer computes (pruning); all rows when unpruned. */
  lazy val activeList: Array[Int] =
    if (activeRows != null) activeRows else Array.range(0, numRows)

  /** Split physical rows into at most `t` contiguous chunks with ~equal edge
    * counts. Each chunk is [start, end) over rows.
    */
  def rowChunks(t: Int): Array[(Int, Int)] = chunksOf(Array.range(0, numRows), t)

  /** Chunks over *positions* of activeList, balanced on edge count — the
    * unit of edge partitioning for pruned layers.
    */
  def activeChunks(t: Int): Array[(Int, Int)] = chunksOf(activeList, t)

  private def chunksOf(list: Array[Int], t: Int): Array[(Int, Int)] = {
    val n = list.length
    if (t <= 1 || n <= 1) return Array((0, n))
    val total = list.map(r => degree(r) + 1).sum
    val target = math.max(1, total / t)
    val chunks = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var start = 0
    var acc = 0
    var p = 0
    while (p < n) {
      acc += degree(list(p)) + 1
      if (acc >= target && chunks.length < t - 1) {
        chunks += ((start, p + 1)); start = p + 1; acc = 0
      }
      p += 1
    }
    if (start < n) chunks += ((start, n))
    if (chunks.isEmpty) chunks += ((0, n))
    chunks.toArray
  }

  /** out(v, :) = (h(v, :) + sum_{u in N+(v)} h(u, :)) / (1 + deg(v)) for
    * active rows v; inactive rows stay zero. Mean aggregation with an
    * implicit self-loop — the Φ used by our GCN layer. `threads = 1` is the
    * sequential baseline; more threads use edge partitioning.
    */
  def meanAggregate(h: Mat, threads: Int): Mat = {
    require(h.rows == numRows)
    val out = Mat.zeros(numRows, h.cols)
    val list = activeList
    Par.overChunks(activeChunks(threads), threads) { case (p0, p1) =>
      val c = h.cols
      var p = p0
      while (p < p1) {
        val r = list(p)
        val oo = r * c
        var j = 0
        while (j < c) { out.data(oo + j) = h.data(oo + j); j += 1 }
        var e = rowPtr(r)
        while (e < rowPtr(r + 1)) {
          val uo = colIdx(e) * c
          var k = 0
          while (k < c) { out.data(oo + k) += h.data(uo + k); k += 1 }
          e += 1
        }
        val inv = 1.0 / (1 + degree(r))
        j = 0
        while (j < c) { out.data(oo + j) *= inv; j += 1 }
        p += 1
      }
    }
    out
  }

  /** out(v, :) = mean_{u in N+(v)} h(u, :) for active rows (zeros when v has
    * no in-edges). The neighbor half of GraphSAGE's aggregator.
    */
  def neighborMean(h: Mat, threads: Int): Mat = {
    require(h.rows == numRows)
    val out = Mat.zeros(numRows, h.cols)
    val list = activeList
    Par.overChunks(activeChunks(threads), threads) { case (p0, p1) =>
      val c = h.cols
      var p = p0
      while (p < p1) {
        val r = list(p)
        val d = degree(r)
        if (d > 0) {
          val oo = r * c
          var e = rowPtr(r)
          while (e < rowPtr(r + 1)) {
            val uo = colIdx(e) * c
            var k = 0
            while (k < c) { out.data(oo + k) += h.data(uo + k); k += 1 }
            e += 1
          }
          val inv = 1.0 / d
          var j = 0
          while (j < c) { out.data(oo + j) *= inv; j += 1 }
        }
        p += 1
      }
    }
    out
  }

  /** Scatter of the mean-aggregate backward pass over active rows: for each
    * active row v with upstream gradient g(v,:), add g(v,:)/(1+deg v) to v
    * itself and to every in-neighbor. Sequential (scatter targets are
    * arbitrary rows).
    */
  def meanAggregateBackward(g: Mat): Mat = {
    val out = Mat.zeros(numRows, g.cols)
    val c = g.cols
    val list = activeList
    var p = 0
    while (p < list.length) {
      val r = list(p)
      val inv = 1.0 / (1 + degree(r))
      val go = r * c
      var j = 0
      while (j < c) { out.data(go + j) += g.data(go + j) * inv; j += 1 }
      var e = rowPtr(r)
      while (e < rowPtr(r + 1)) {
        val uo = colIdx(e) * c
        var k = 0
        while (k < c) { out.data(uo + k) += g.data(go + k) * inv; k += 1 }
        e += 1
      }
      p += 1
    }
    out
  }

  /** Backward of [[neighborMean]] over active rows. */
  def neighborMeanBackward(g: Mat): Mat = {
    val out = Mat.zeros(numRows, g.cols)
    val c = g.cols
    val list = activeList
    var p = 0
    while (p < list.length) {
      val r = list(p)
      val d = degree(r)
      if (d > 0) {
        val inv = 1.0 / d
        val go = r * c
        var e = rowPtr(r)
        while (e < rowPtr(r + 1)) {
          val uo = colIdx(e) * c
          var k = 0
          while (k < c) { out.data(uo + k) += g.data(go + k) * inv; k += 1 }
          e += 1
        }
      }
      p += 1
    }
    out
  }

  /** Dense materialization for tests. */
  def toDense: Mat = {
    val m = Mat.zeros(numRows, numRows)
    var r = 0
    while (r < numRows) {
      var e = rowPtr(r)
      while (e < rowPtr(r + 1)) { m(r, colIdx(e)) = m(r, colIdx(e)) + weight(e); e += 1 }
      r += 1
    }
    m
  }
}

object Csr {
  /** Counting-sort build, O(N + E), from the first `numEdges` entries of the
    * parallel edge arrays. Entries of a row keep input order, and `edgeId`
    * is each edge's input position.
    */
  def fromEdges(numRows: Int, numEdges: Int, src: Array[Int], dst: Array[Int], weight: Array[Double]): Csr = {
    val rowPtr = new Array[Int](numRows + 1)
    var i = 0
    while (i < numEdges) { rowPtr(dst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < numRows) { rowPtr(i + 1) += rowPtr(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(rowPtr, numRows + 1)
    val col = new Array[Int](numEdges)
    val w = new Array[Double](numEdges)
    val eid = new Array[Int](numEdges)
    i = 0
    while (i < numEdges) {
      val pos = cursor(dst(i)); cursor(dst(i)) += 1
      col(pos) = src(i); w(pos) = weight(i); eid(pos) = i
      i += 1
    }
    new Csr(numRows, rowPtr, col, w, eid)
  }
}

/** Shared fixed thread pool for edge-partitioned aggregation. */
object Par {
  lazy val pool = Executors.newFixedThreadPool(
    math.max(2, Runtime.getRuntime.availableProcessors()),
    (r: Runnable) => { val t = new Thread(r, "agl-agg"); t.setDaemon(true); t }
  )

  /** Run `f` over each chunk; inline when a single chunk or thread. */
  def overChunks(chunks: Array[(Int, Int)], threads: Int)(f: ((Int, Int)) => Unit): Unit = {
    if (threads <= 1 || chunks.length <= 1) chunks.foreach(f)
    else {
      val tasks = chunks.map(ch => new Callable[Unit] { def call(): Unit = f(ch) }).toList
      pool.invokeAll(tasks.asJava).asScala.foreach(_.get())
    }
  }
}
