package repro.linalg

import java.util.concurrent.{Callable, Executors}

/** Sparse adjacency in CSR form, rows = destination nodes.
  *
  * AGL's *edge partitioning* optimization requires all edges with the same
  * destination to land in the same partition (= the same thread), so
  * aggregation writes are conflict-free. We therefore store edges sorted by
  * destination row and partition by contiguous row ranges balanced on edge
  * count. The backward passes scatter into arbitrary source rows; they are
  * partitioned the same way over the transpose: each thread owns a range of
  * target rows ([[targetRanges]]) and adds only the contributions that land
  * there, in the sequential order, so every thread count gives the same
  * bits.
  *
  * `activeRows` implements *graph pruning* (§3.3.2): when non-null, it lists
  * the destination rows whose embeddings the layer must produce (nodes within
  * the remaining receptive field); aggregation and the layers' dense
  * transforms skip every other row. `null` means all rows are active.
  */
final class Csr(
    val numRows: Int,
    val rowPtr: Array[Int],
    val colIdx: Array[Int],
    val weight: Array[Double],
    val activeRows: Array[Int] = null
) extends Serializable {
  require(rowPtr.length == numRows + 1)
  def nnz: Int = colIdx.length
  @inline def degree(r: Int): Int = rowPtr(r + 1) - rowPtr(r)

  /** The rows this layer computes (pruning); all rows when unpruned. */
  lazy val activeList: Array[Int] =
    if (activeRows != null) activeRows else Array.range(0, numRows)

  /** Chunks over *positions* of activeList, balanced on edge count — the
    * unit of edge partitioning for pruned layers.
    */
  def activeChunks(t: Int): Array[(Int, Int)] = {
    val list = activeList
    Par.balanced(list.length, t)(p => degree(list(p)) + 1)
  }

  /** Ranges of target rows for the backward scatters, balanced on the
    * contributions each row receives: an active row's self slot and one per
    * in-edge of an active row, counted at its source. One O(N + E) pass, and
    * none at `t <= 1`.
    */
  def targetRanges(t: Int): Array[(Int, Int)] =
    if (t <= 1 || numRows <= 1) Array((0, numRows))
    else {
      val count = new Array[Int](numRows)
      val list = activeList
      var p = 0
      while (p < list.length) {
        val r = list(p)
        count(r) += 1
        var e = rowPtr(r)
        while (e < rowPtr(r + 1)) { count(colIdx(e)) += 1; e += 1 }
        p += 1
      }
      Par.balanced(numRows, t)(count(_))
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

  /** Backward of [[meanAggregate]]: for each active row v with upstream
    * gradient g(v,:), add g(v,:)/(1+deg v) to v itself and then to every
    * in-neighbor. Each thread walks every active row in order and adds the
    * contributions whose target lies in its [[targetRanges]] range.
    */
  def meanAggregateBackward(g: Mat, threads: Int): Mat = {
    val out = Mat.zeros(numRows, g.cols)
    val c = g.cols
    val list = activeList
    Par.overChunks(targetRanges(threads), threads) { case (lo, hi) =>
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val inv = 1.0 / (1 + degree(r))
        val go = r * c
        if (r >= lo && r < hi) Mat.addScaled(out.data, go, g.data, go, inv, c)
        var e = rowPtr(r)
        while (e < rowPtr(r + 1)) {
          val u = colIdx(e)
          if (u >= lo && u < hi) Mat.addScaled(out.data, u * c, g.data, go, inv, c)
          e += 1
        }
        p += 1
      }
    }
    out
  }

  /** Backward of [[neighborMean]] over active rows, partitioned like
    * [[meanAggregateBackward]].
    */
  def neighborMeanBackward(g: Mat, threads: Int): Mat = {
    val out = Mat.zeros(numRows, g.cols)
    val c = g.cols
    val list = activeList
    Par.overChunks(targetRanges(threads), threads) { case (lo, hi) =>
      var p = 0
      while (p < list.length) {
        val r = list(p)
        val d = degree(r)
        if (d > 0) {
          val inv = 1.0 / d
          val go = r * c
          var e = rowPtr(r)
          while (e < rowPtr(r + 1)) {
            val u = colIdx(e)
            if (u >= lo && u < hi) Mat.addScaled(out.data, u * c, g.data, go, inv, c)
            e += 1
          }
        }
        p += 1
      }
    }
    out
  }
}

object Csr {
  /** Counting-sort build, O(N + E), from the first `numEdges` entries of the
    * parallel edge arrays. Entries of a row keep input order.
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
    i = 0
    while (i < numEdges) {
      val pos = cursor(dst(i)); cursor(dst(i)) += 1
      col(pos) = src(i); w(pos) = weight(i)
      i += 1
    }
    new Csr(numRows, rowPtr, col, w)
  }
}

/** Shared fixed thread pool for the edge-partitioned and row-chunked
  * kernels.
  */
object Par {
  lazy val pool = Executors.newFixedThreadPool(
    math.max(2, Runtime.getRuntime.availableProcessors()),
    (r: Runnable) => { val t = new Thread(r, "agl-agg"); t.setDaemon(true); t }
  )

  /** Run `f(i)` for each task i in [0, tasks): the caller runs task 0 and the
    * pool the others. Inline when there is a single task or thread.
    */
  def forTasks(tasks: Int, threads: Int)(f: Int => Unit): Unit = {
    if (threads <= 1 || tasks <= 1) {
      var i = 0
      while (i < tasks) { f(i); i += 1 }
    } else {
      val rest = (1 until tasks).map(i => pool.submit(new Callable[Unit] { def call(): Unit = f(i) }))
      f(0)
      rest.foreach(_.get())
    }
  }

  /** Run `f` over each chunk; inline when a single chunk or thread. */
  def overChunks(chunks: Array[(Int, Int)], threads: Int)(f: ((Int, Int)) => Unit): Unit =
    forTasks(chunks.length, threads)(i => f(chunks(i)))

  /** [0, n) in at most `t` contiguous ranges of near-equal length. */
  def ranges(n: Int, t: Int): Array[(Int, Int)] = {
    val k = math.max(1, math.min(t, n))
    Array.tabulate(k)(i => ((n.toLong * i / k).toInt, (n.toLong * (i + 1) / k).toInt))
  }

  /** [0, n) in at most `t` contiguous ranges of ~equal total `weight`. */
  def balanced(n: Int, t: Int)(weight: Int => Int): Array[(Int, Int)] = {
    if (t <= 1 || n <= 1) return Array((0, n))
    var total = 0L
    var i = 0
    while (i < n) { total += weight(i); i += 1 }
    val target = math.max(1L, total / t)
    val chunks = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var start = 0
    var acc = 0L
    i = 0
    while (i < n) {
      acc += weight(i)
      if (acc >= target && chunks.length < t - 1) {
        chunks += ((start, i + 1)); start = i + 1; acc = 0
      }
      i += 1
    }
    if (start < n || chunks.isEmpty) chunks += ((start, n))
    chunks.toArray
  }
}
