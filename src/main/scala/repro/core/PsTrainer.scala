package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph.{Example, FlatExample}
import repro.nn._

/** Options for the distributed GraphTrainer.
  *
  * @param numWorkers  data-parallel workers (Spark partitions)
  * @param threadsPerWorker aggregation threads inside one worker
  */
case class PsOpts(
    epochs: Int,
    batchSize: Int,
    lr: Double,
    numWorkers: Int,
    threadsPerWorker: Int = 1,
    prune: Boolean = true,
    seed: Long = 42L,
    evalEvery: Int = 1
)

/** GraphTrainer in distributed mode (§3.3): the parameter-server pattern on
  * Spark primitives. The driver plays the server (it owns the parameters and
  * the Adam state); partitions play the workers. Each worker decodes its
  * shard of FlatExamples (the on-DFS triples whose target hashes to it, in
  * target order) once per `train` call and keeps the decoded Examples
  * cached, so only parameters and gradients move per step. Each
  * synchronous step the parameters are broadcast, every worker
  * shuffles its cached shard, vectorizes local mini-batches, runs
  * forward/backward, and the driver sums the per-batch mean gradients in
  * partition order — data-parallelism is legal *because* GraphFlat made each
  * example information-complete (Theorem 1), which is the paper's core
  * argument for reusing classic PS infrastructure.
  */
object PsTrainer {

  def train(
      spark: SparkSession,
      trainSet: Dataset[FlatExample],
      valSet: Array[Example],
      spec: ModelSpec,
      opts: PsOpts
  ): TrainResult = {
    val sc = spark.sparkContext
    // A worker's shard is the examples whose target hashes to it, sorted by
    // target, so it does not depend on how the input was partitioned.
    val rdd = trainSet.rdd
      .map(fe => (fe.target, fe))
      .repartitionAndSortWithinPartitions(new HashPartitioner(opts.numWorkers))
      .map(_._2.decoded)
      .persist(StorageLevel.MEMORY_AND_DISK)
    // The decoded shard is released however train exits, so it cannot
    // outlive this call and hold heap in later phases.
    try {
      require(rdd.count() > 0, "PsTrainer: the training set is empty")

      val proto = Model.build(spec, opts.seed)
      val params = proto.getParamsRef
      val adam = new Adam(proto.paramShapes, opts.lr)
      var bestVal = Double.NegativeInfinity
      var bestParams: Option[Array[Array[Double]]] = None
      val history = Vector.newBuilder[EpochStat]
      val layers = spec.layers
      val prune = opts.prune
      val batchSize = opts.batchSize
      val threads = opts.threadsPerWorker
      val specB = spec

      for (epoch <- 1 to opts.epochs) {
        val t0 = System.nanoTime()
        val bc = sc.broadcast(proto.getParams)
        val epochSeed = opts.seed + epoch
        // Worker results are summed at the driver in partition order, so a
        // step does not depend on which worker finishes first (treeReduce
        // merges in task-completion order, which can flip the last bits).
        val (gradSum, lossSum, nExamples) = rdd
          .mapPartitionsWithIndex { (pid, it) =>
            val model = Model.build(specB, 0L)
            model.setParams(bc.value)
            val rng = new scala.util.Random(epochSeed * 1000003L + pid)
            val exs = rng.shuffle(it.toList)
            if (exs.isEmpty) Iterator.empty
            else {
              // per-batch losses/gradients are means over the batch; weight by
              // batch size so the aggregate is the exact mean over all examples
              // regardless of how the shards are balanced.
              val acc = model.paramShapes.map(new Array[Double](_))
              var loss = 0.0
              var nEx = 0L
              exs.grouped(batchSize).foreach { batch =>
                val vb = Vectorize(batch, layers, prune)
                val (l, g) = model.lossAndGrad(vb, threads)
                val w = batch.length.toDouble
                var p = 0
                while (p < g.length) {
                  var i = 0
                  while (i < g(p).length) { g(p)(i) *= w; i += 1 }
                  p += 1
                }
                addInto(acc, g)
                loss += l * w; nEx += batch.length
              }
              Iterator.single((acc, loss, nEx))
            }
          }
          .collect()
          .reduce[(Array[Array[Double]], Double, Long)] { case ((a1, l1, n1), (a2, l2, n2)) =>
            addInto(a1, a2); (a1, l1 + l2, n1 + n2)
          }

        val totalEx = nExamples.toDouble
        var p = 0
        while (p < gradSum.length) {
          val g = gradSum(p)
          var i = 0
          while (i < g.length) { g(i) /= totalEx; i += 1 }
          p += 1
        }
        adam.step(params, gradSum)
        bc.destroy()
        val ms = (System.nanoTime() - t0) / 1000000L
        val valMetric =
          if (valSet.nonEmpty && epoch % opts.evalEvery == 0)
            LocalTrainer.evaluate(proto, valSet, batchSize, threads, prune)
          else Double.NaN
        if (!valMetric.isNaN && valMetric > bestVal) { bestVal = valMetric; bestParams = Some(proto.getParams) }
        history += EpochStat(epoch, lossSum / totalEx, ms, valMetric)
      }
      // the best validated parameters, or the last ones when no validation ran
      TrainResult(TrainedModel(spec, bestParams.getOrElse(proto.getParams)), history.result())
    } finally rdd.unpersist(blocking = true)
  }

  private def addInto(acc: Array[Array[Double]], g: Array[Array[Double]]): Array[Array[Double]] = {
    var p = 0
    while (p < acc.length) {
      val a = acc(p); val b = g(p)
      var i = 0
      while (i < a.length) { a(i) += b(i); i += 1 }
      p += 1
    }
    acc
  }
}
