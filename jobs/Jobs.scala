package repro.jobs

import org.apache.spark.sql.{SaveMode, SparkSession}
import repro.core._
import repro.graph._
import repro.tables.Tables

/** Shared SparkSession builder for spark-submit entrypoints and the tests. */
object JobSession {
  /** Broadcast joins are off, so joins exercise the shuffle path. The
    * GraphFlat and GraphInfer rounds are RDDs over min(shuffle partitions,
    * defaultParallelism) block partitions.
    */
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Datasets are synthetic and regenerated from their seed by name. */
  def dataset(name: String): LocalGraph = name match {
    case "cora" => Tables.cora()
    case "ppi"  => Tables.ppi(quick = false)
    case "uug"  => Tables.uug(quick = false)
    case other  => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  def samplingOf(s: String): SamplingStrategy = s.split(":") match {
    case Array("none")         => NoSampling
    case Array("uniform", cap) => UniformSampling(cap.toInt)
    case Array("weighted", cap) => WeightedSampling(cap.toInt)
    case Array("topk", cap)    => TopKSampling(cap.toInt)
    case _ => throw new IllegalArgumentException(s"sampling '$s' (none|uniform:N|weighted:N|topk:N)")
  }
}

/** GraphFlat as a job (Fig 6's `GraphFlat -n node_table -e edge_table -h hops
  * -s strategy`): generates K-hop neighborhoods for the labeled nodes of a
  * dataset and stores the flattened triples on the filesystem as parquet.
  *
  * Usage: FlatJob <dataset> <hops> <sampling> <split> <outPath>
  */
object FlatJob {
  def main(args: Array[String]): Unit = {
    val Array(ds, hops, sampling, split, out) = args.take(5)
    val spark = JobSession.build(s"GraphFlat-$ds")
    val g = JobSession.dataset(ds)
    val cfg = FlatConfig(hops.toInt, JobSession.samplingOf(sampling),
      reindexThreshold = 100, numSalts = 4, seed = 5)
    val flat = GraphFlat.flatExamples(spark, g, cfg, split)
    flat.write.mode(SaveMode.Overwrite).parquet(out)
    println(s"wrote ${spark.read.parquet(out).count()} FlatExamples to $out")
    spark.stop()
  }
}

/** GraphTrainer as a job: trains a GNN with the distributed PS trainer over
  * FlatExamples produced by FlatJob.
  *
  * Usage: TrainJob <dataset> <model: gcn|sage|gat> <flatPath> <epochs> <workers> <modelOut>
  */
object TrainJob {
  def main(args: Array[String]): Unit = {
    val Array(ds, kind, flatPath, epochs, workers, out) = args.take(6)
    val spark = JobSession.build(s"GraphTrainer-$ds-$kind")
    import spark.implicits._
    val train = spark.read.parquet(flatPath).as[FlatExample]
    val spec = ds match {
      case "cora" => Tables.coraSpec(kind)
      case "ppi"  => Tables.ppiSpec(kind)
      case "uug"  => Tables.uugSpec(kind)
    }
    val res = PsTrainer.train(spark, train, Array.empty, spec,
      PsOpts(epochs.toInt, batchSize = 256, lr = 0.01, numWorkers = workers.toInt))
    ModelIO.save(res.model, out)
    println(f"final train loss ${res.history.last.loss}%.4f; model saved to $out")
    spark.stop()
  }
}

/** GraphInfer as a job: scores every node of a dataset with a trained model.
  *
  * Usage: InferJob <dataset> <modelPath> <sampling> <outPath>
  */
object InferJob {
  def main(args: Array[String]): Unit = {
    val Array(ds, modelPath, sampling, out) = args.take(4)
    val spark = JobSession.build(s"GraphInfer-$ds")
    import spark.implicits._
    val g = JobSession.dataset(ds)
    val tm = ModelIO.load(modelPath)
    val cfg = FlatConfig(tm.spec.layers, JobSession.samplingOf(sampling),
      reindexThreshold = 100, numSalts = 4, seed = 5)
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
    scores.toDF("id", "scores").write.mode(SaveMode.Overwrite).parquet(out)
    println(s"wrote ${spark.read.parquet(out).count()} score rows to $out")
    spark.stop()
  }
}

/** One job per evaluation table. */
object Table2Job {
  def main(args: Array[String]): Unit =
    println(Tables.fmtTable2(Tables.table2(quick = args.contains("--quick"))))
}

object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table3")
    println(Tables.fmtTable3(Tables.table3(spark, quick = args.contains("--quick"))))
    spark.stop()
  }
}

object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table4")
    println(Tables.fmtTable4(Tables.table4(spark, quick = args.contains("--quick"))))
    spark.stop()
  }
}

object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table5")
    println(Tables.fmtTable5(Tables.table5(spark, quick = args.contains("--quick"))))
    spark.stop()
  }
}
