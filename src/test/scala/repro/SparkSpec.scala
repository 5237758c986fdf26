package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.JobSession

/** Base for every test: one local-mode SparkSession for the whole run, built
  * by `JobSession.build`, so tests run the settings the jobs ship with.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `f` with the given SQL settings, then restores the previous ones. */
  def withConf[T](kvs: (String, String)*)(f: => T): T = {
    val saved = kvs.map { case (k, _) => k -> spark.conf.getOption(k) }
    kvs.foreach { case (k, v) => spark.conf.set(k, v) }
    try f
    finally saved.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.build("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
