package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What the benchmark observes of one Spark job: its group (set by the
  * benchmark with `sc.setJobGroup`), the source line that started it, its
  * wall time and the metrics of its stages.
  */
final case class JobRec(
    id: Int,
    group: String,
    callSite: String,
    startMs: Long,
    endMs: Long,
    stageIds: Seq[Int]
) {
  def ms: Double = (endMs - startMs).toDouble
}

final case class StageRec(
    id: Int,
    taskMs: Vector[Long],
    shuffleWriteBytes: Long,
    shuffleWriteRecords: Long,
    resultBytes: Long
) {
  /** Slowest task over the median task; 1 means perfectly balanced. */
  def skew: Double = {
    val s = taskMs.sorted
    if (s.isEmpty) 1.0 else s.last.toDouble / math.max(s(s.length / 2), 1L).toDouble
  }
}

/** A SparkListener the benchmark registers itself: it reads job, stage and
  * task metrics from the outside, so no file of the system changes.
  */
final class JobProbe(sc: SparkContext) extends SparkListener {
  sc.addSparkListener(this)

  private val jobs = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stages = mutable.HashMap.empty[Int, StageRec]
  private val tasks = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
  private val results = mutable.HashMap.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    // the job's result stage has the highest id; its name is the call site
    val site = e.stageInfos.sortBy(_.stageId).lastOption.map(_.name).getOrElse("")
    jobs(e.jobId) = JobRec(e.jobId, group, site, e.time, -1L, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(j => jobs(e.jobId) = j.copy(endMs = e.time))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskInfo != null) tasks.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
    if (e.taskMetrics != null) results(e.stageId) = results.getOrElse(e.stageId, 0L) + e.taskMetrics.resultSize
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val m = info.taskMetrics
    stages(info.stageId) = StageRec(
      info.stageId,
      tasks.getOrElse(info.stageId, mutable.ArrayBuffer.empty[Long]).toVector,
      if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten,
      if (m == null) 0L else m.shuffleWriteMetrics.recordsWritten,
      results.getOrElse(info.stageId, 0L))
  }

  /** Finished jobs of a group, in submission order. */
  def jobsOf(group: String): Vector[JobRec] = {
    ListenerBusDrain(sc)
    synchronized(jobs.values.filter(j => j.group == group && j.endMs >= 0).toVector.sortBy(_.id))
  }

  /** Wall time each action of `file` took within a group, in order. With
    * adaptive execution Spark runs a query's shuffle stages as jobs of their
    * own whose call site is Spark's, so an action is the job whose call site
    * is a line of `file`, and its time runs from the end of the action before
    * it (or the group's first job) to its own end.
    */
  def actionMs(group: String, file: String): Vector[Double] = {
    val js = jobsOf(group)
    val acts = js.filter(_.callSite.contains(file))
    var prevEnd = if (js.isEmpty) 0L else js.map(_.startMs).min
    acts.map { a =>
      val ms = (a.endMs - prevEnd).toDouble
      prevEnd = a.endMs
      ms
    }
  }

  /** Completed stages of the given jobs (skipped stages have no record). */
  def stagesOf(js: Seq[JobRec]): Vector[StageRec] = synchronized {
    js.flatMap(_.stageIds).distinct.sorted.flatMap(stages.get).toVector
  }

  def stageCount: Int = {
    ListenerBusDrain(sc)
    synchronized(stages.size)
  }
}

object Probe {
  /** Runs `body` with every Spark job it starts tagged with `group`. */
  def inGroup[T](sc: SparkContext, group: String)(body: => T): T = {
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
  }

  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(b.getCollectionTime, 0L)).sum

  /** Heap still in use after a full collection, in MiB. Spark's cleaner
    * releases unpersisted blocks only after a GC finds them unreachable, so
    * a second collection follows a short pause.
    */
  def liveHeapMb(): Double = {
    System.gc()
    Thread.sleep(100)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1048576.0
}

/** Wall-clock timer that keeps every sample it takes under a metric name. */
final class Samples {
  private val data = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  def add(name: String, v: Double): Unit = data.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  /** Times `body` in milliseconds and records it under `name`. */
  def timeMs[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val out = body
    add(name, (System.nanoTime() - t0) / 1e6)
    out
  }

  def get(name: String): Seq[Double] = data.getOrElse(name, mutable.ArrayBuffer.empty[Double]).toSeq
  def toMap: Map[String, Seq[Double]] = data.iterator.map { case (k, v) => k -> v.toSeq }.toMap
}

/** Minimal JSON writer for the raw record handed to the launcher. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)

  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => str(s)
    case b: Boolean           => b.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case d: Double            => num(d)
    case m: Map[_, _]         => m.map { case (k, x) => str(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_]       => s.map(apply).mkString("[", ",", "]")
    case other                => str(other.toString)
  }
}
