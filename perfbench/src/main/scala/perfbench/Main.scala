package perfbench

import repro.graph.LocalGraph
import repro.jobs.JobSession

/** One benchmark run in one JVM:
  *
  *  1. set-up: start the Spark session, run one warm-up pass with one round
  *     (JIT, Spark code generation) over a graph of the workload's size from
  *     another seed, and generate the workload's graph from the seed
  *     [[Main.GenReps]] times. `setup_s` is session start + warm-up + the
  *     median generation time: a warm-up repeated in the same JVM would no
  *     longer be a warm-up;
  *  2. one pass of the workload's pipeline with as many rounds as take
  *     `--seconds` on the reference host ([[Workload.rounds]]);
  *  3. the output checks, on the first round;
  *  4. with `--trace 1`, a second, traced pass: with the Spark listener
  *     registered, counting GC time and Spark stages, and without the heap
  *     probes. The layer pass with its own checks follows.
  *
  * Prints one line `PERFBENCH_RAW <json>` with every sample taken; the
  * launcher (`run.py`) reduces them to metrics.
  */
object Main {
  val GenReps = 3
  val WarmupSeedMask = 0x5eedL

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(opt.getOrElse("workload", ""))
    val seed = opt("seed").toLong
    val trace = opt.getOrElse("trace", "0") == "1"
    // a traced run reports no end-to-end metric; one round in each of its
    // passes is enough for trace.overhead_frac
    val rounds = if (trace) 1 else w.rounds(opt("seconds").toDouble)
    val s = new Samples
    val t0 = System.nanoTime()
    def secondsSince(t: Long) = (System.nanoTime() - t) / 1e9
    def log(msg: String): Unit = System.err.println(f"perfbench: $msg (${secondsSince(t0)}%.1f s)")
    val noHeap = () => ()

    val spark = JobSession.build("perfbench")
    // a failure must not leave Spark's non-daemon threads holding the JVM
    try {
      spark.sparkContext.setLogLevel("WARN")
      log("session started")
      // the warm-up graph has the workload's size but another seed, so that no
      // state a pass might leave behind can serve the measured graph
      w.pass(spark, w.generate(seed ^ WarmupSeedMask), 1, noHeap)
      val warmS = secondsSince(t0)
      var g: LocalGraph = null
      val genS = Seq.fill(GenReps) {
        val t = System.nanoTime()
        g = w.generate(seed)
        secondsSince(t)
      }
      s.add("setup_s", warmS + Workloads.median(genS))
      log("set-up done")

      var heapMb = 0.0
      val p = w.pass(spark, g, rounds, () => heapMb = math.max(heapMb, Probe.liveHeapMb()))
      p.samples.toMap.foreach { case (k, xs) => xs.foreach(s.add(k, _)) }
      s.add("heap_live_mb", heapMb)
      var checks = p.checks()
      var calls = p.calls
      log(s"pass of $rounds rounds done")
      if (trace) {
        // registered only now, so the untraced pass runs without it
        val probe = new JobProbe(spark.sparkContext)
        val gc0 = Probe.gcMs
        // no heap probes: their forced GCs would count as GC time
        val tp = w.pass(spark, g, rounds, noHeap)
        s.add("trace.pipeline_s", tp.pipelineS)
        s.add("jvm.gc_ms", (Probe.gcMs - gc0).toDouble)
        s.add("spark.stages", probe.stageCount.toDouble)
        calls += tp.calls
        log("traced pass done")
        checks ++= LayerPass.run(spark, probe, w.layerInput(g), s)
        log("layer pass done")
      }

      val raw = Map(
        "workload" -> w.name,
        "seed" -> seed,
        "rounds" -> rounds,
        "calls" -> calls,
        "checks" -> checks.map { case (n, ok) => Map("name" -> n, "ok" -> ok) },
        "env" -> Map(
          "nproc" -> Runtime.getRuntime.availableProcessors(),
          "heap_mb" -> Probe.maxHeapMb,
          "java" -> System.getProperty("java.version"),
          "spark" -> spark.version,
          "master" -> spark.sparkContext.master),
        "samples" -> s.toMap)
      println("PERFBENCH_RAW " + Json(raw))
    } finally spark.stop()
  }
}
