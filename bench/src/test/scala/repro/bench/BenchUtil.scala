package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths, StandardOpenOption}

/** Bench suites print their table and persist it under bench/results/ so the
  * numbers can be diffed against the paper's in EXPERIMENTS.md.
  */
object BenchUtil {
  def record(name: String, content: String): Unit = {
    write(s"$name.txt", content)
    println(s"===== $name =====")
    println(content)
  }

  /** Writes `json` to `BENCH_<name>.json` next to the table. */
  def recordJson(name: String, json: String): Unit = write(s"BENCH_$name.json", json)

  private def write(file: String, content: String): Unit = {
    val dir = Paths.get(sys.props.getOrElse("bench.results.dir", "bench/results"))
    Files.createDirectories(dir)
    Files.write(dir.resolve(file), (content + "\n").getBytes(StandardCharsets.UTF_8),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  /** Benches run at full scale unless BENCH_QUICK=1. */
  def quick: Boolean = sys.env.get("BENCH_QUICK").contains("1")
}
