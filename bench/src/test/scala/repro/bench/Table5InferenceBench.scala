package repro.bench

import repro.SparkSpec
import repro.tables.Tables
import repro.tables.Tables.Table5Report

/** Paper Table 5: inference efficiency on the User-User Graph —
  * Original (GraphFlat for every node + full model per GraphFeature) vs
  * GraphInfer (sliced message passing, each embedding computed once).
  *
  * Each path runs once to warm up, then three times, alternating; times are
  * medians. Shape assertions: GraphInfer is faster (paper: 4423s vs 18214s, ~4×),
  * does strictly less embedding computation (paper: −50% CPU), materializes
  * fewer records (paper: −76% memory), and both paths agree on the scores
  * (unbiased inference).
  */
class Table5InferenceBench extends SparkSpec {

  test("Table 5: Original vs GraphInfer on uug-lite") {
    val r = Tables.table5(spark, BenchUtil.quick)
    BenchUtil.record("table5", Tables.fmtTable5(r))
    BenchUtil.recordJson("table5", json(r))

    assert(r.maxScoreDiff < 1e-6,
      s"GraphInfer and Original disagree: max diff ${r.maxScoreDiff}")
    assert(r.graphInferMs < r.originalMs,
      s"GraphInfer (${r.graphInferMs}ms) should beat Original (${r.originalMs}ms)")
    assert(r.originalEmbComputations > 2 * r.graphInferEmbComputations,
      s"Original should recompute embeddings heavily " +
        s"(${r.originalEmbComputations} vs ${r.graphInferEmbComputations})")
    assert(r.originalNodeRecords > 2 * r.graphInferNodeRecords,
      "Original should materialize many more subgraph node records")
    assert(r.nodes > 0)
  }

  /** The report as JSON, with the machine it ran on. */
  private def json(r: Table5Report): String = {
    def timing(xs: Seq[Long], median: Long) =
      s"""{"median": $median, "min": ${xs.min}, "max": ${xs.max}, "runs": [${xs.mkString(", ")}]}"""
    val rt = Runtime.getRuntime
    s"""{
       |  "table": 5,
       |  "date": "${java.time.LocalDate.now()}",
       |  "machine": {"nproc": ${rt.availableProcessors}, "heap_mb": ${rt.maxMemory / 1048576}, "jvm": "${System.getProperty("java.version")}", "spark": "${spark.version}"},
       |  "warmup_calls": 1,
       |  "repeats": ${r.originalRunsMs.length},
       |  "original_ms": ${timing(r.originalRunsMs, r.originalMs)},
       |  "graphinfer_ms": ${timing(r.graphInferRunsMs, r.graphInferMs)},
       |  "speedup_of_medians": ${"%.3f".format(r.originalMs.toDouble / math.max(r.graphInferMs, 1))},
       |  "original_emb_computations": ${r.originalEmbComputations},
       |  "graphinfer_emb_computations": ${r.graphInferEmbComputations},
       |  "original_node_records": ${r.originalNodeRecords},
       |  "graphinfer_node_records": ${r.graphInferNodeRecords},
       |  "max_score_diff": ${r.maxScoreDiff},
       |  "nodes": ${r.nodes}
       |}""".stripMargin
  }
}
