"""The benchmark's definition and the arithmetic the launcher applies to it.

`SPEC` is the source of `BENCHMARK.json` (written by `run.py --write-spec`).
`MOVES` records, for every per-layer metric, the end-to-end metric and the
workloads it should move, so a performance change can cite both by name.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = [
    {"name": "uug-pipeline",
     "why": "FlatJob->TrainJob->InferJob on uug-lite n=8000: GraphFlat with hubs and reindexing, then 2 rounds of "
            "6 PS steps + GraphInfer. Shuffles and per-step overhead dominate; kernels should not move it"},
    {"name": "ppi-standalone",
     "why": "Table 4 setting on ppi-lite (8 graphs): GraphFlat over dense skew-free 2-hop subgraphs, then 4 rounds "
            "of LocalTrainer SAGE-2 and GAT-2 + evaluate. Vectorize and nn kernels dominate"},
]

# Bounds: the share of the parent's median by which a metric may worsen.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "flat_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "train_examples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "infer_nodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "test_quality", "unit": "score", "better": "higher", "bound": 0.2},
    {"name": "heap_live_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("graphflat.round1_ms", "ms"),
    _layer("graphflat.round2_ms", "ms"),
    _layer("graphflat.hubs_ms", "ms"),
    _layer("graphflat.shuffle_write_mb", "MB"),
    _layer("graphflat.shuffle_records", "count"),
    _layer("graphflat.task_skew", "ratio"),
    _layer("graphflat.hubs", "count"),
    _layer("graphflat.gf_nodes_p50", "count"),
    _layer("graphflat.gf_nodes_max", "count"),
    _layer("graphflat.gf_edges_p50", "count"),
    _layer("graphflat.kept_per_shipped", "ratio", "higher"),
    _layer("codec.encoded_mb", "MB"),
    _layer("codec.decode_ms", "ms"),
    _layer("pstrainer.step_ms_p50", "ms"),
    _layer("pstrainer.job_ms_p50", "ms"),
    _layer("pstrainer.driver_ms_p50", "ms"),
    _layer("pstrainer.task_skew", "ratio"),
    _layer("pstrainer.result_kb_per_step", "KB"),
    _layer("vectorize.batch_ms_p50", "ms"),
    _layer("vectorize.nodes_per_batch", "count"),
    _layer("vectorize.dedup_ratio", "ratio"),
    _layer("vectorize.active_rows_frac.L1", "ratio"),
    _layer("vectorize.active_rows_frac.L2", "ratio"),
] + [
    _layer(f"nn.{kind}.{part}", "ms")
    for kind in ("sage", "gat")
    for part in ("L1.fwd_ms", "L1.bwd_ms", "L2.fwd_ms", "L2.bwd_ms", "head_ms", "adam_ms")
] + [
    _layer("localtrainer.epoch_ms_p50", "ms"),
    _layer("localtrainer.vec_over_compute", "ratio"),
    _layer("graphinfer.round1_ms", "ms"),
    _layer("graphinfer.round2_ms", "ms"),
    _layer("graphinfer.predict_ms", "ms"),
    _layer("graphinfer.shuffle_write_mb", "MB"),
    _layer("graphinfer.task_skew", "ratio"),
    _layer("graphinfer.jobs", "count"),
    _layer("graphinfer.emb_computations", "count"),
    _layer("originalinfer.flat_ms", "ms"),
    _layer("originalinfer.forward_ms", "ms"),
    _layer("originalinfer.shuffle_write_mb", "MB"),
    _layer("originalinfer.emb_computations", "count"),
    _layer("originalinfer.node_records", "count"),
    _layer("jvm.gc_ms", "ms"),
    _layer("spark.stages", "count"),
    _layer("trace.overhead_frac", "ratio"),
]

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 22,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}

_ALL_WL = ("uug-pipeline", "ppi-standalone")
# per-layer metric prefix -> (end-to-end metric it should move, workloads)
MOVES = {
    "graphflat.": ("flat_s", _ALL_WL),
    "codec.": ("train_examples_per_s", ("uug-pipeline",)),
    "pstrainer.": ("train_examples_per_s", ("uug-pipeline",)),
    "vectorize.": ("train_examples_per_s", ("ppi-standalone",)),
    "nn.": ("train_examples_per_s", ("ppi-standalone",)),
    "localtrainer.": ("train_examples_per_s", ("ppi-standalone",)),
    "graphinfer.": ("infer_nodes_per_s", ("uug-pipeline",)),
    # OriginalInfer is a baseline that no end-to-end pipeline calls
    "originalinfer.": ("pipeline_s", ()),
    "jvm.": ("pipeline_s", _ALL_WL),
    "spark.": ("pipeline_s", _ALL_WL),
    "trace.": ("pipeline_s", _ALL_WL),
}


def moves(metric):
    """The (end-to-end metric, workloads) a per-layer metric should move."""
    for prefix, target in MOVES.items():
        if metric.startswith(prefix):
            return target
    raise KeyError(metric)


def validate_spec(spec):
    """Raises ValueError where `spec` breaks the BENCHMARK.json rules."""
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        raise ValueError("wrong top-level keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME_RE.fullmatch(n) or len(n) > 64 or not n[0].isalnum():
            raise ValueError(f"bad name {n!r}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate name")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            raise ValueError(f"bad end-to-end metric {m}")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        raise ValueError("setup_s missing")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            raise ValueError(f"bad per-layer metric {m}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            raise ValueError(f"bad workload {w['name']}")
    if not 2 <= len(spec["workloads"]) <= 8:
        raise ValueError("2 to 8 workloads")


def dump_spec(spec):
    return json.dumps(spec, indent=2, ensure_ascii=False) + "\n"


def median(xs):
    return statistics.median(xs)


def tail(xs):
    """(percentile, value) for the highest of p90, p99, p99.9 that has at
    least ten samples beyond it, or None when there are too few samples."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            s = sorted(xs)
            best = (p, s[min(len(s) - 1, math.ceil(p / 100.0 * len(s)) - 1)])
    return best


def source_of(metric):
    """Name of the raw sample list a metric is the median of."""
    return metric[:-4] if metric.endswith("_p50") else metric


def reduce_samples(metric_defs, samples):
    """metric name -> (median, number of samples) over the raw samples."""
    out = {}
    for m in metric_defs:
        xs = samples.get(source_of(m["name"]))
        if not xs:
            raise KeyError(f"no samples for {m['name']}")
        out[m["name"]] = (median(xs), len(xs))
    return out


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when better)."""
    d = (new - base) / abs(base)
    return d if metric["better"] == "lower" else -d


def gather(records):
    """Untraced result records -> (workload -> metric -> values of the runs
    whose output checks passed, [(workload, seed) of the runs that failed])."""
    per, failed = {}, []
    for r in records:
        if r.get("trace") != 0:
            continue
        if not r["result"]["correct"]:
            failed.append((r["workload"], r["seed"]))
            continue
        for k, v in r["result"]["metrics"].items():
            per.setdefault(r["workload"], {}).setdefault(k, []).append(v["value"])
    return per, failed


def regressions(spec, base, new):
    """Metrics whose median on a workload got worse than the bound allows,
    or that BASE has and NEW lacks (a crashed or failed run leaves none).

    `base` and `new` map workload -> metric -> list of values (one per run).
    Returns a list of (workload, metric, base median, new median or None)."""
    found = []
    for wl in sorted(base):
        for m in spec["end_to_end"]:
            b = base[wl].get(m["name"])
            if not b:
                continue
            n = new.get(wl, {}).get(m["name"])
            if not n:
                found.append((wl, m["name"], median(b), None))
                continue
            bm, nm = median(b), median(n)
            if worse_by(m, bm, nm) > m["bound"]:
                found.append((wl, m["name"], bm, nm))
    return found
