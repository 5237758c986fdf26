#!/usr/bin/env python3
"""Summarizes perfbench result records into one BENCH_<workload>.json per
workload, for a parent and a change measured in pairs.

    python3 scripts/bench_summary.py PARENT_DIR CHANGE_DIR [--out-dir .]

Each directory holds the records `perfbench/run.py` writes to
`.bench_build/results/` (one JSON file per run). Traced runs are left out.
For the parent and the change, each end-to-end metric of BENCHMARK.json gets
its median, quartiles and inter-quartile distance over the runs whose output
checks passed, and the file records the machine (nproc, heap, JVM, Spark),
the git sha of each side and the date. `pairs` counts, per metric, the seeds
run on both sides where the change is better than the parent.
"""
import argparse
import datetime
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_records(directory):
    """Untraced records in `directory`, in file-name order."""
    out = []
    for p in sorted(pathlib.Path(directory).glob("*.json")):
        r = json.loads(p.read_text(encoding="utf-8"))
        if r.get("trace") == 0:
            out.append(r)
    return out


def quartiles(xs):
    """(q1, median, q3) with the inclusive method; a single run gives its
    value three times."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def side(records, metric_defs):
    """Summary of one side's records of one workload."""
    ok = [r for r in records if r["result"]["correct"]]
    metrics = {}
    for m in metric_defs:
        xs = [r["result"]["metrics"][m["name"]]["value"] for r in ok if m["name"] in r["result"]["metrics"]]
        if not xs:
            continue
        q1, q2, q3 = quartiles(xs)
        metrics[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
                              "unit": m["unit"], "better": m["better"], "n": len(xs)}
    env = records[0]["env"] if records else {}
    shas = sorted({r["env"].get("git_sha", "unknown") for r in records})
    return {
        "git_sha": shas[0] if len(shas) == 1 else shas,
        "seeds": sorted(r["seed"] for r in records),
        "failed_seeds": sorted(r["seed"] for r in records if not r["result"]["correct"]),
        "machine": {k: env.get(k) for k in ("nproc", "heap_mb", "bench_mem", "java", "spark")},
        "metrics": metrics,
    }


def pairs(parent, change, metric_defs):
    """metric -> {"better": seeds where the change beats the parent, "of": seeds on both sides}."""
    def by_seed(records):
        return {r["seed"]: r["result"]["metrics"] for r in records if r["result"]["correct"]}
    p, c = by_seed(parent), by_seed(change)
    seeds = sorted(set(p) & set(c))
    out = {}
    for m in metric_defs:
        both = [s for s in seeds if m["name"] in p[s] and m["name"] in c[s]]
        if not both:
            continue
        sign = 1 if m["better"] == "higher" else -1
        better = sum(1 for s in both if sign * (c[s][m["name"]]["value"] - p[s][m["name"]]["value"]) > 0)
        out[m["name"]] = {"better": better, "of": len(both)}
    return out


def summarize(parent_records, change_records, spec, date):
    """workload -> BENCH document."""
    defs = spec["end_to_end"]
    docs = {}
    for wl in sorted({r["workload"] for r in parent_records + change_records}):
        pr = [r for r in parent_records if r["workload"] == wl]
        cr = [r for r in change_records if r["workload"] == wl]
        docs[wl] = {"workload": wl, "date": date, "command": spec["command"] + ["--workload", wl],
                    "run_seconds": spec.get("run_seconds"),
                    "parent": side(pr, defs), "change": side(cr, defs), "pairs": pairs(pr, cr, defs)}
    return docs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out-dir", default=str(ROOT))
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--date", default=datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"))
    args = ap.parse_args(argv)
    spec = json.loads(pathlib.Path(args.spec).read_text(encoding="utf-8"))
    docs = summarize(load_records(args.parent_dir), load_records(args.change_dir), spec, args.date)
    for wl, doc in docs.items():
        path = pathlib.Path(args.out_dir) / f"BENCH_{wl}.json"
        path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
