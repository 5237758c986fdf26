#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload uug-pipeline --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --write-spec             # (re)writes BENCHMARK.json
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Run from the root of the repository. The first run compiles the system's
sources together with the harness (sbt, offline); later runs reuse the build
while no source file changed. Every output lands under `.bench_build/`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. A failed output check makes the exit
code 1.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402

ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs", HERE / "src", HERE / "build.sbt",
           HERE / "project" / "build.properties"]
CLASSES = HERE / "target" / "scala-2.13" / "classes"
RUN_TIMEOUT_S = 170
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def spark_home():
    """$SPARK_HOME, or the distribution that holds the `spark-submit` on the PATH."""
    if os.environ.get("SPARK_HOME"):
        return pathlib.Path(os.environ["SPARK_HOME"])
    submit = shutil.which("spark-submit")
    if not submit:
        raise SystemExit("perfbench: set SPARK_HOME or put spark-submit on the PATH")
    return pathlib.Path(submit).resolve().parent.parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def bench_mem():
    """Heap for the benchmark JVM: half of MemTotal in whole GiB, 2g to 8g,
    the rule the tier-1 test command uses for SPARK_DRIVER_MEM."""
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        g = kb // 2097152
    except (OSError, StopIteration, ValueError):
        g = 2
    return f"{min(max(g, 2), 8)}g"


def source_stamp():
    h = hashlib.sha256()
    for base in SOURCES:
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode("utf-8"))
            h.update(p.read_bytes())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the stamped build matches the sources."""
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        raise SystemExit(f"perfbench: missing sources {missing}; run from the repository root")
    stamp_file = BUILD / "stamp"
    stamp = source_stamp()
    if CLASSES.is_dir() and stamp_file.exists() and stamp_file.read_text(encoding="utf-8") == stamp:
        return
    BUILD.mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "-Dsbt.offline=true",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}", f"-Dsbt.boot.directory={BUILD / 'sbt-boot'}",
           "clean", "compile"]
    log("perfbench: building (" + " ".join(cmd) + ")")
    # everything the build needs is in the local caches; never resolve remotely
    env = dict(os.environ, SPARK_HOME=str(spark_home()))
    env.setdefault("COURSIER_MODE", "offline")
    r = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed")
    stamp_file.write_text(stamp, encoding="utf-8")


def git_sha():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return os.environ.get("GIT_SHA", "unknown (not a git checkout)")


def run_jvm(args, mem):
    nproc = os.cpu_count() or 1
    for d in ("tmp", "spark-local", "warehouse"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{mem}", f"-Xmx{mem}", *JAVA_OPENS,
           "-Djdk.reflect.useDirectMethodHandle=false", "-Dfile.encoding=UTF-8",
           f"-Djava.io.tmpdir={BUILD / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dspark.local.dir={BUILD / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}",
           "-cp", f"{CLASSES}{os.pathsep}{spark_home() / 'jars' / '*'}",
           "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, SPARK_MASTER=f"local[{nproc}]", BENCH_MEM=mem)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, encoding="utf-8")
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: JVM exited with {proc.returncode}")
    raw = [line for line in out.splitlines() if line.startswith("PERFBENCH_RAW ")]
    if not raw:
        raise SystemExit("perfbench: the JVM printed no result")
    return json.loads(raw[-1][len("PERFBENCH_RAW "):])


def result_of(raw, trace):
    """Reduces the JVM's raw samples to the result object plus the
    human-readable report lines."""
    samples = raw["samples"]
    checks = raw["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    attempted = raw["calls"] + len(checks)
    if trace:
        samples["trace.overhead_frac"] = [
            harness.median(samples["trace.pipeline_s"]) / harness.median(samples["pipeline_s"]) - 1.0]
        defs = harness.SPEC["per_layer"]
    else:
        defs = harness.SPEC["end_to_end"]
    reduced = harness.reduce_samples(defs, samples)
    lines = []
    for m in defs:
        value, n = reduced[m["name"]]
        xs = samples[harness.source_of(m["name"])]
        t = harness.tail(xs)
        tail_txt = f"  p{t[0]:g}={t[1]:.6g}" if t else ""
        lines.append(f"{m['name']:<34} {value:>14.6g} {m['unit']:<6} median of n={n}{tail_txt}")
    lines.append(f"{'error_rate':<34} {failed / attempted:>14.6g} ratio  {failed} failed of {attempted}")
    for c in checks:
        lines.append(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": reduced[m["name"]][0], "unit": m["unit"]} for m in defs},
    }
    return result, lines


def compare(base_dir, new_dir):
    """Prints every end-to-end metric whose median over the result files of
    NEW_DIR is worse than over BASE_DIR by more than its bound, or that NEW_DIR
    lacks, and every run in NEW_DIR whose output checks failed. Runs whose
    checks failed count for neither median."""
    def load(d):
        return harness.gather(json.loads(p.read_text(encoding="utf-8"))
                              for p in sorted(pathlib.Path(d).glob("*.json")))
    base, base_failed = load(base_dir)
    new, new_failed = load(new_dir)
    for wl, seed in base_failed:
        print(f"note: BASE run {wl} seed {seed} failed its output checks and is left out")
    for wl, seed in new_failed:
        print(f"FAILED {wl} seed {seed}: output checks failed")
    found = harness.regressions(harness.SPEC, base, new)
    for wl, name, b, n in found:
        print(f"REGRESSION {wl} {name}: {b:.6g} -> " + ("missing" if n is None else f"{n:.6g}"))
    print(json.dumps({"regressions": len(found), "failed_runs": len(new_failed)}))
    return 1 if found or new_failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in harness.SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=harness.SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = ap.parse_args()

    if args.write_spec:
        harness.validate_spec(harness.SPEC)
        (ROOT / "BENCHMARK.json").write_text(harness.dump_spec(harness.SPEC), encoding="utf-8")
        return 0
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    build()
    mem = bench_mem()
    raw = run_jvm(args, mem)
    result, lines = result_of(raw, args.trace == 1)
    env = dict(raw["env"], bench_mem=mem, git_sha=git_sha())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={raw['rounds']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "samples": raw["samples"], "checks": raw["checks"], "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
