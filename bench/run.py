"""zcurv benchmark: seeded known-answer workloads, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload series-verify --seed 1 --seconds 25 \
        --trace 0

``--workload all`` runs the three workloads one after another.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it list every metric with its unit and a run
record.  See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402

SETUP_RUNS = 15
SUBPROCESS_TIMEOUT = 160
UNITS = {"job_p50_ms": "ms", "job_p90_ms": "ms", "jobs_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _run(argv, env=None):
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        _fail(f"{' '.join(argv[:3])} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds():
    """Median wall time of a fresh interpreter importing the CLI, each run
    scaled by the reference speed measured just before it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", "import zcurv.cli"]
    _run(argv, env)  # byte-compile once, as an installed package would be
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        ref = statistics.median(speed.reference() for _ in range(9))
        t0 = time.perf_counter()
        _run(argv, env)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def oracle_samples(cycles):
    """One instance per family: check kind, function kinds and rank."""
    seen, out = set(), []
    for job in cycles[0]:
        s = job.get("oracle")
        if s is None:
            continue
        key = (s["check"], s["f"][0], s["g"][0], s.get("n"))
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def run_record(workload, seed, result):
    src = ROOT / "src" / "zcurv"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "jobs_per_kind": result["kinds"]}


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(workload, seed, seconds, traced, work, layer_units):
    cycles_needed = int(seconds / gen.CYCLE_SECONDS[workload] * 4) + 2
    n_trace = gen.TRACE_CYCLES[workload]
    cycles = gen.generate(workload, seed, work, ROOT / "tests" / "golden",
                          max(cycles_needed, 2 * n_trace + 1))
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps({"cycles": cycles,
                                     "trace_cycles": n_trace}))
    samples = work / "oracle.json"
    samples.write_text(json.dumps(oracle_samples(cycles)))
    oracle = json.loads(_run([sys.executable, str(HERE / "oracle.py"),
                              str(samples), str(ROOT / "tests" / "golden")]))
    setup, setup_raw = (None, None) if traced else setup_seconds()
    env = dict(os.environ, PYTHONHASHSEED="0")
    result = json.loads(_run([sys.executable, str(HERE / "worker.py"),
                              str(jobs_path), str(seconds),
                              "1" if traced else "0"], env).splitlines()[-1])
    attempted = result["attempted"]
    failed = len(result["failures"])
    for line in (oracle["failures"] + result["failures"])[:20]:
        print(f"FAILED {workload}: {line}")
    if traced:
        metrics = {name: (value, unit) for name, value, unit in
                   ((k, v, layer_units[k]) for k, v in
                    result["layers"].items())}
        metrics["trace.overhead_ratio"] = (result["overhead"], "ratio")
    else:
        lat = result["scaled"]
        metrics = {
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": p90(lat) * 1e3,
            "jobs_per_s": statistics.median(result["cycle_rates"]),
            "setup_s": setup,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        raw = result["latencies"]
        unscaled = {"job_p50_ms": statistics.median(raw) * 1e3,
                    "job_p90_ms": p90(raw) * 1e3,
                    "jobs_per_s": len(raw) / result["spent"],
                    "setup_s": setup_raw}
    record = run_record(workload, seed, result)
    record["jobs_timed"] = len(result["latencies"])
    record["oracle_checks"] = oracle["checked"]
    record["units"] = {k: u for k, (_, u) in metrics.items()}
    if not traced:
        record["unscaled"] = unscaled
    print("run record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {name:40s} {value:16.6f} {unit}")
    correct = failed == 0 and not oracle["failures"]
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zcurv" / "cli.py").is_file() or \
            not (ROOT / "tests" / "golden").is_dir():
        _fail(f"no zcurv sources and goldens under {ROOT}")
    # One core for this process and every process it starts.  With two,
    # the threads of the wavefront schedule pass the GIL between cores,
    # which made some whole goursat runs up to twice as slow, and a set-up
    # import could run on another core than the reference timed before it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            sub = work / name
            sub.mkdir()
            correct, attempted, failed, metrics = run_workload(
                name, args.seed, args.seconds, args.trace == 1, sub,
                layer_units)
            total["correct"] &= correct
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            for key, (value, unit) in metrics.items():
                total["metrics"][prefix + key] = {"value": value,
                                                  "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(total))


if __name__ == "__main__":
    main()
