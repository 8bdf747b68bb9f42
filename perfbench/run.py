#!/usr/bin/env python3
"""tinyproto benchmark: run one workload, or every workload, and check it.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each in a fresh process

The library is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (both counted in rounds) and ``metrics``; the exit code is 0 only
when every correctness check passed.  Wall times are reported at a reference
machine speed (see ``reference.py``), so that a co-tenant slowing the CPU
does not show as the program slowing.  A detailed report (environment, tail
percentile and sample count, unscaled times, rounds.csv digest, every
counter) is written to ``perfbench/out/``, and a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_S, at_reference_speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one BLAS thread: the matrices are tiny, and a second thread only adds
# scheduling noise on a shared machine (and must never exceed nproc)
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def _parse(argv, bench: dict) -> argparse.Namespace:
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args, bench: dict) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _experiment(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    """One experiment in a fresh worker process; its record, or a failed one."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0:
            record["problems"].append(f"worker exited with code {proc.returncode}")
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError, KeyError) as exc:
        record = {"traced": trace, "raised": True, "rounds": [],
                  "problems": [f"worker gave no record: {exc!r}"]}
    record["wall_s"] = time.perf_counter() - started
    return record


def _attempted(record: dict) -> int:
    # a run that raised counts the step in flight as one failed round
    return len(record["rounds"]) + record["raised"]


def _failed(record: dict) -> int:
    if record["problems"]:
        return _attempted(record)
    return sum(1 for _, _, problems in record["rounds"] if problems)


def _keep_going(records: list[dict], minimum: int, step: int, started: float,
                seconds: float) -> bool:
    """At least ``minimum`` experiments, then more while another ``step`` of
    them, each as long as the last ``step`` took, still ends within ``seconds``."""
    if any(_failed(r) for r in records):
        return False
    if len(records) < minimum:
        return True
    last = sum(r["wall_s"] for r in records[-step:])
    return time.perf_counter() - started + last <= seconds


def _percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _at_reference_speed(record: dict) -> dict:
    """The record's wall times at the reference speed (see reference.py).

    ``reference_s`` holds the kernel's time before the experiment, before
    each round and after the experiment: set-up is scaled by the two around
    it, a round by the two around it, the whole run by their median.
    """
    refs = record["reference_s"]
    return {
        "setup_s": at_reference_speed(record["setup_s"], (refs[0] + refs[1]) / 2),
        "round_s": [
            at_reference_speed(seconds, (refs[i + 1] + refs[i + 2]) / 2)
            for i, (seconds, _, _) in enumerate(record["rounds"])
        ],
        "run_s": at_reference_speed(record["run_s"], statistics.median(refs)),
    }


def end_to_end_metrics(records: list[dict], tail_percentile: int) -> dict[str, float]:
    """The end-to-end values of an untraced run, wall times at the reference
    speed; the unscaled medians and the kernel's own time are for the report."""
    scaled = [_at_reference_speed(r) for r in records]
    times = [t for s in scaled for t in s["round_s"]]
    sampled = sum(n for r in records for _, n, _ in r["rounds"])
    summary = records[0]["summary"]
    attempted = sum(_attempted(r) for r in records)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in scaled),
        "round_s_p50": statistics.median(times),
        "round_s_tail": _percentile(times, tail_percentile),
        "run_s": statistics.median(s["run_s"] for s in scaled),
        "client_updates_per_s": sampled / sum(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "best_mean_test_accuracy": summary["best_mean_test_accuracy"],
        "proto_params_per_round": summary["total_prototype_params"] / summary["rounds"],
        "mask_params_total": summary["total_mask_params"],
        "round_success_rate": 1 - sum(_failed(r) for r in records) / attempted,
        "unscaled.setup_s": statistics.median(r["setup_s"] for r in records),
        "unscaled.round_s_p50": statistics.median(t for r in records for t, _, _ in r["rounds"]),
        "unscaled.run_s": statistics.median(r["run_s"] for r in records),
        "reference_s_p50": statistics.median(t for r in records for t in r["reference_s"]),
    }


def per_layer_metrics(records: list[dict]) -> dict[str, float]:
    """Median over the traced experiments of each per-experiment value."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = {
        key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
    }
    metrics["masking.min_hamming"] = statistics.median(r["min_hamming"] for r in traced)
    metrics["masking.presearch_min_hamming"] = statistics.median(
        r["presearch_min_hamming"] for r in traced
    )
    metrics["costmodel.traffic_mismatches"] = sum(
        1 for r in records for _, _, problems in r["rounds"] if problems
    )
    traced_e2e = end_to_end_metrics(traced, 50)
    plain_e2e = end_to_end_metrics(plain, 50)
    metrics["trace.overhead_run_s"] = traced_e2e["run_s"] - plain_e2e["run_s"]
    metrics["trace.overhead_round_s_p50"] = traced_e2e["round_s_p50"] - plain_e2e["round_s_p50"]
    return metrics


def _digest_status(workload: str, seed: int, digest: str | None) -> tuple[str | None, str]:
    """The recorded rounds.csv digest for (workload, seed), and how this run compares.

    Reported, not gated: a change that is meant to alter rounds.csv shows here.
    """
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return None, "no digest recorded for this workload and seed"
    if digest == recorded:
        return recorded, "matches the recorded digest"
    return recorded, f"DIFFERS from the recorded digest {recorded}"


def _measure(args) -> tuple[list[dict], float]:
    """Experiments, each in its own worker, until the run's time is used."""
    wl = WORKLOADS[args.workload]
    records: list[dict] = []
    # a traced run alternates untraced and traced experiments, in pairs
    minimum, step = (2, 2) if args.trace else (wl.min_experiments, 1)
    started = time.perf_counter()
    while _keep_going(records, minimum, step, started, args.seconds):
        traced = bool(args.trace) and len(records) % 2 == 1
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-{len(records)}.jsonl.gz"
        record = _experiment(args.workload, args.seed, traced, spans if traced else None)
        first = records[0].get("rounds_csv_sha256") if records else None
        digest = record.get("rounds_csv_sha256")
        if first and digest and digest != first:
            record["problems"].append(
                f"rounds.csv sha256 {digest} differs from the first experiment's {first}"
                " at the same seed"
            )
        records.append(record)
    return records, time.perf_counter() - started


def _run_one(args, bench: dict) -> int:
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    records, measured_s = _measure(args)

    problems = [p for r in records for p in r["problems"]]
    problems += [p for r in records for _, _, round_problems in r["rounds"]
                 for p in round_problems]
    attempted = sum(_attempted(r) for r in records)
    failed = sum(_failed(r) for r in records)
    try:
        values = (per_layer_metrics(records) if trace
                  else end_to_end_metrics(records, wl.tail_percentile))
    except (KeyError, IndexError, ZeroDivisionError, statistics.StatisticsError):
        values = {}
        problems.append("metrics could not be computed:\n" + traceback.format_exc())
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"] if values else ():
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} has no finite value ({value!r})")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not problems and failed == 0

    digest = records[0].get("rounds_csv_sha256")
    recorded, digest_status = _digest_status(args.workload, args.seed, digest)
    n_rounds = sum(len(r["rounds"]) for r in records if not r["traced"])
    error_rate = failed / attempted if attempted else 1.0
    report = OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    report.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "config": wl.config,
        "environment": {
            "python": platform.python_version(),
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "reference_s": REFERENCE_S,
        },
        "experiments": [
            {k: r.get(k) for k in ("traced", "setup_s", "run_s", "wall_s", "peak_rss_mb")}
            for r in records
        ],
        "round_s_tail": {"percentile": wl.tail_percentile, "untraced_rounds": n_rounds},
        "rounds_csv_sha256": digest,
        "rounds_csv_sha256_recorded": recorded,
        "error_rate": error_rate,
        "problems": problems,
        "values": values,
    }, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {int(trace)}:"
          f" {len(records)} experiments in {measured_s:.1f} s,"
          f" blas_threads={BLAS_THREADS}, nproc={os.cpu_count()}")
    for name, metric in metrics.items():
        note = f"  (p{wl.tail_percentile} of {n_rounds} rounds)" if name == "round_s_tail" else ""
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  error_rate {error_rate:.6g} ({failed} of {attempted} rounds)")
    print(f"  rounds.csv sha256 {digest}: {digest_status}")
    print(f"  report: {report.relative_to(ROOT)}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if correct else max(failed, 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print(f"missing {bench_file}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    args = _parse(argv, bench)
    if not (SRC / "tinyproto" / "__init__.py").is_file():
        print(f"no tinyproto sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, bench)
    return _run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
