"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload check-sparse --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; `ciph` is imported from its `src/`. With
`--trace 0` the workload runs in a fresh process, after four more fresh
processes that only set up, and the last stdout line holds every end-to-end
metric named in BENCHMARK.json (`setup_s` is the median of the five set-ups).
Their times are corrected for the host's speed (hostspeed.py); the report
line before it gives the uncorrected figures too. With `--trace 1` the last
line holds every per-layer metric from a traced run. The lines before it
report every metric, the run's details and the seeded inputs.
Every child process is waited for; the scratch directory is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import source

source.use()

import workloads  # noqa: E402

BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole run, set-ups included, ends within 180 s
WORKER = source.ROOT / "perfbench" / "worker.py"


def child(mode: str, args, workdir, deadline: float, extra=()) -> dict:
    env = dict(os.environ)
    env.pop("CIPH_SEED", None)  # the standard direction set, as documented
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir),
            *extra]
    proc = subprocess.run(argv, env=env, cwd=source.ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    scratch = source.ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                setups.append(child("setup", args, scratch / f"setup{k}", deadline))
        extra = ()
        if args.trace:
            out_dir = source.ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            extra = ("--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.csv"))
        result = child("trace" if args.trace else "run", args, scratch / "run", deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only if no other run is using it

    setups.append(result)
    correct = all(s["warmup_ok"] for s in setups) and result["unexpected"] == 0
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
              "warmup_failures": [s["warmup_reason"] for s in setups if not s["warmup_ok"]]}
    if args.trace:
        measured = result["layers"]
        report.update(per_layer=measured, grad_calls_per_step=result["grad_calls_per_step"],
                      stdout_mismatches=result["stdout_mismatches"], details=result["details"])
        names = spec["per_layer"]
    else:
        setup_samples = [s["setup_s"] for s in setups]
        measured = {name: m["value"] for name, m in result["metrics"].items()}
        measured["setup_s"] = statistics.median(setup_samples)
        report.update(end_to_end={**result["metrics"], "setup_s": {"value": measured["setup_s"], "unit": "s"}},
                      setup_s_samples=setup_samples,
                      setup_s_uncorrected_samples=[s["setup_s_uncorrected"] for s in setups],
                      details=result["details"])
        names = spec["end_to_end"]
    print(json.dumps(report))
    print(json.dumps({"manifest": result["manifest"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
