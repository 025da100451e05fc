"""One workload in one fresh Python process.

Started by run.py. `--mode setup` only sets up (imports ciph, writes the
seeded inputs, runs one untimed warm-up command) and reports how long that
took. `--mode run` then runs the workload's command list in a closed loop
with one client, each command in-process through `ciph.cli.main(argv)` with
stdout and stderr captured, and checks every output. `--mode trace` runs the
list untraced, then the same number of rounds traced, and reports per-layer
metrics, the tracing overhead and any stdout that tracing changed.

End-to-end times are corrected for the host's speed (see hostspeed.py): the
kernel is timed before every command, outside the command's timed region,
and each round's times are scaled by the round's factor.

The last stdout line is one JSON object for run.py.
"""

import time

_START = time.perf_counter()  # setup time counts from before ciph is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports numpy and ciph from the checkout)
from ciph import cli  # noqa: E402

# A run keeps going past --seconds until it has made this many complete
# rounds, so the slowest command of a round always has at least 11 samples
# and the tail percentile (10 samples beyond it) falls inside it.
MIN_ROUNDS = 11
# Stop starting rounds after this long whatever MIN_ROUNDS says, so a run
# of a slow program still ends within 180 s.
MAX_MEASURE_S = 110.0


def run_command(argv, main=None) -> tuple:
    """(exit code or None on an exception, stdout, seconds) of one command,
    run by ``main`` (default ``cli.main``)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every command starts from the same collector state
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = (main or cli.main)(list(argv))
        except Exception as exc:  # a traceback is a failed command, not a crashed run
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = None
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def check(command, rc, stdout) -> workloads.Outcome:
    if rc is None:
        return workloads.Outcome(False, "raised an exception")
    return command.check(rc, stdout)


class Pass:
    """Samples of one closed-loop pass over whole rounds of the command list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.stdouts: list[str] = []
        self.failures: Counter = Counter()
        self.known_defects: Counter = Counter()
        self.unexpected = 0
        self.work: Counter = Counter()
        self.scales: list[float] = []  # host-speed factor of each round
        self.rounds = 0
        self.wall = 0.0

    def record(self, command, rc, stdout, elapsed) -> None:
        outcome = check(command, rc, stdout)
        self.latencies.append(elapsed)
        self.labels.append(command.label)
        self.stdouts.append(stdout)
        self.work.update(outcome.work)
        if not outcome.ok:
            key = f"{command.label}: {outcome.reason}"
            self.failures[key] += 1
            if outcome.known_defect:
                self.known_defects[key] += 1
            else:
                self.unexpected += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_round(workload, samples: Pass, call=None) -> None:
    """One pass over the command list; the next command starts when the
    previous one returns. The host-speed kernel runs before each command."""
    kernel_seconds = []
    for command in workload.commands:
        kernel_seconds.append(hostspeed.time_kernel())
        rc, stdout, elapsed = call(command) if call else run_command(command.argv)
        samples.record(command, rc, stdout, elapsed)
    samples.scales.append(hostspeed.scale(kernel_seconds))
    samples.rounds += 1


def loop(workload, seconds: float) -> Pass:
    """Whole rounds until ``seconds`` have passed and MIN_ROUNDS are done."""
    samples = Pass()
    start = time.perf_counter()
    while True:
        run_round(workload, samples)
        samples.wall = time.perf_counter() - start
        done = samples.wall >= seconds and samples.rounds >= MIN_ROUNDS
        if done or samples.wall >= MAX_MEASURE_S:
            return samples


def tail_index(count: int) -> int:
    return max(0, count - 11)  # 10 samples lie beyond it


def timings(rounds: list) -> dict:
    """Throughput and latency of whole rounds of command seconds."""
    ms = sorted(v * 1e3 for r in rounds for v in r)
    return {
        # Every round runs the same commands. Taking the median over rounds
        # keeps one slow round, or a gap between the costs of two commands
        # at the middle rank, from moving these two much.
        "ops_per_s": len(rounds[0]) / statistics.median(sum(r) for r in rounds),
        "latency_p50_ms": statistics.median(statistics.median(r) for r in rounds) * 1e3,
        "latency_tail_ms": ms[tail_index(len(ms))],
    }


def split_rounds(workload, samples: Pass) -> tuple:
    """(uncorrected, host-speed-corrected) command seconds, one list per round."""
    per_round = len(workload.commands)
    raw = [samples.latencies[r * per_round:(r + 1) * per_round] for r in range(samples.rounds)]
    return raw, [[v * scale for v in r] for r, scale in zip(raw, samples.scales)]


def end_to_end(workload, samples: Pass) -> dict:
    """End-to-end metrics from host-speed-corrected times; the uncorrected
    figures go to the details."""
    raw, rounds = split_rounds(workload, samples)
    count = len(samples.latencies)
    busy = sum(map(sum, rounds))
    by_label: dict = {}
    for label, latency in zip(samples.labels, (v for r in rounds for v in r)):
        by_label.setdefault(label, []).append(latency * 1e3)
    corrected = timings(rounds)
    metrics = {
        "ops_per_s": (corrected["ops_per_s"], "1/s"),
        "latency_p50_ms": (corrected["latency_p50_ms"], "ms"),
        "latency_tail_ms": (corrected["latency_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (samples.failed / count, "ratio"),
    }
    if workload.name == "check-sparse":
        metrics["directions_per_s"] = (samples.work["directions"] / busy, "1/s")
    if workload.name == "roundtrip-dense":
        moved = samples.work["bytes_read"] + samples.work["bytes_written"]
        metrics["tensor_mb_per_s"] = (moved / 1e6 / busy, "MB/s")
    if workload.name == "simulate-models":
        metrics["rk4_steps_per_s"] = (samples.work["rk4_steps"] / busy, "1/s")
    details = {
        "latency_samples": count,
        "latency_tail_percentile": round(100.0 * (tail_index(count) + 1) / count, 2),
        "rounds": samples.rounds,
        "commands_per_round": len(workload.commands),
        "measured_s": samples.wall,
        "busy_s": busy,
        "uncorrected": timings(raw),
        "host_scale": {"median": statistics.median(samples.scales), "min": min(samples.scales),
                       "max": max(samples.scales)},
        "failures": dict(samples.failures),
        "known_defects": dict(samples.known_defects),
        "median_ms_by_command": {label: statistics.median(v) for label, v in by_label.items()},
    }
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "details": details}


def traced_run(workload, seconds: float, spans_path) -> dict:
    """Untraced and traced rounds alternate, each going first in every other
    pair, so both see the same conditions; round k of each pass runs the same
    commands, whose stdout must match."""
    import tracer

    plain, traced = Pass(), Pass()
    trace = tracer.Tracer()

    def traced_command(command):
        return run_command(command.argv, lambda argv: trace.run(command.label, lambda: cli.main(argv)))

    def traced_round():
        trace.install()
        try:
            run_round(workload, traced, call=traced_command)
        finally:
            trace.restore()
        trace.fold()

    start = time.perf_counter()
    while True:
        if plain.rounds % 2 == 0:
            run_round(workload, plain)
            traced_round()
        else:
            traced_round()
            run_round(workload, plain)
        plain.wall = traced.wall = time.perf_counter() - start
        if plain.wall >= seconds or plain.wall >= MAX_MEASURE_S:
            break
    mismatched = [pos for pos, (a, b) in enumerate(zip(plain.stdouts, traced.stdouts)) if a != b]
    rounds = plain.rounds
    plain_busy, traced_busy = (sum(map(sum, split_rounds(workload, p)[1])) for p in (plain, traced))
    layers = trace.layer_metrics(rounds)
    layers["trace.overhead_ms"] = (traced_busy - plain_busy) * 1e3 / rounds
    base = end_to_end(workload, plain)
    for name in ("fail_ratio", "directions_per_s", "tensor_mb_per_s", "rk4_steps_per_s"):
        layers[name] = base["metrics"].get(name, {"value": 0.0})["value"]
    if spans_path:
        trace.write(spans_path)
    return {
        "layers": layers,
        "grad_calls_per_step": trace.per_step,
        "stdout_mismatches": sorted({plain.labels[pos] for pos in mismatched}),
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed + len(mismatched),
        "unexpected": plain.unexpected + traced.unexpected + len(mismatched),
        "details": {**base["details"], "traced_failures": dict(traced.failures),
                    "untraced_busy_s": plain_busy, "traced_busy_s": traced_busy,
                    "uncorrected_busy_s": {"untraced": sum(plain.latencies), "traced": sum(traced.latencies)}},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.workdir)
    rc, stdout, _ = run_command(workload.warmup.argv)
    warmup = check(workload.warmup, rc, stdout)
    setup_s = time.perf_counter() - _START
    scale = hostspeed.scale([hostspeed.time_kernel() for _ in range(5)])
    result = {"setup_s": setup_s * scale, "setup_s_uncorrected": setup_s, "warmup_ok": warmup.ok,
              "warmup_reason": warmup.reason}
    if args.mode == "run":
        samples = loop(workload, args.seconds)
        result.update(end_to_end(workload, samples))
        result.update(attempted=len(samples.latencies), failed=samples.failed,
                      unexpected=samples.unexpected)
    elif args.mode == "trace":
        result.update(traced_run(workload, args.seconds, args.spans))
    result["manifest"] = workload.manifest
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
