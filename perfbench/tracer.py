"""Spans around calls into each ciph layer, for the traced run only.

`Tracer.install` replaces each traced function at the name its caller looks
it up by (the CLI imports most of them by name, `check_psd_c` finds
`jacobi_eigenvalues` in `ciph.tensor`, `integrate` finds `full_rhs` in
`ciph.dynamics`, and the field methods live on their classes); `restore`
puts the originals back. Spans (name, start, end, parent) are kept in memory
and turned into per-layer metrics, and written out, when the run ends. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

from ciph import cli, dynamics, fileio, tensor
from ciph.fields import CallableField, PolynomialField

ROOT_SPAN = "cli.main"


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _directions_scanned(args, report) -> int:
    directions = args[1]
    if report.passed:
        return len(directions)
    target = report.witness.direction
    for pos, y in enumerate(directions):
        if tuple(map(float, y)) == target:
            return pos + 1
    return len(directions)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.commands: list = []  # (label, first span index, end span index, RK4 steps)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # seconds per span name
        self.own: Counter = Counter()  # self seconds per span name
        self.per_step: dict = {}
        self.kept: tuple | None = None
        self._patched: list = []
    # -------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (nid, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        counts = self.counts

        def read(args, _):
            counts["bytes_read"] += _size(args[0])

        def written(position):
            def after(args, _):
                counts["bytes_written"] += _size(args[position])

            return after

        def psd(args, report):
            counts["directions"] += _directions_scanned(args, report)

        def split(_, result):
            counts["splits"] += result.status == "SPLIT"

        def steps(_, trajectory):
            counts["rk4_steps"] += len(trajectory) - 1

        for attr, name, after in (
            ("load_tensor", "fileio.load_tensor", read),
            ("load_matrix", "fileio.load_matrix", read),
            ("load_model", "fileio.load_model", read),
            ("save_tensor", "fileio.save_tensor", written(1)),
            ("write_trajectory_csv", "fileio.write_trajectory_csv", written(2)),
            ("check_sym_a", "tensor.check_sym_a", None),
            ("check_cyclic_b", "tensor.check_cyclic_b", None),
            ("check_raw_iii", "tensor.check_raw_iii", None),
            ("check_quasi_poisson", "tensor.check_quasi_poisson", None),
            ("check_psd_c", "tensor.check_psd_c", psd),
            ("default_directions", "tensor.default_directions", None),
            ("symmetrize_34", "tensor.symmetrize_34", None),
            ("product_tensor", "brackets.product_tensor", None),
            ("split_tensor", "splitter.split_tensor", split),
            ("integrate", "dynamics.integrate", steps),
            ("audit_balances", "dynamics.audit_balances", None),
        ):
            self._wrap(cli, attr, name, after)
        self._wrap(tensor, "jacobi_eigenvalues", "eig.jacobi_eigenvalues")
        self._wrap(dynamics, "full_rhs", "dynamics.full_rhs")
        self._wrap(dynamics, "input_power", "dynamics.input_power")
        self._wrap(fileio, "input_power", "dynamics.input_power")
        for cls in (PolynomialField, CallableField):
            self._wrap(cls, "grad", "fields.grad")
            self._wrap(cls, "value", "fields.value")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run(self, label: str, call):
        """Run ``call()`` as one command under a root span."""
        first = len(self.spans)
        steps = self.counts["rk4_steps"]
        nid = self._name_id(ROOT_SPAN)
        self.spans.append(None)
        self.stack.append(first)
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.spans[first] = (nid, start, time.perf_counter(), -1)
            self.stack.pop()
            steps = self.counts["rk4_steps"] - steps
            self.commands.append((label, first, len(self.spans), steps))

    # ------------------------------------------------------------ results

    def fold(self) -> None:
        """Add the finished spans to the totals and free them. The first
        batch is kept for `write`, so memory stays bounded by one round."""
        spans, names = self.spans, self.names
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (nid, start, end, _) in enumerate(spans):
            name = names[nid]
            self.calls[name] += 1
            self.total[name] += end - start
            self.own[name] += end - start - covered[index]
        # Field-gradient calls per RK4 step of each simulate command, rounded
        # down, which drops the fixed calls of the initial sample.
        grad = self._name_id("fields.grad")
        for label, first, end, steps in self.commands:
            if steps and label not in self.per_step:
                grads = sum(1 for span in spans[first:end] if span[0] == grad)
                self.per_step[label] = grads // steps
        if self.kept is None:
            self.kept = (list(names), list(spans))
        spans.clear()
        self.commands.clear()

    def layer_metrics(self, rounds: int) -> dict:
        calls, total, own, counts = self.calls, self.total, self.own, self.counts

        def ms(*names):
            return sum(total[n] for n in names) * 1e3 / rounds

        def per_round(value):
            return value / rounds

        quad = [v for label, v in self.per_step.items() if "quadratic-linear" in label]
        splits = calls["splitter.split_tensor"]
        return {
            "tensor.check_psd_c_ms": ms("tensor.check_psd_c"),
            "tensor.directions_scanned": per_round(counts["directions"]),
            "eig.jacobi_calls": per_round(calls["eig.jacobi_eigenvalues"]),
            "eig.jacobi_ms": ms("eig.jacobi_eigenvalues"),
            "tensor.index_checks_ms": ms("tensor.check_sym_a", "tensor.check_cyclic_b",
                                         "tensor.check_raw_iii", "tensor.check_quasi_poisson"),
            "tensor.symmetrize_34_ms": ms("tensor.symmetrize_34"),
            "tensor.default_directions_ms": ms("tensor.default_directions"),
            "fileio.save_tensor_ms": ms("fileio.save_tensor"),
            "fileio.load_tensor_ms": ms("fileio.load_tensor"),
            "fileio.load_matrix_ms": ms("fileio.load_matrix"),
            "fileio.bytes_read": per_round(counts["bytes_read"]),
            "fileio.bytes_written": per_round(counts["bytes_written"]),
            "fileio.load_model_ms": ms("fileio.load_model"),
            "fileio.write_csv_ms": ms("fileio.write_trajectory_csv"),
            "brackets.product_tensor_ms": ms("brackets.product_tensor"),
            "splitter.split_tensor_ms": ms("splitter.split_tensor"),
            "splitter.calls": per_round(splits),
            "splitter.split_ratio": counts["splits"] / splits if splits else 0.0,
            "dynamics.integrate_self_ms": (own["dynamics.integrate"] + own["dynamics.full_rhs"]) * 1e3 / rounds,
            "dynamics.rk4_steps": per_round(counts["rk4_steps"]),
            "dynamics.rhs_evals": per_round(calls["dynamics.full_rhs"]),
            "dynamics.audit_ms": ms("dynamics.audit_balances"),
            "dynamics.input_power_calls": per_round(calls["dynamics.input_power"]),
            "fields.grad_calls": per_round(calls["fields.grad"]),
            "fields.value_calls": per_round(calls["fields.value"]),
            "fields.grad_ms": ms("fields.grad"),
            "fields.value_ms": ms("fields.value"),
            "fields.grad_calls_per_step": float(quad[0]) if quad else 0.0,
            "cli.self_ms": own[ROOT_SPAN] * 1e3 / rounds,
        }

    def write(self, path) -> None:
        """The first folded batch of spans, one per line: name id, start and
        end in microseconds, parent line (-1 for a command's root span)."""
        names, spans = self.kept or (self.names, [])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + ",".join(names) + "\n")
            fh.write("name,start_us,end_us,parent\n")
            for nid, start, end, parent in spans:
                fh.write(f"{nid},{start * 1e6:.1f},{end * 1e6:.1f},{parent}\n")
