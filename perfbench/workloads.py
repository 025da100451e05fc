"""Seeded inputs, command plans and independent output checks.

Each workload is a fixed plan of `ciph` command invocations. The plan fixes
every property that sets the cost of a command (dimensions, perturbation
kinds, step counts), so one pass over it costs the same for every seed; the
seed draws the values (matrices, couplings, coefficients, initial states).
The program only sees the files written here.

Checks never use the program's own verdict as evidence. Each command carries
the exit code that follows from how its input was built, and its outputs are
recomputed with plain numpy from the in-memory inputs. Output files are
parsed and compared once; later identical outputs are compared by digest.

Run as a script to write one workload's inputs and print its manifest:

    python3 perfbench/workloads.py --workload check-sparse --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import source

source.use()

from ciph.verify import random_skew  # noqa: E402

WORKLOADS = ("check-sparse", "roundtrip-dense", "simulate-models")

WHY = {
    "check-sparse": (
        "small sparse-J tensor files, so the PSD scan and the Jacobi eigensolver carry the time; "
        "passing scans, early PSD exits and SYM_A breaks use that layer differently"
    ),
    "roundtrip-dense": (
        "dense n^4-entry tensor JSON written and read back, so fileio, product_tensor, "
        "symmetrize_34 and both splitter branches carry the time; no PSD scan, eig or fields"
    ),
    "simulate-models": (
        "RK4 integration of polynomial, callable and forced models, so fields, dynamics, the "
        "audit and the CSV writer carry the time; no tensor, eig, splitter or tensor I/O"
    ),
}

# The CLI's defaults: `--tol` and the seed of the standard direction set.
CHECK_TOL = 1e-10
DIRECTION_SEED = 0x43495048
RANDOM_DIRECTIONS = 64

# Plans. check-sparse: (n, kind, early-exit position as a share of the
# basis-and-pair directions); about a quarter of the tensors are perturbed.
CHECK_PLAN = (
    (8, "pass", None),
    (8, "pass", None),
    (8, "pass", None),
    (8, "psd", 0.35),
    (16, "pass", None),
    (16, "pass", None),
    (16, "pass", None),
    (16, "psd", 0.65),
    (24, "pass", None),
    (24, "sym", None),
)
# roundtrip-dense: (n, kind) of each matrix pair.
ROUNDTRIP_PLAN = ((8, "not-skew"), (10, "negative"), (12, "not-proportional"), (14, "split"))
SPLIT_STATUS = {
    "split": "SPLIT",
    "not-proportional": "NOT_PROPORTIONAL",
    "negative": "NEGATIVE_GAMMA",
    "not-skew": "NOT_SKEW",
}
# simulate-models: (name, dt, steps). dt follows the README advice for the
# isolated models: small enough that the audit's O(dt^2) finite-difference
# error stays well below the 1e-6 gate.
SIMULATE_PLAN = (
    ("quadratic-linear", 5e-4, 1000),
    ("heat-exchanger", 2.5e-4, 1000),
    ("poly6", 5e-4, 400),
    ("readme-forced", 2e-3, 5000),
)
ENERGY_GATE_REL = 1e-6
SIGMA_SLACK = 1e-12

# The model of the README's model-file example, verbatim. It exits 2 today
# (ROADMAP item 4: the audit's centred differences straddle the breakpoint
# of u); the benchmark keeps it and counts it as failed.
README_FORCED_MODEL = {
    "n": 2,
    "H": {"poly": [[[2, 0], 0.5], [[0, 2], 0.5]]},
    "S": {"poly": [[[1, 0], 1.0], [[0, 1], 1.0]]},
    "gamma": {"poly": [[[0, 0], 1.0]]},
    "J": {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
    "W": {"constant": [0.1, -0.1]},
    "g": {"rows": [[1.0], [0.0]]},
    "u": {"times": [0.0, 5.0], "values": [[0.5], [0.0]]},
}
README_FORCED_DEFECT = "ROADMAP item 4: the forced README model fails the balance audit"


@dataclass
class Outcome:
    """Result of checking one command.

    ``work`` holds the units the command processed (PSD directions scanned,
    tensor bytes read and written, RK4 steps), taken from its output.
    ``known_defect`` marks a failure that is exactly a documented defect.
    """

    ok: bool
    reason: str = ""
    known_defect: bool = False
    work: dict = field(default_factory=dict)


@dataclass
class Command:
    argv: list
    label: str
    expect_rc: int
    check: Callable[[int, str], Outcome]


@dataclass
class Workload:
    name: str
    commands: list
    warmup: Command
    manifest: dict


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def build(name: str, seed: int, workdir) -> Workload:
    """Write the seeded inputs of ``name`` into ``workdir`` and plan its commands."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = workload_rng(name, seed)
    plan = {
        "check-sparse": _build_check,
        "roundtrip-dense": _build_roundtrip,
        "simulate-models": _build_simulate,
    }[name]
    commands, warmup, items = plan(rng, workdir)
    manifest = {"workload": name, "seed": int(seed), "why": WHY[name], "inputs": items}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return Workload(name, commands, warmup, manifest)


# ---------------------------------------------------------------- file I/O


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _write_tensor(path: Path, t: np.ndarray) -> None:
    idx = np.argwhere(t != 0.0)
    entries = [
        {"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1, "l": int(l) + 1, "v": float(t[i, j, k, l])}
        for i, j, k, l in idx
    ]
    _write_json(path, {"n": t.shape[0], "entries": entries})


def _entry_hook(pairs):
    d = dict(pairs)
    if d.keys() == {"i", "j", "k", "l", "v"}:
        return (d["i"], d["j"], d["k"], d["l"], d["v"])
    return d


def _parse_tensor(data: bytes) -> np.ndarray:
    """Independent reader of the sparse tensor format (entries become tuples)."""
    doc = json.loads(data, object_pairs_hook=_entry_hook)
    n = int(doc["n"])
    entries = doc["entries"]
    out = np.zeros((n, n, n, n))
    if entries:
        idx = np.array([e[:4] for e in entries], dtype=int) - 1
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError("index out of range")
        if len({tuple(r) for r in idx.tolist()}) != len(entries):
            raise ValueError("duplicate entries")
        out[tuple(idx.T)] = [float(e[4]) for e in entries]
    return out


def _close(actual: np.ndarray, expected: np.ndarray, rel: float) -> bool:
    return actual.shape == expected.shape and bool(
        np.max(np.abs(actual - expected)) <= rel * max(1.0, float(np.max(np.abs(expected))))
    )


class _OutputFile:
    """Verifies an output file by parsing it once, then by byte digest."""

    def __init__(self, path: Path, verify: Callable[[bytes], str | None]):
        self.path = path
        self.verify = verify
        self.digest = None

    def check(self) -> str | None:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            return f"cannot read {self.path.name}: {exc}"
        digest = hashlib.sha256(data).digest()
        if self.digest is not None:
            return None if digest == self.digest else f"{self.path.name} differs from its verified copy"
        try:
            reason = self.verify(data)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"{self.path.name} is malformed: {exc}"
        if reason is None:
            self.digest = digest
        return reason


def _stdout_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


# ------------------------------------------------------------ check-sparse


def standard_directions(n: int) -> np.ndarray:
    """The standard direction set as the README documents it: basis vectors,
    pairwise sums and differences, then 64 seeded random unit vectors."""
    dirs = [np.eye(n)[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = 1.0
            e[j] = 1.0
            dirs.append(e.copy())
            e[j] = -1.0
            dirs.append(e)
    rng = np.random.default_rng(DIRECTION_SEED)
    for _ in range(RANDOM_DIRECTIONS):
        v = rng.standard_normal(n)
        dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)


def _sparse_skew(rng, n: int, couplings: int) -> np.ndarray:
    """Block-diagonal standard symplectic J plus ``couplings`` off-block
    entries. The pattern is fixed by n, so the eigensolver's work on the
    contracted matrices is the same for every seed; the seed draws the
    block weights and the coupling values."""
    J = np.zeros((n, n))
    for b in range(0, n, 2):
        a = rng.uniform(0.5, 1.5)
        J[b, b + 1], J[b + 1, b] = a, -a
    for k in range(couplings):
        p = 2 * (k * (n // 2) // couplings)
        q = (p + 3) % n
        c = rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0))
        J[p, q], J[q, p] = c, -c
    return J


def _psd_matrix(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(smallest eigenvalue, scale) of the contracted matrix M(y)."""
    M = np.einsum("ijkl,k,l->ij", t, y, y)
    scale = max(1.0, float(np.max(np.abs(M))))
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]), scale


def _psd_perturbation(rng, n: int, position: int) -> np.ndarray:
    """-v_i v_j Q_kl / 2 whose quadratic form y^T Q y is -1 or -2 on every
    standard direction before ``position`` and +1 or +2 on the direction at
    ``position``. M(y) gains -(y^T Q y) v v^T / 2, so the PSD scan must stop
    exactly there."""
    Q = -np.eye(n)
    if position < n:
        Q[position, position] = 1.0
    else:
        pair, is_diff = divmod(position - n, 2)
        a = 0
        while pair >= n - 1 - a:
            pair -= n - 1 - a
            a += 1
        b = a + 1 + pair
        Q[a, b] = Q[b, a] = -2.0 if is_diff else 2.0
    v = np.zeros(n)
    v[[1, n - 2]] = rng.uniform(0.5, 1.0, size=2) * rng.choice((-1.0, 1.0), size=2)
    return -0.5 * np.einsum("i,j,kl->ijkl", v, v, Q)


def _check_verifier(t: np.ndarray, kind: str, target, directions: np.ndarray):
    def check(rc: int, stdout: str) -> Outcome:
        expect_rc = 0 if kind == "pass" else 2
        try:
            reports = {r["condition_id"]: r for r in _stdout_lines(stdout)}
            verdict = {cid: reports[cid]["verdict"] for cid in ("SYM_A", "CYCLIC_B", "PSD_C")}
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"unreadable check report: {exc}")
        if rc != expect_rc:
            return Outcome(False, f"exit {rc}, expected {expect_rc}")
        psd = reports["PSD_C"]
        if psd["verdict"] == "pass":
            scanned = len(directions)
        else:
            y = np.asarray(psd["witness"]["direction"], dtype=float)
            hits = np.flatnonzero(np.all(directions == y, axis=1))
            if hits.size == 0:
                return Outcome(False, "PSD witness is not a standard direction")
            scanned = int(hits[0]) + 1
            lam, scale = _psd_matrix(t, y)
            if not lam < -CHECK_TOL * scale:
                return Outcome(False, f"PSD witness gives eigenvalue {lam!r}, not negative")
        work = {"directions": scanned}
        if kind == "pass" and set(verdict.values()) != {"pass"}:
            return Outcome(False, f"verdicts {verdict} on a passing tensor", work=work)
        if kind == "psd" and (verdict["PSD_C"] != "fail" or scanned != target + 1):
            return Outcome(False, f"PSD scan stopped at {scanned}, expected {target + 1}", work=work)
        if kind == "sym":
            if verdict["SYM_A"] != "fail" or verdict["PSD_C"] != "pass":
                return Outcome(False, f"verdicts {verdict} on a SYM_A-broken tensor", work=work)
            i, j, k, l = (v - 1 for v in reports["SYM_A"]["witness"]["index"])
            if not abs(t[i, j, k, l] - t[i, j, l, k]) > CHECK_TOL:
                return Outcome(False, "SYM_A witness is not a violation", work=work)
        return Outcome(True, work=work)

    return check


def _build_check(rng, workdir: Path):
    commands, items = [], []
    for pos, (n, kind, share) in enumerate(CHECK_PLAN):
        couplings = n // 8 + 1
        J = _sparse_skew(rng, n, couplings)
        gamma = rng.uniform(0.5, 2.0)
        t = 0.5 * gamma * (np.einsum("ik,jl->ijkl", J, J) + np.einsum("il,jk->ijkl", J, J))
        directions = standard_directions(n)
        target = None
        if kind == "psd":
            target = int(share * n * n)  # n * n basis vectors plus pair sums and differences
            t = t + _psd_perturbation(rng, n, target)
            _assert_first_psd_failure(t, directions, target)
        elif kind == "sym":
            A = np.zeros((n, n))
            A[0, n - 1], A[n - 1, 0] = 1.0, -1.0
            w = np.zeros(n)
            w[[1, n - 2]] = rng.uniform(0.5, 1.0, size=2)
            t = t + 0.3 * np.einsum("i,j,kl->ijkl", w, w, A)
        path = workdir / f"check{pos:02d}_n{n}_{kind}.json"
        _write_tensor(path, t)
        expect_rc = 0 if kind == "pass" else 2
        commands.append(
            Command(["check", str(path)], f"check n={n} {kind}", expect_rc,
                    _check_verifier(t, kind, target, directions))
        )
        items.append({
            "file": path.name, "n": n, "kind": kind, "J_nonzeros": int(np.count_nonzero(J)),
            "couplings": couplings, "tensor_nonzeros": int(np.count_nonzero(t)),
            "psd_exit_direction": None if target is None else target + 1,
            "expect_exit": expect_rc,
        })
    return commands, commands[0], items


def _assert_first_psd_failure(t: np.ndarray, directions: np.ndarray, target: int) -> None:
    for pos in range(target + 1):
        lam, scale = _psd_matrix(t, directions[pos])
        failing = lam < -CHECK_TOL * scale
        if failing != (pos == target) or (pos == target and lam > -0.01):
            raise AssertionError(f"PSD perturbation misplaced at direction {pos}")


# --------------------------------------------------------- roundtrip-dense


def _tensor_file_verifier(expected: np.ndarray):
    def verify(data: bytes) -> str | None:
        if not _close(_parse_tensor(data), expected, 1e-12):
            return "tensor file does not match the recomputed tensor"
        return None

    return verify


def _split_verifier(expected: np.ndarray, expect_status: str, symmetric: bool, sizes: Callable):
    def check(rc: int, stdout: str) -> Outcome:
        work = sizes()
        try:
            (result,) = _stdout_lines(stdout)
            status = result["status"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"unreadable split result: {exc}", work=work)
        expect_rc = 0 if expect_status == "SPLIT" else 3
        if rc != expect_rc or status != expect_status:
            return Outcome(False, f"exit {rc} status {status}, expected {expect_rc} {expect_status}", work=work)
        if status != "SPLIT":
            return Outcome(True, work=work)
        J = np.asarray(result["J"]["rows"], dtype=float)
        gamma = float(result["gamma"])
        if not (gamma >= 0.0 and np.max(np.abs(J + J.T)) <= 1e-12):
            return Outcome(False, "split factors are not gamma >= 0 and skew J", work=work)
        rebuilt = gamma * np.einsum("ik,jl->ijkl", J, J)
        if symmetric:
            rebuilt = 0.5 * (rebuilt + gamma * np.einsum("il,jk->ijkl", J, J))
        if not _close(rebuilt, expected, 1e-9):
            return Outcome(False, "gamma and J do not rebuild the input", work=work)
        return Outcome(True, work=work)

    return check


def _write_verifier(out: _OutputFile, sizes: Callable):
    def check(rc: int, stdout: str) -> Outcome:
        work = sizes()
        if rc != 0:
            return Outcome(False, f"exit {rc}, expected 0", work=work)
        reason = out.check()
        return Outcome(reason is None, reason or "", work=work)

    return check


def _sizes(read: tuple, written: tuple = ()) -> Callable:
    def sizes() -> dict:
        def total(paths):
            return sum(p.stat().st_size for p in paths if p.exists())

        return {"bytes_read": total(read), "bytes_written": total(written)}

    return sizes


def _build_roundtrip(rng, workdir: Path):
    commands, items = [], []
    for pos, (n, kind) in enumerate(ROUNDTRIP_PLAN):
        if kind == "not-skew":
            A = rng.uniform(-1.0, 1.0, size=(n, n))
        else:
            A = random_skew(rng, n).array
        lam = float(rng.uniform(0.3, 2.0))
        if kind == "negative":
            lam = -lam
        B = random_skew(rng, n).array if kind == "not-proportional" else lam * A
        stem = f"pair{pos}_n{n}_{kind}"
        a_path, b_path = workdir / f"{stem}_A.json", workdir / f"{stem}_B.json"
        t_path, s_path = workdir / f"{stem}_t.json", workdir / f"{stem}_s.json"
        _write_json(a_path, {"n": n, "rows": A.tolist()})
        _write_json(b_path, {"n": n, "rows": B.tolist()})
        t = np.einsum("ik,jl->ijkl", A, B)
        s = 0.5 * (t + t.transpose(0, 1, 3, 2))
        status = SPLIT_STATUS[kind]
        s_status = "SPLIT" if kind == "split" else "NOT_RANK_ONE"
        commands += [
            Command(["product", "-A", str(a_path), "-B", str(b_path), "-o", str(t_path)],
                    f"product n={n} {kind}", 0,
                    _write_verifier(_OutputFile(t_path, _tensor_file_verifier(t)),
                                    _sizes((a_path, b_path), (t_path,)))),
            Command(["split", str(t_path)], f"split-product n={n} {kind}", 0 if status == "SPLIT" else 3,
                    _split_verifier(t, status, False, _sizes((t_path,)))),
            Command(["symmetrize", str(t_path), "-o", str(s_path)], f"symmetrize n={n} {kind}", 0,
                    _write_verifier(_OutputFile(s_path, _tensor_file_verifier(s)),
                                    _sizes((t_path,), (s_path,)))),
            Command(["split", str(s_path)], f"split-symmetric n={n} {kind}", 0 if s_status == "SPLIT" else 3,
                    _split_verifier(s, s_status, True, _sizes((s_path,)))),
        ]
        items.append({
            "files": [a_path.name, b_path.name], "n": n, "kind": kind, "lambda": lam,
            "expect_status_product": status, "expect_status_symmetrized": s_status,
            "expect_exit": [0, 0 if status == "SPLIT" else 3, 0, 0 if s_status == "SPLIT" else 3],
        })
        if pos == 0:
            # Warm-up: this pair's product into a file no timed command reads.
            warm_path = workdir / "warmup_t.json"
            warmup = Command(["product", "-A", str(a_path), "-B", str(b_path), "-o", str(warm_path)],
                             "warm-up product", 0,
                             _write_verifier(_OutputFile(warm_path, _tensor_file_verifier(t)), _sizes(())))
    return commands, warmup, items


# --------------------------------------------------------- simulate-models


# Quartic cross terms of the n = 6 model (exponents); fixed, so the cost of a
# gradient is the same for every seed, which draws only the coefficients.
POLY6_CROSS_TERMS = (
    (1, 1, 1, 1, 0, 0), (0, 1, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1), (1, 0, 0, 1, 1, 1),
    (2, 1, 0, 0, 0, 1), (0, 2, 1, 0, 1, 0), (1, 0, 2, 1, 0, 0), (0, 0, 0, 2, 1, 1),
    (2, 0, 0, 0, 2, 0), (0, 2, 0, 0, 0, 2), (0, 0, 2, 2, 0, 0), (3, 0, 0, 0, 0, 1),
)


def _poly6_model(rng) -> dict:
    """n = 6: H = sum x^2/2 + x^4/20 plus quartic cross terms with seeded
    small coefficients, linear S, constant gamma > 0 and a seeded dense skew J."""
    n = 6
    terms = []
    for i in range(n):
        e = [0] * n
        e[i] = 2
        terms.append([list(e), 0.5])
        e[i] = 4
        terms.append([list(e), 0.05])
    terms += [[list(e), float(rng.uniform(-0.02, 0.02))] for e in POLY6_CROSS_TERMS]
    S = [[[1 if j == i else 0 for j in range(n)], float(rng.uniform(0.5, 1.5))] for i in range(n)]
    J = random_skew(rng, n).array * 0.5
    return {
        "n": n,
        "H": {"poly": terms},
        "S": {"poly": S},
        "gamma": {"poly": [[[0] * n, float(rng.uniform(0.5, 1.0))]]},
        "J": {"n": n, "rows": J.tolist()},
    }


def _poly_field(terms) -> tuple:
    """(value, grad) of a polynomial given as [[exponents], coefficient] terms."""
    E = np.array([e for e, _ in terms], dtype=float)
    c = np.array([float(v) for _, v in terms])
    lowered = []
    for m in range(E.shape[1]):
        D = E.copy()
        D[:, m] = np.maximum(E[:, m] - 1.0, 0.0)
        lowered.append((c * E[:, m], D))

    def value(x):
        return float(c @ np.prod(x ** E, axis=1))

    def grad(x):
        return np.array([cm @ np.prod(x ** D, axis=1) for cm, D in lowered])

    return value, grad


class _ReferenceModel:
    """Independent numpy reading of a model file, for recomputing trajectories."""

    def __init__(self, spec: dict):
        linear_entropy = [[[1, 0], 1.0], [[0, 1], 1.0]]
        self.J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        if spec.get("builtin") == "quadratic-linear":
            self.H = _poly_field([[[2, 0], 0.5], [[0, 2], 0.5]])
            self.S = _poly_field(linear_entropy)
            self.gamma = _poly_field([[[0, 0], 1.0]])
        elif spec.get("builtin") == "heat-exchanger":
            k = float(spec["params"]["conductance"])
            self.H = (lambda x: float(np.sum(np.exp(x))), np.exp)
            self.S = _poly_field(linear_entropy)
            self.gamma = (lambda x: k * float(np.exp(-np.sum(x))), None)
        else:
            self.H, self.S, self.gamma = (_poly_field(spec[f]["poly"]) for f in ("H", "S", "gamma"))
            self.J = np.array(spec["J"]["rows"], dtype=float)
        n = self.J.shape[0]
        self.W = np.array(spec["W"]["constant"]) if "W" in spec else np.zeros(n)
        self.g = np.array(spec["g"]["rows"]) if "g" in spec else None
        self.u = spec.get("u")

    def inputs(self, t: float) -> np.ndarray:
        if self.g is None or self.u is None:
            return self.W
        u = np.zeros(self.g.shape[1])
        for when, value in zip(self.u["times"], self.u["values"]):
            if t >= when:
                u = np.array(value, dtype=float)
        return self.W + self.g @ u

    def bracket(self, x) -> tuple:
        """(J dH, dS^T J dH)."""
        JdH = self.J @ self.H[1](x)
        return JdH, float(self.S[1](x) @ JdH)

    def rhs(self, x, t: float) -> np.ndarray:
        JdH, b = self.bracket(x)
        return self.gamma[0](x) * b * JdH + self.inputs(t)

    def trajectory(self, x0, dt: float, steps: int) -> np.ndarray:
        """Classical RK4 with the stage times ciph documents."""
        x = np.array(x0, dtype=float)
        states = [x]
        for k in range(steps):
            t = k * dt
            k1 = self.rhs(x, t)
            k2 = self.rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = self.rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = self.rhs(x + dt * k3, t + dt)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(x)
        return np.array(states)


def _csv_verifier(spec: dict, x0, steps: int, dt: float, isolated: bool):
    n = len(x0)
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "S", "sigma_int", "energy_defect"])

    def verify(data: bytes) -> str | None:
        text = data.decode("utf-8")
        first, _, body = text.partition("\n")
        if first != header:
            return f"CSV header {first!r}"
        rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        if rows.shape != (steps + 1, n + 5):
            return f"CSV has shape {rows.shape}, expected {(steps + 1, n + 5)}"
        if not np.all(np.isfinite(rows)):
            return "CSV has non-finite values"
        if np.max(np.abs(rows[:, 0] - dt * np.arange(steps + 1))) > 1e-9:
            return "CSV times are not the RK4 grid"
        model = _ReferenceModel(spec)
        states = rows[:, 1:n + 1]
        if not _close(states, model.trajectory(x0, dt, steps), 1e-8):
            return "CSV states differ from an independent RK4 solve"
        H = np.array([model.H[0](x) for x in states])
        S = np.array([model.S[0](x) for x in states])
        sigma = np.array([model.gamma[0](x) * model.bracket(x)[1] ** 2 for x in states])
        for label, column, expected in (("H", n + 1, H), ("S", n + 2, S), ("sigma_int", n + 3, sigma)):
            if not _close(rows[:, column], expected, 1e-10):
                return f"CSV {label} column differs from its value at the CSV states"
        if rows[:, n + 3].min() < -SIGMA_SLACK:
            return f"sigma_int {rows[:, n + 3].min()!r} < 0"
        if isolated:
            drift = float(np.max(np.abs(rows[:, -1])))
            if drift > ENERGY_GATE_REL * max(1.0, float(np.max(np.abs(H)))):
                return f"energy drift {drift!r} above the gate"
        return None

    return verify


def _simulate_verifier(out: _OutputFile, steps: int, known_defect: str | None):
    def check(rc: int, stdout: str) -> Outcome:
        work = {"rk4_steps": steps}
        try:
            (summary,) = _stdout_lines(stdout)
            clean = summary["fault"] is None and summary["samples"] == steps + 1
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"unreadable simulate summary: {exc}", work=work)
        if not clean:
            return Outcome(False, f"fault {summary['fault']} after {summary['samples']} samples", work=work)
        reason = out.check()
        if reason is not None:
            return Outcome(False, reason, work=work)
        if rc != 0:
            defect = known_defect is not None and rc == 2 and summary.get("passed") is False
            return Outcome(False, f"exit {rc}, expected 0", known_defect=defect, work=work)
        return Outcome(True, work=work)

    return check


def _build_simulate(rng, workdir: Path):
    commands, items = [], []
    for name, dt, steps in SIMULATE_PLAN:
        known = None
        if name == "quadratic-linear":
            model = {"builtin": "quadratic-linear"}
            angle, radius = rng.uniform(0, 2 * math.pi), rng.uniform(0.8, 1.2)
            x0 = [radius * math.cos(angle), radius * math.sin(angle)]
        elif name == "heat-exchanger":
            model = {"builtin": "heat-exchanger", "params": {"conductance": float(rng.uniform(0.8, 1.2))}}
            mid, gap = rng.uniform(-0.2, 0.2), rng.uniform(0.1, 0.3)
            x0 = [mid + gap, mid - gap]
        elif name == "poly6":
            model = _poly6_model(rng)
            x0 = list(rng.uniform(-0.4, 0.4, size=6))
        else:
            model, x0, known = README_FORCED_MODEL, [1.0, 0.0], README_FORCED_DEFECT
        n = len(x0)
        model_path, csv_path = workdir / f"model_{name}.json", workdir / f"traj_{name}.csv"
        _write_json(model_path, model)
        argv = ["simulate", str(model_path), "--t-end", repr(dt * steps), "--dt", repr(dt),
                "--x0=" + ",".join(repr(float(v)) for v in x0), "-o", str(csv_path)]
        out = _OutputFile(csv_path, _csv_verifier(model, x0, steps, dt, isolated=known is None))
        commands.append(Command(argv, f"simulate {name}", 0, _simulate_verifier(out, steps, known)))
        items.append({"model": name, "file": model_path.name, "n": n, "dt": dt, "steps": steps,
                      "x0": [float(v) for v in x0], "expect_exit": 0, "known_defect": known})
    warm_csv = workdir / "warmup.csv"
    q_model = workdir / "model_quadratic-linear.json"
    warmup = Command(["simulate", str(q_model), "--t-end", "0.1", "--dt", "1e-3", "--x0", "1,0",
                      "-o", str(warm_csv)], "warm-up simulate", 0,
                     _simulate_verifier(_OutputFile(warm_csv, _csv_verifier(
                         {"builtin": "quadratic-linear"}, [1.0, 0.0], 100, 1e-3, True)), 100, None))
    return commands, warmup, items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated inputs")
    args = parser.parse_args(argv)
    workload = build(args.workload, args.seed, os.path.abspath(args.out))
    print(json.dumps(workload.manifest, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
