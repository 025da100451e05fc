"""The fast paths of ``ciph check`` against plain references.

* The PSD scan builds M(y) from a direction's support when it has at most
  two nonzero coordinates; a per-direction ``contract_directions`` scan (and,
  at n <= 5, the loop oracle) must give the same report.
* The PSD scan cuts the list into blocks, each the longest run of B
  directions with B K^2 <= PSD_BLOCK n^2 (K their widest live width, n for
  a dense direction); the stacks it factors must have the shapes that rule
  gives from the tensor's entries alone, and the cut must not look further
  ahead than a block can grow.
* The PSD judge passes a stack of M(y) by one Cholesky factorization when
  it can; an ``eigvalsh``-only judge must give the same verdicts and
  failing residuals at the edge of the bound, and a passing scan must call
  no ``eigvalsh``.
* The index checkers sum slot permutations in one buffer, on strided views
  or on operands gathered on the orbit of the nonzero positions; on either
  layout verdict, witness index and residual must equal those of the plain
  numpy expressions kept below, and the orbit must hold every nonzero
  residual.
* ``default_directions`` builds its basis and pair rows at once and draws
  its random rows in one call; its bytes must equal those of the loop that
  defines the set.
* ``Tensor4`` copies a caller's array, and its own builders do not alias
  one another's results.
"""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import tensor as tensor_module
from ciph import (
    BracketMatrix,
    NonFiniteValue,
    Tensor4,
    check_cyclic_b,
    check_psd_c,
    check_quasi_poisson,
    check_raw_iii,
    check_sym_a,
    default_directions,
    linear_combine,
    product_tensor,
    symmetrize_34,
)
from ciph.fileio import load_tensor, save_tensor
from ciph.tensor import (
    DEFAULT_TOL,
    DIRECTION_SEED,
    PSD_BLOCK,
    RANDOM_DIRECTIONS,
    Witness,
    contract_directions,
)
from ciph.verify import exhaustive_psd_check, kulkarni_nomizu_member, random_skew


# ----------------------------------------------------------- PSD scan


def reference_psd(t: Tensor4, dirs, tol: float = DEFAULT_TOL):
    """(passed, direction, residual) from one full n x n M(y) and ``eigvalsh``
    per direction, judged in list order: a direction whose M(y), M + M^T or
    bound ``tol * max|t| * |y|^2`` is not finite raises, and the first
    failing direction before it wins.

    M(y) of a direction with at most two nonzero coordinates, the first a and
    the last b (0 and n - 1 for y = 0), is the pair-matrix row sum
    ``y_a y_a P[aa] + y_a y_b P[ab] + y_b y_a P[ba] + y_b y_b P[bb]`` taken
    left to right, only the first weight kept when a == b: the scan's own
    arithmetic, so residuals compare bit for bit. Any other M(y) is
    ``contract_directions``."""
    n = t.n
    P = t.values.reshape(n * n, n * n).T
    top = float(np.abs(t.values).max())
    for y in map(np.asarray, dirs):
        with np.errstate(over="ignore", invalid="ignore"):
            support = np.flatnonzero(y)
            if len(support) > 2:
                M = contract_directions(t, y)
            else:
                a, b = (support[0], support[-1]) if len(support) else (0, n - 1)
                weights = [y[a] * y[a], y[a] * y[b], y[b] * y[a], y[b] * y[b]]
                if a == b:
                    weights[1:] = [0.0] * 3
                M = weights[0] * P[a * n + a]
                for w, row in zip(weights[1:], (a * n + b, b * n + a, b * n + b)):
                    M = M + w * P[row]
                M = M.reshape(n, n)
            bound = tol * top * float(y @ y)
            if not (np.isfinite(M + M.T).all() and np.isfinite(bound)):
                raise NonFiniteValue("M(y) or its bound overflowed")
            asym = float(np.abs(M - M.T).max())
        if asym > bound:
            return False, tuple(map(float, y)), asym
        lam = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        if lam < -bound:
            return False, tuple(map(float, y)), lam
    return True, None, None


# Coefficients whose products with small integers are exact: signed powers
# of two and small integers, and subnormals (whose squares underflow to 0).
COEFFS = [1.0, -1.0, 2.0, -0.5, 3.0, -0.75, 2.0**300, -(2.0**-300), 5e-324, -1.5e-323]


@st.composite
def psd_cases(draw):
    """A tensor and a direction list. Hypothesis draws each direction; the
    seeded generator draws the tensor and the shape of the case, so every
    kind and block position comes up evenly."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(["cone", "hidden", "random"], p=[0.25, 0.6, 0.15])
    c = int(rng.integers(n))
    if kind == "random":
        values = rng.integers(-3, 4, size=(n,) * 4).astype(float)
    else:
        # 2 sym34(J (x) J) with integer J: every M(y) = 2 (Jy)(Jy)^T is PSD.
        J = rng.integers(-2, 3, size=(n, n)).astype(float)
        J = J - J.T
        values = np.einsum("ik,jl->ijkl", J, J) + np.einsum("il,jk->ijkl", J, J)
        if kind == "hidden":
            # M(y) gains -y_c^2 v v^T, so the scan fails first where y_c != 0.
            v = rng.integers(-2, 3, size=n).astype(float)
            values[:, :, c, c] -= np.outer(v, v)
    coeff = st.sampled_from(COEFFS)
    index = st.integers(0, n - 1)
    one = st.tuples(st.just("one"), index, coeff)
    two = st.tuples(st.just("two"), index, index, coeff, coeff)
    dense = st.tuples(st.just("dense"), st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    count = int(rng.choice([1, 3, PSD_BLOCK - 1, PSD_BLOCK + 1, 2 * PSD_BLOCK + 8], p=[0.1, 0.1, 0.2, 0.2, 0.4]))
    dirs = []
    for spec in draw(st.lists(st.one_of(one, two, dense), min_size=count, max_size=count)):
        y = np.zeros(n)
        if spec[0] == "one":
            y[spec[1]] = spec[2]
        elif spec[0] == "two":
            y[spec[1]] += spec[3]
            y[spec[2]] += spec[4]
        else:
            y[:] = spec[1]
        dirs.append(y)
    # Clear y_c before one position, mostly next to a block edge, so a
    # "hidden" tensor first fails there.
    if rng.random() < 0.7:
        first = int(rng.choice([PSD_BLOCK - 1, PSD_BLOCK, PSD_BLOCK + 1, 2 * PSD_BLOCK]))
    else:
        first = int(rng.integers(count))
    first = min(first, count - 1)
    for y in dirs[:first]:
        y[c] = 0.0
    if dirs[first][c] == 0.0:
        dirs[first][c] = 1.0
    # Now and then one coordinate of 1e200, whose square overflows.
    if rng.random() < 0.15:
        dirs[int(rng.integers(count))][int(rng.integers(n))] = 1e200
    return Tensor4(n, values), dirs


def outcome(scan, *args):
    try:
        return scan(*args)
    except NonFiniteValue:
        return "NonFiniteValue"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=psd_cases())
def test_psd_scan_matches_per_direction_contraction(case):
    t, dirs = case

    def primary(t, dirs):
        report = check_psd_c(t, dirs)
        if report.passed:
            return True, None, None
        return False, report.witness.direction, report.witness.residual

    def oracle(t, dirs):
        report = exhaustive_psd_check(t, dirs)
        return report.passed, report.direction, report.residual

    got = outcome(primary, t, dirs)
    assert got == outcome(reference_psd, t, dirs)
    if t.n <= 5:
        loops = outcome(oracle, t, dirs)
        if "NonFiniteValue" in (got, loops):
            assert loops == got
        else:
            assert loops[:2] == got[:2]
            if not got[0]:
                assert loops[2] == pytest.approx(got[2], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_psd_scan_on_single_coordinate_directions(n):
    # One nonzero coordinate: only the y_a^2 row of the pair matrix counts.
    rng = np.random.default_rng(n)
    t = Tensor4(n, rng.integers(-3, 4, size=(n,) * 4).astype(float))
    dirs = [np.eye(n)[a] * c for a in range(n) for c in (1.0, -2.0, 0.5)] + [np.zeros(n)]
    report = check_psd_c(t, dirs)
    passed, direction, residual = reference_psd(t, dirs)
    assert report.passed == passed
    if not passed:
        assert report.witness == Witness(residual, direction=direction)


def sparse_skew(rng, n: int, couplings: int) -> np.ndarray:
    """Block-diagonal standard symplectic J (weighted blocks) plus
    ``couplings`` off-block entries: the J of a few canonical pairs."""
    J = np.zeros((n, n))
    for b in range(0, n - 1, 2):
        J[b, b + 1] = rng.uniform(0.5, 1.5)
    for c in range(couplings):
        p = 2 * (c * (n // 2) // couplings)
        J[p, (p + 3) % n] += rng.uniform(0.2, 0.6) * rng.choice((-1.0, 1.0))
    return J - J.T


def ray(J: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """gamma sym34(J (x) J) as an array."""
    raw = np.einsum("ik,jl->ijkl", J, J)
    return 0.5 * gamma * (raw + raw.transpose(0, 1, 3, 2))


def first_failure_at(values, dirs, affected, target, position):
    """``values`` and ``dirs`` reordered so that ``target`` comes at
    ``position``, after only directions ``affected`` rejects, and every other
    direction ``affected`` accepts comes after it (when ``position`` is None,
    only as many as keep ``target`` in the last block)."""
    clear = [y for y in dirs if not affected(y)]
    hit = [y for y in dirs if affected(y) and not np.array_equal(y, target)]
    if position is None:
        return values, clear + [target] + hit[: -(len(clear) + 1) % PSD_BLOCK]
    return values, clear[:position] + [target] + clear[position:] + hit


@functools.cache
def live_row_cases() -> dict:
    """id -> (tensor, directions, tol) of the live-row scan pin."""
    cases = []
    for n in (8, 16, 24, 32):
        rng = np.random.default_rng(3000 + n)
        J = sparse_skew(rng, n, n // 8 + 1)
        cases.append((f"ray-{n}", Tensor4(n, ray(J, rng.uniform(0.5, 2.0))), default_directions(n), DEFAULT_TOL))
    n = 24
    rng = np.random.default_rng(24)
    base, dirs, e = ray(sparse_skew(rng, n, 4)), list(default_directions(n)), np.eye(n)
    v = e[5] + 0.5 * e[9]  # sparse, so the perturbed M(y) stay narrow
    c, a, b = 7, 3, 17
    basis = base.copy()  # M(y) gains -y_c^2 v v^T
    basis[:, :, c, c] -= np.outer(v, v)
    pair = base.copy()  # M(y) gains -2 y_a y_b v v^T: e_a + e_b fails, e_a - e_b does not
    pair[:, :, a, b] -= np.outer(v, v)
    pair[:, :, b, a] -= np.outer(v, v)
    for where, position in (("first", 10), ("middle", 4 * PSD_BLOCK + 20), ("last", None)):
        for kind, values, affected, target in (
            ("basis", basis, lambda y: y[c] != 0.0, e[c]),
            ("pair", pair, lambda y: y[a] * y[b] != 0.0, e[a] + e[b]),
        ):
            values, reordered = first_failure_at(values, dirs, affected, target, position)
            cases.append((f"{kind}-{where}", Tensor4(n, values), reordered, DEFAULT_TOL))
    J = sparse_skew(rng, 16, 2)
    J[10:], J[:, 10:] = 0.0, 0.0  # rows 11-16 of every M(y) are zero
    cases.append(("zero-rows", Tensor4(16, ray(J)), default_directions(16), DEFAULT_TOL))
    cases.append(("zero-rows-tol-0", Tensor4(16, ray(J)), default_directions(16), 0.0))
    cases.append(("zero-tensor", Tensor4.zeros(8), default_directions(8), DEFAULT_TOL))
    for draw, (n, ranks, indefinite, sparse) in enumerate([
        (8, (2, 2), False, True), (16, (3, 2), False, True), (16, (2, 3), True, True),
        (8, (3, 3), True, False), (16, (2, 2), False, False),
    ]):
        t, _ = kulkarni_nomizu_member(4000 + draw, n, ranks, indefinite, sparse)
        name = f"kn-{n}-{'indefinite' if indefinite else 'positive'}-{'sparse' if sparse else 'dense'}"
        cases.append((name, t, default_directions(n), DEFAULT_TOL))
    huge = default_directions(8)
    huge[40, 2] = 1e200
    cases.append(("overflow", Tensor4(8, ray(sparse_skew(rng, 8, 1))), huge, DEFAULT_TOL))
    return {name: case for name, *case in cases}


LIVE_ROW_CASES = [
    *(f"ray-{n}" for n in (8, 16, 24, 32)),
    *(f"{kind}-{where}" for where in ("first", "middle", "last") for kind in ("basis", "pair")),
    "zero-rows", "zero-rows-tol-0", "zero-tensor",
    "kn-8-positive-sparse", "kn-16-positive-sparse", "kn-16-indefinite-sparse",
    "kn-8-indefinite-dense", "kn-16-positive-dense", "overflow",
]


@pytest.mark.parametrize("name", LIVE_ROW_CASES)
def test_live_row_scan_matches_full_solves_bit_for_bit(name):
    t, dirs, tol = live_row_cases()[name]

    def scan(t, dirs, tol):
        report = check_psd_c(t, dirs, tol)
        witness = report.witness
        return (True, None, None) if report.passed else (False, witness.direction, witness.residual)

    got = outcome(scan, t, dirs, tol)
    assert got == outcome(reference_psd, t, dirs, tol)
    assert (got == "NonFiniteValue") == (name == "overflow")
    if name.startswith(("basis", "pair")):
        assert not got[0]


def recording_judge(monkeypatch) -> list:
    """Record (width, smallest eigenvalues) of every stack the scan judges."""
    seen, judge = [], tensor_module._judge

    def recorded(M, bound, scratch):
        out = judge(M, bound, scratch)
        seen.append((M.shape[-1], out[2].copy()))
        return out

    monkeypatch.setattr(tensor_module, "_judge", recorded)
    return seen


def test_rows_read_with_zero_weight_are_not_live(monkeypatch):
    # Uncoupled canonical pairs: M(e_a) = J[:, a] J[:, a]^T has one live row.
    n = 16
    J = sparse_skew(np.random.default_rng(16), n, 0)
    t = Tensor4(n, ray(J))
    e = np.eye(n)
    single = [c * e[a] for a in range(n) for c in (1.0, -2.0, 0.5)]
    # y = 0 reads rows 0, n - 1, ... with zero weights; so do coordinates
    # whose products underflow to 0.
    vanishing = [np.zeros(n), 5e-324 * (e[0] + e[n - 1]), 1e-200 * e[3], 1e-170 * (e[1] - e[2])]
    seen = recording_judge(monkeypatch)
    for dirs, width in ((single, 1), (vanishing, 1), (single + vanishing, 1)):
        seen.clear()
        report = check_psd_c(t, dirs)
        assert [w for w, _ in seen] == [width] * len(seen)
        assert (report.passed, None) == reference_psd(t, dirs)[:2] == (True, None)


@pytest.mark.parametrize("first", ["dense", "sparse"])
def test_mixed_block_reports_the_first_failure_in_list_order(first):
    # Integer data: every M(y) is exact, so dense directions compare bit for bit too.
    n, c = 6, 2
    rng = np.random.default_rng(6)
    J = rng.integers(-2, 3, size=(n, n)).astype(float)
    values = 2 * ray(J - J.T)
    values[:, :, c, c] -= np.outer([1.0, 0, 0, 2.0, 0, 1.0], [1.0, 0, 0, 2.0, 0, 1.0])
    e = np.eye(n)
    clear = [e[0], e[1] - e[4], rng.integers(-3, 4, size=n).astype(float), 2 * e[5], e[3] + e[5]]
    for y in clear:
        y[c] = 0.0
    dense_fail = np.array([1.0, -1.0, 2.0, 0.0, 1.0, 3.0])
    sparse_fail = e[c] - 3 * e[4]
    failing = [dense_fail, sparse_fail] if first == "dense" else [sparse_fail, dense_fail]
    dirs = clear[:3] + [failing[0]] + clear[3:] + [failing[1]] + [e[c]] * 20
    t = Tensor4(n, values)
    report = check_psd_c(t, dirs)
    assert report.witness.direction == tuple(failing[0])
    assert (False, report.witness.direction, report.witness.residual) == reference_psd(t, dirs)


def test_a_narrow_failure_stands_only_if_the_full_solve_confirms_it(monkeypatch):
    # Search sparse family members for a direction whose live block puts its
    # smallest eigenvalue below the n x n one (rounding noise of a singular
    # M(y)), then put -bound between the two: the verdict follows the n x n
    # solve, and the scan goes on to a later failure.
    seen = recording_judge(monkeypatch)
    for seed in range(20):
        t, _ = kulkarni_nomizu_member(seed, 8, (2, 2), sparse=True)
        for y in default_directions(8)[:64]:
            seen.clear()
            check_psd_c(t, [y], 0.0)
            (width, (lam,)), = seen
            narrow, full = min(lam, 0.0), reference_psd(t, [y], 0.0)[2]
            if width < 8 and full is not None and narrow < full:
                break
        else:
            continue
        break
    else:
        pytest.fail("no direction with a live eigenvalue below the n x n one")
    tol = -0.5 * (narrow + min(full, 0.0)) / (t.max_abs() * float(y @ y))
    bound = tol * t.max_abs() * float(y @ y)
    assert narrow < -bound <= full
    assert check_psd_c(t, [y], tol).passed and reference_psd(t, [y], tol)[0]
    # e_m, m off y's support, fails once t[m, m, m, m] drops by max|t|; M(y),
    # max|t| and the block's widest live set stay as they were.
    m = int(np.flatnonzero(y == 0.0)[-1])
    values = t.values.copy()
    values[m, m, m, m] -= t.max_abs()
    bad, e_m = Tensor4(8, values), np.eye(8)[m]
    assert bad.max_abs() == t.max_abs()
    dirs = [y] + [np.zeros(8)] * (PSD_BLOCK - 1) + [e_m]
    seen.clear()
    report = check_psd_c(bad, dirs, tol)
    assert seen[0][1][0] == lam and min(lam, 0.0) < -bound  # flagged by the live block
    assert report.witness.direction == tuple(e_m)
    assert (False, tuple(e_m), report.witness.residual) == reference_psd(bad, dirs, tol)


# ---------------------------------------------------- Cholesky screen
#
# ``_judge`` passes a whole stack without ``eigvalsh`` when one Cholesky
# factorization of S + (bound - delta) I succeeds. ``reference_judge`` is the
# judge with ``eigvalsh`` alone. Where lambda_min(S) sits within 4 delta of
# -bound, and for y = 0, tol = 0, the zero tensor, a non-finite M + M^T and
# tensors scaled by 2^+-500, both must give the same verdicts, and the same
# residuals, bit for bit, wherever a direction fails.

ROUNDOFF = np.finfo(float).eps / 2


def reference_judge(M, bound, scratch=None):
    """Whether M + M^T and ``bound`` are finite, max|M - M^T|, and the
    smallest ``eigvalsh`` eigenvalue of (M + M^T) / 2, a non-finite one zeroed."""
    Mt = M.transpose(0, 2, 1)
    twice = M + Mt
    finite = np.isfinite(twice).all(axis=(1, 2)) & np.isfinite(bound)
    twice[~finite] = 0.0
    return finite, np.abs(M - Mt).max(axis=(1, 2)), np.linalg.eigvalsh(0.5 * twice)[:, 0]


def screen_margin(S, bound):
    """The screen's delta, per matrix, as ``_judge`` states it."""
    K = S.shape[-1]
    top = np.abs(S).max(axis=(1, 2))
    return (K + 1) * K * ROUNDOFF * ((8 * K + 2) * top + 2 * bound) + (K + 1) * K * np.finfo(float).tiny


def stack_verdicts(judge, M, bound):
    """(failing, residual) per matrix: the scan's tests on a judge's output."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite, asym, lam = judge(M, bound, np.empty((2, M.size)))
    asym_fail = asym > bound
    return ~finite | asym_fail | (lam < -bound), np.where(asym_fail, asym, lam)


def assert_judged_alike(M, bound) -> bool:
    """``_judge`` and the reference agree on every verdict and on every
    failing residual; returns whether the stack holds a failure."""
    failing, residual = stack_verdicts(tensor_module._judge, M, bound)
    expected, reference = stack_verdicts(reference_judge, M, bound)
    np.testing.assert_array_equal(failing, expected)
    np.testing.assert_array_equal(residual[failing], reference[failing])
    return bool(expected.any())


def edge_stacks(K: int, seed: int):
    """Stacks of 8 symmetric K x K matrices, each with a bound: the matrix at
    a seeded position has lambda_min(S) at -bound + f, f over +-4 delta in
    steps of delta / 4 and over +-j u max|S| (j = 2^-4 ... 2^6), where rounding
    decides; the others are PSD with min(2, K - 1) zero eigenvalues and
    pass by a wide margin. Yields (f / delta, M, bound); the edge matrix fails just when
    f < 0, up to rounding."""
    rng = np.random.default_rng(seed)
    edge, M = int(rng.integers(8)), np.empty((8, K, K))
    for b in range(8):
        Q = np.linalg.qr(rng.standard_normal((K, K)))[0]
        lam = np.concatenate([[0.0] * min(2, K - 1), rng.uniform(0.5, 2.0, K - min(2, K - 1))])
        lam[0] = -1e-6 if b == edge else lam[0]
        M[b] = (Q * lam) @ Q.T
    M = 0.5 * (M + M.transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(M)[:, 0]
    bound = np.maximum(-lam, 0.0) + 1e-3
    delta = screen_margin(M, bound)[edge]
    top = np.abs(M[edge]).max()
    steps = [k * delta / 4 for k in range(-16, 17)]
    steps += [s * j * ROUNDOFF * top for j in 2.0 ** np.arange(-4, 7) for s in (-1.0, 1.0)]
    for f in steps:
        b = bound.copy()
        b[edge] = -lam[edge] + f
        yield f / delta, M, b


@pytest.mark.parametrize("K", [1, 2, 3, 6, 24])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_screen_agrees_with_eigvalsh_at_the_edge(K, seed):
    held = {}
    for offset, M, bound in edge_stacks(K, seed):
        held[offset] = assert_judged_alike(M, bound)
        if offset >= 2.0:  # clear of the margin, one factorization passes the stack
            assert np.array_equal(tensor_module._judge(M, bound, np.empty((2, M.size)))[2], -bound)
    # Well inside the band the verdicts are those of the offset's sign.
    assert all(held[k] for k in held if k < -1.0) and not any(held[k] for k in held if k > 1.0)


def test_screen_agrees_with_eigvalsh_on_zero_and_non_finite_stacks():
    rng = np.random.default_rng(7)
    psd = np.stack([np.outer(v, v) for v in rng.standard_normal((6, 4))])
    zero = np.zeros((6, 4, 4))
    overflow = psd.copy()
    overflow[2, 0, 0] = 1.5e308  # finite, but M + M^T is not
    infinite = psd.copy()
    infinite[4, 1, 2] = np.inf
    for M, bound in [
        (psd, np.full(6, 1e-9)), (psd, np.zeros(6)), (zero, np.zeros(6)), (zero, np.full(6, 1e-9)),
        (overflow, np.full(6, 1e-9)), (infinite, np.full(6, 1e-9)), (psd, np.array([1e-9] * 5 + [np.inf])),
    ]:
        assert_judged_alike(M, bound)


def check_both(t, dirs, tol, monkeypatch):
    """(scan outcome, eigvalsh-only scan outcome) of one check."""

    def scan():
        report = check_psd_c(t, dirs, tol)
        witness = report.witness
        return (True, None, None) if report.passed else (False, witness.direction, witness.residual)

    got = outcome(scan)
    with monkeypatch.context() as m:
        m.setattr(tensor_module, "_judge", reference_judge)
        return got, outcome(scan)


def smallest_eigenvalue(t, y, monkeypatch) -> tuple:
    """(width, lambda_min, delta) of the S the scan judges for y alone."""
    seen = []

    def recorded(M, bound, scratch):
        out = reference_judge(M, bound)
        seen.append((M.shape[-1], out[2][0], screen_margin(0.5 * (M + M.transpose(0, 2, 1)), bound)[0]))
        return out

    with monkeypatch.context() as m:
        m.setattr(tensor_module, "_judge", recorded)
        check_psd_c(t, [y], 0.0)
    return seen[0]


@functools.cache
def scan_edge_cases() -> dict:
    """id -> (t, dirs, edge direction): ``ray`` minus 1e-6 y_c^2 v v^T, and
    the standard directions with y_c = 0, e_c put 20th. Only e_c can fail.
    "narrow": sparse J and v, so M(e_c) has a few live rows; "full": a dense
    J, so every row is live."""
    cases = {}
    for width, n in (("narrow", 16), ("full", 8)):
        rng = np.random.default_rng(n)
        c, v = 4, np.zeros(n)
        if width == "narrow":
            J = sparse_skew(rng, n, 2)
            v[[c ^ 1, (c + 5) % n]] = (1.0, 0.5)
        else:
            J, v = random_skew(rng, n).array, rng.standard_normal(n)
        values = ray(J)
        values[:, :, c, c] -= 1e-6 * np.outer(v, v)
        clear = [y for y in default_directions(n) if y[c] == 0.0]
        cases[width] = (Tensor4(n, values), clear[:20] + [np.eye(n)[c]] + clear[20:], np.eye(n)[c])
    return cases


@pytest.mark.parametrize("width", ["narrow", "full"])
@pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500])
def test_scan_with_screen_matches_eigvalsh_only_scan_at_the_edge(width, scale, monkeypatch):
    t, dirs, y = scan_edge_cases()[width]
    K, lam, delta = smallest_eigenvalue(t, y, monkeypatch)
    assert (K < t.n) == (width == "narrow") and lam < 0.0
    t = Tensor4(t.n, scale * t.values)
    for k in range(-16, 17, 2):
        # -bound = lam - k delta / 4, up to the rounding of tol * max|t|
        tol = (-lam + k * delta / 4) * scale / t.max_abs()
        got, expected = check_both(t, dirs, tol, monkeypatch)
        assert got == expected
        if k:
            assert got[:2] == ((True, None) if k > 0 else (False, tuple(y)))


@pytest.mark.parametrize("name", ["ray-16", "zero-tensor", "zero-rows-tol-0", "kn-16-indefinite-sparse"])
def test_scan_with_screen_matches_eigvalsh_only_scan_on_degenerate_input(name, monkeypatch):
    t, dirs, tol = live_row_cases()[name]
    dirs = np.concatenate([np.zeros((3, t.n)), dirs])  # y = 0 first: a zero M(y) with a zero bound
    for tol in (tol, 0.0):
        got, expected = check_both(t, dirs, tol, monkeypatch)
        assert got == expected
    huge = dirs.copy()
    huge[70, 1] = 1e200  # M(y) overflows in the second block
    got, expected = check_both(t, huge, DEFAULT_TOL, monkeypatch)
    assert got == expected


def counting(monkeypatch, name) -> list:
    """Record the shape of every ``np.linalg.<name>`` argument, as
    ``ciph.tensor`` calls it."""
    shapes, original = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(tensor_module.np.linalg, name, counted)
    return shapes


@functools.cache
def passing_scans() -> dict:
    rng = np.random.default_rng(5)
    return {
        "sparse-ray-24": live_row_cases()["ray-24"][0],
        "dense-ray-16": Tensor4(16, ray(random_skew(rng, 16).array, 1.5)),
        "dense-ray-24-scaled-up": Tensor4(24, 2.0**500 * ray(random_skew(rng, 24).array)),
        "dense-ray-8-scaled-down": Tensor4(8, 2.0**-500 * ray(random_skew(rng, 8).array)),
        "kn-16-dense": kulkarni_nomizu_member(16, 16, (3, 3))[0],
        "kn-24-sparse": kulkarni_nomizu_member(24, 24, (3, 2), sparse=True)[0],
    }


def live_width(values: np.ndarray, y: np.ndarray) -> int:
    """How many rows of M(y) a direction with at most two nonzero
    coordinates reaches, from the tensor's entries alone: row i is live when
    t[i, :, k, l] or t[:, i, k, l] holds a nonzero for a term (k, l) of y's
    support whose weight y_k y_l is nonzero (a == b keeps only the first)."""
    n = len(y)
    support = np.flatnonzero(y)
    a, b = (support[0], support[-1]) if len(support) else (0, n - 1)
    live = np.zeros(n, bool)
    with np.errstate(over="ignore"):
        for k, l in [(a, a)] if a == b else [(a, a), (a, b), (b, a), (b, b)]:
            if y[k] * y[l] != 0.0:
                slab = values[:, :, k, l] != 0.0
                live |= slab.any(axis=1) | slab.any(axis=0)
    return int(np.count_nonzero(live))


def block_stacks(t: Tensor4, dirs) -> list:
    """Shapes of the stacks a scan of ``dirs`` that runs to the end judges,
    in order. Each block is the longest run of B directions with
    B K^2 <= PSD_BLOCK n^2, K the widest of their widths: a direction with
    at most two nonzero coordinates has its live width (at least 1), any
    other has n. A block's sparse directions make one (count, K', K') stack,
    K' the widest of their live widths, then its others one (count, n, n)
    stack."""
    n, dirs = t.n, np.asarray(dirs, dtype=float)
    sparse = [np.count_nonzero(y) <= 2 for y in dirs]
    width = [max(live_width(t.values, y), 1) if s else n for y, s in zip(dirs, sparse)]
    stacks, start = [], 0
    while start < len(dirs):
        stop, K = start + 1, width[start]
        while stop < len(dirs) and (stop + 1 - start) * max(K, width[stop]) ** 2 <= PSD_BLOCK * n * n:
            stop, K = stop + 1, max(K, width[stop])
        on_support = [w for w, s in zip(width[start:stop], sparse[start:stop]) if s]
        stacks += [(len(on_support), max(on_support), max(on_support))] if on_support else []
        stacks += [(stop - start - len(on_support), n, n)] if stop - start > len(on_support) else []
        start = stop
    return stacks


@pytest.mark.parametrize("name", ["sparse-ray-24", "dense-ray-16", "dense-ray-24-scaled-up",
                                  "dense-ray-8-scaled-down", "kn-16-dense", "kn-24-sparse"])
def test_a_passing_scan_calls_no_eigvalsh(name, monkeypatch):
    t = passing_scans()[name]
    solved, factored = counting(monkeypatch, "eigvalsh"), counting(monkeypatch, "cholesky")
    assert check_psd_c(t, default_directions(t.n)).passed
    expected = block_stacks(t, default_directions(t.n))
    assert solved == [] and len(factored) == len(expected) and factored == expected


def growth_cases() -> dict:
    """id -> (tensor, directions) of passing scans that pin the block rule:
    ``ray-24``'s sparse directions (live widths 1 to 4, the widest not first)
    five times over, so the first block stops at its cap; with a random
    direction after 100 of them, or after 10, inside the first PSD_BLOCK;
    alternating with the random directions; and a dense ray, whose sparse
    directions are all full width."""
    t = live_row_cases()["ray-24"][0]
    dirs = default_directions(24)
    sparse, dense = dirs[: 24 * 24], dirs[24 * 24 :]
    alternating = np.stack([sparse[:128], np.resize(dense, (128, 24))], axis=1).reshape(-1, 24)
    return {
        "capped": (t, np.concatenate([np.tile(sparse, (5, 1)), dense])),
        "cut-by-dense": (t, np.concatenate([sparse[:100], dense[:1], sparse[100:], sparse, dense[1:]])),
        "dense-in-first-block": (t, np.concatenate([sparse[:10], dense[:1], sparse[10:], sparse, dense[1:]])),
        "alternating": (t, alternating),
        "dense-ray": (passing_scans()["dense-ray-16"], np.tile(default_directions(16), (2, 1))),
    }


@pytest.mark.parametrize("name", ["capped", "cut-by-dense", "dense-in-first-block", "alternating", "dense-ray"])
def test_blocks_follow_the_growth_rule(name, monkeypatch):
    t, dirs = growth_cases()[name]
    n = t.n
    solved, factored = counting(monkeypatch, "eigvalsh"), counting(monkeypatch, "cholesky")
    assert check_psd_c(t, dirs).passed
    assert solved == [] and factored == block_stacks(t, dirs)
    widths = [live_width(t.values, y) for y in dirs]  # read only where y is sparse
    if name == "capped":  # the largest first block the scratch allows, K its widest live set
        (B, K, _), cap = factored[0], PSD_BLOCK * n * n
        assert K == max(widths[:B]) > widths[0]
        assert B > PSD_BLOCK and B * K**2 <= cap < (B + 1) * max(K, widths[B]) ** 2
    if name == "cut-by-dense":  # the first block stops at the dense direction, which starts a block of 64
        K = max(widths[:100])
        assert factored[:3] == [(100, K, K), (PSD_BLOCK - 1, max(widths[101:164]), max(widths[101:164])), (1, n, n)]
    if name == "dense-in-first-block":  # a dense direction keeps its block at PSD_BLOCK; the next one grows
        K = max(widths[:10] + widths[11:PSD_BLOCK])
        assert factored[:2] == [(PSD_BLOCK - 1, K, K), (1, n, n)] and factored[2][0] > PSD_BLOCK
    if name == "alternating":  # every block holds a dense direction, so each has PSD_BLOCK
        expected = []
        for start in range(0, len(dirs), PSD_BLOCK):
            K = max(widths[start : start + PSD_BLOCK : 2])
            expected += [(PSD_BLOCK // 2, K, K), (PSD_BLOCK // 2, n, n)]
        assert factored == expected
    if name == "dense-ray":  # every live set is full, so no block grows
        assert factored == [(PSD_BLOCK, n, n)] * (len(dirs) // PSD_BLOCK)


def test_the_cut_looks_no_further_than_a_block_can_grow(monkeypatch):
    # A dense tensor makes every sparse direction n rows wide, so no block
    # grows past PSD_BLOCK, and the cut must not track a running K over the
    # rest of a long list of sparse directions for each block.
    n = 8
    t = Tensor4(n, ray(random_skew(np.random.default_rng(8), n).array))
    dirs = np.tile(default_directions(n)[: n * n], (300, 1))
    read, maximum = [], np.maximum

    class Counted:
        def __call__(self, *args, **kwargs):
            return maximum(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(maximum, name)

        def accumulate(self, a, *args, **kwargs):
            read.append(len(a))
            return maximum.accumulate(a, *args, **kwargs)

    monkeypatch.setattr(tensor_module.np, "maximum", Counted())
    factored = counting(monkeypatch, "cholesky")
    assert check_psd_c(t, dirs).passed
    assert factored == [(PSD_BLOCK, n, n)] * (len(dirs) // PSD_BLOCK)
    assert read == []


@pytest.mark.parametrize("name, confirmed", [
    ("basis-middle", True), ("pair-last", True), ("kn-16-indefinite-sparse", True), ("dense-first", False),
])
def test_a_failing_scan_solves_only_the_stack_of_its_first_failure(name, confirmed, monkeypatch):
    if name == "dense-first":
        t = symmetrize_34(Tensor4(16, np.random.default_rng(3).standard_normal((16,) * 4)))
        dirs, tol = default_directions(16)[::-1], DEFAULT_TOL  # the 64 random directions first
    else:
        t, dirs, tol = live_row_cases()[name]
    judged = []
    judge = tensor_module._judge
    monkeypatch.setattr(tensor_module, "_judge", lambda M, b, s: judged.append(M.shape) or judge(M, b, s))
    solved = counting(monkeypatch, "eigvalsh")
    report = check_psd_c(t, dirs, tol)
    assert not report.passed
    assert solved[:1] == judged[-1:]  # the last stack judged holds the first failure
    assert solved[1:] == ([(t.n, t.n)] if confirmed else [])


def test_a_non_finite_stack_is_not_factored(monkeypatch):
    M = np.stack([np.eye(3)] * 4)
    factored, solved = counting(monkeypatch, "cholesky"), counting(monkeypatch, "eigvalsh")
    assert not stack_verdicts(tensor_module._judge, M, np.full(4, 1e-9))[0].any()
    assert (len(factored), solved) == (1, [])
    M[2, 0, 0] = 1.5e308  # finite, but M + M^T is not
    assert stack_verdicts(tensor_module._judge, M, np.full(4, 1e-9))[0].tolist() == [False, False, True, False]
    assert (len(factored), solved) == (1, [(4, 3, 3)])


# ----------------------------------------------------- index checkers
#
# The checkers' rule written as plain numpy: each residual as a chain of
# numpy sums over all n^4 positions (RAW_III halved where two of i, k, l
# coincide, with np.where), bounded by tol * max|t|, the witness from
# np.where masks. The checkers read either strided views of the whole tensor
# or operands gathered on the orbit of its nonzero positions; both layouts
# must give these reports.


def _perm(v, pattern):
    return np.einsum(f"{pattern}->ijkl", v)


def _ref_witness(residuals, entries, tol):
    mask = residuals > tol * np.abs(entries).max()
    if not mask.any():
        return None
    keyed = np.where(mask, np.abs(entries), -1.0)
    idx = np.unravel_index(int(np.argmax(keyed)), residuals.shape)
    return Witness(float(residuals[idx]), index=tuple(int(v) + 1 for v in idx))


def res_sym_a(v):
    return np.abs(v - _perm(v, "ijlk"))


def res_cyclic_b(v):
    return np.abs(v + _perm(v, "kjli") + _perm(v, "ljik"))


def res_quasi_poisson(v):
    return np.abs(v + _perm(v, "ljki"))


def res_raw_iii(v):
    n = v.shape[0]
    six = np.abs(
        v + _perm(v, "kjil") + _perm(v, "kjli") + _perm(v, "ljki") + _perm(v, "ijlk")
        + _perm(v, "ljik")
    )
    ii, kk, ll = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    distinct = (ii != kk) & (ii != ll) & (kk != ll)
    return np.where(distinct[:, None, :, :], six, 0.5 * six)


INDEX_CHECKS = [
    (check_sym_a, res_sym_a),
    (check_cyclic_b, res_cyclic_b),
    (check_raw_iii, res_raw_iii),
    (check_quasi_poisson, res_quasi_poisson),
]


def few_entries(rng, n: int, count: int, values) -> Tensor4:
    """``count`` entries at distinct random positions, values drawn from ``values``."""
    flat = rng.choice(n**4, size=min(count, n**4), replace=False)
    index = np.array(np.unravel_index(flat, (n,) * 4)).T + 1
    return Tensor4.from_entries(n, [(*map(int, ijkl), float(rng.choice(values))) for ijkl in index])


def sparse_tensors(n: int, rng) -> list[Tensor4]:
    """Sparse members: a check-sparse-style tensor gamma sym34(J (x) J) at
    an even size up to 24 (raw, and with SYM_A broken), random few-entry
    tensors, a single entry, the zero tensor, sparse +-1.5e308 entries,
    -0.0 entries, and a file with explicit zero entries."""
    m = 2 * ((3 * n + 1) // 2)  # 4, 6, 10, ..., 24 for n = 1..8
    J = sparse_skew(rng, m, m // 8 + 1)
    raw = np.einsum("ik,jl->ijkl", J, J)
    sym = 0.5 * rng.uniform(0.5, 2.0) * (raw + raw.transpose(0, 1, 3, 2))
    w = np.zeros(m)
    w[[1, m - 2]] = rng.uniform(0.5, 1.0, size=2)
    A = np.zeros((m, m))
    A[0, m - 1], A[m - 1, 0] = 1.0, -1.0
    broken = sym + 0.3 * np.einsum("i,j,kl->ijkl", w, w, A)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zeros.json"
        listed = {(1, 1, 1, 1): 0, (n, 1, 1, n): 2.5, (1, n, n, 1): 0.0, (n, n, 1, 1): -0.0}
        entries = [dict(zip("ijklv", (*key, v))) for key, v in listed.items()]
        path.write_text(json.dumps({"n": n, "entries": entries}))
        from_file = load_tensor(path)
    return [
        Tensor4.from_entries(m, [(*(idx + 1), sym[tuple(idx)]) for idx in np.argwhere(sym)]),
        Tensor4(m, raw),
        Tensor4(m, broken),
        few_entries(rng, n, int(rng.integers(2, 6)), [-2.0, -1.0, 0.5, 1.0, 3.0]),
        few_entries(rng, n, 3, [1.0]),
        few_entries(rng, n, 1, [-0.75]),
        Tensor4.zeros(n),
        Tensor4.from_entries(n, []),
        few_entries(rng, n, 6, [-1.5e308, 1.5e308]),
        few_entries(rng, n, 4, [-0.0]),
        Tensor4.from_entries(n, {(1, 1, 1, 1): -0.0, (n, 1, 1, n): 1.0}),
        from_file,
    ]


def index_tensors(n: int, rng) -> list[Tensor4]:
    shape = (n,) * 4
    J, K = random_skew(rng, n), random_skew(rng, n)
    raw = product_tensor(J, J)
    big = rng.choice([-1.5e308, 0.0, 1.5e308], size=shape)
    return [
        Tensor4(n, rng.standard_normal(shape)),
        raw,
        product_tensor(J, K),
        symmetrize_34(raw),
        symmetrize_34(Tensor4(n, rng.standard_normal(shape))),
        Tensor4(n, big),
        symmetrize_34(Tensor4(n, big)),
        Tensor4(n, np.where(rng.random(shape) < 0.3, 1.5e308, raw.values)),
        *sparse_tensors(n, rng),
        # Kulkarni-Nomizu family members: a dense cone member and, from n = 3
        # (mu needs a direction to spare), a sparse indefinite one
        *(kulkarni_nomizu_member(int(rng.integers(2**32)), n, (2, n - 1), odd, odd)[0] for odd in (False, n > 2)),
    ]


# ORBIT_CROSSOVER settings: the layout the tensor calls for, then gathered
# operands and strided views forced
LAYOUTS = [(None, None), (1.0, True), (-1.0, False)]


@pytest.mark.parametrize("n", range(1, 9))
def test_index_checkers_bit_identical_to_reference(n, monkeypatch):
    for crossover, gathered in LAYOUTS:
        if crossover is not None:
            monkeypatch.setattr(tensor_module, "ORBIT_CROSSOVER", crossover)
        for t in index_tensors(n, np.random.default_rng(1000 + n)):
            for tol in (DEFAULT_TOL, 0.0, 1e-3):
                for check, residuals in INDEX_CHECKS:
                    report = check(t, tol)
                    with np.errstate(over="ignore"):
                        want = _ref_witness(residuals(t.values), t.values, tol)
                    assert report.passed == (want is None), check.__name__
                    assert report.witness == want, check.__name__
                    if want is not None:  # Witness equality compares residuals with ==
                        assert report.witness.residual == want.residual
            if gathered is not None:
                assert (t._slot_operands().positions is not None) == gathered


@pytest.mark.parametrize("n", [2, 5, 8])
def test_orbit_covers_every_nonzero_residual(n):
    for t in index_tensors(n, np.random.default_rng(2000 + n)):
        positions = t._slot_operands().positions
        if positions is None:  # strided views: the whole tensor
            continue
        for _, residuals in INDEX_CHECKS:
            with np.errstate(over="ignore"):
                nonzero = np.flatnonzero(residuals(t.values))
            assert np.isin(nonzero, positions).all()
        # the orbit is the nonzero positions' images under slots (1, 3, 4)
        moved = {tuple(v[[a, 1, b, c]]) for v in np.argwhere(t.values) for a, b, c in
                 ((0, 2, 3), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 0, 2), (3, 2, 0))}
        orbit = set(map(tuple, np.array(np.unravel_index(positions, t.values.shape)).T))
        assert moved <= orbit


def test_check_sparse_tensor_never_takes_strided_views(monkeypatch, tmp_path):
    rng = np.random.default_rng(24)
    J = sparse_skew(rng, 24, 4)
    raw = np.einsum("ik,jl->ijkl", J, J)
    t = 0.5 * (raw + raw.transpose(0, 1, 3, 2))
    t[1, 2, 0, 23] += 0.25  # SYM_A broken at (2, 3, 1, 24)
    path = tmp_path / "t.json"
    save_tensor(Tensor4(24, t), path)

    def views(*args):
        raise AssertionError("strided views taken")

    monkeypatch.setattr(tensor_module, "_rearranged", views)
    for loaded in (load_tensor(path), Tensor4(24, t)):
        for check, residuals in INDEX_CHECKS:
            report, want = check(loaded), _ref_witness(residuals(t), t, DEFAULT_TOL)
            assert (report.passed, report.witness) == (want is None, want)
    assert check_sym_a(load_tensor(path)).witness.index == (2, 3, 1, 24)


def test_set_starts_a_tensor_without_the_cached_orbit():
    J = sparse_skew(np.random.default_rng(8), 8, 2)
    t = symmetrize_34(product_tensor(BracketMatrix(J), BracketMatrix(J)))
    assert check_sym_a(t).passed
    orbit = t._slot_operands().positions
    # the first position off the orbit whose last two slots differ
    off = np.setdiff1d(np.arange(8**4), orbit)
    index = next(idx for idx in zip(*np.unravel_index(off, (8,) * 4)) if idx[2] != idx[3])
    index = tuple(int(v) + 1 for v in index)
    report = check_sym_a(t.set(*index, 10.0))
    assert not report.passed and report.witness == Witness(10.0, index=index)
    assert check_sym_a(t).passed


def test_equality_and_hash_ignore_the_cache():
    rng = np.random.default_rng(4)
    seeded = few_entries(rng, 5, 7, [1.0, -2.0])
    plain = Tensor4(5, seeded.values)
    assert seeded == plain and hash(seeded) == hash(plain)
    check_raw_iii(seeded)
    assert seeded._operands is not None and plain._operands is None
    assert seeded == plain and hash(seeded) == hash(plain)
    check_raw_iii(plain)
    assert seeded == plain and hash(seeded) == hash(plain)
    assert seeded != seeded.set(1, 1, 1, 1, 5.0)


# ------------------------------------------------- standard directions


def loop_directions(n: int, seed: int) -> list[np.ndarray]:
    """The direction set written as its definition: basis vectors, then
    e_i + e_j and e_i - e_j for i < j in row-major order, then the seeded
    random unit vectors."""
    eye = np.eye(n)
    dirs = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            dirs += [eye[i] + eye[j], eye[i] - eye[j]]
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_DIRECTIONS):
        v = rng.standard_normal(n)
        dirs.append(v / float(np.linalg.norm(v)))
    return dirs


@pytest.mark.parametrize("seed", [DIRECTION_SEED, 7])
def test_default_directions_bytes_match_the_loop_definition(seed):
    for n in range(1, 33):
        got, want = default_directions(n, seed), loop_directions(n, seed)
        assert len(got) == len(want) == n * n + RANDOM_DIRECTIONS
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_default_directions_replace_a_zero_draw_by_the_first_basis_vector(monkeypatch):
    draws = np.random.default_rng(7).standard_normal((RANDOM_DIRECTIONS, 4))
    draws[5] = 0.0

    class Fixed:
        def standard_normal(self, size):
            assert size == draws.shape
            return draws.copy()

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Fixed())
    got = default_directions(4)[16:]
    for row, draw, a in zip(got, draws, range(RANDOM_DIRECTIONS)):
        want = np.eye(4)[0] if a == 5 else draw / np.linalg.norm(draw)
        assert row.tobytes() == want.tobytes()


# ---------------------------------------------------------- Tensor4 copies


def test_constructor_copies_the_callers_array():
    arr = np.arange(16.0).reshape(2, 2, 2, 2)
    t = Tensor4(2, arr)
    arr[0, 0, 0, 0] = 99.0
    arr[1, 1, 1, 1] = -5.0
    assert t.get(1, 1, 1, 1) == 0.0
    assert t.get(2, 2, 2, 2) == 15.0
    assert np.array_equal(t.values, np.arange(16.0).reshape(2, 2, 2, 2))


def test_builders_return_independent_read_only_tensors():
    rng = np.random.default_rng(3)
    a = Tensor4(3, rng.standard_normal((3, 3, 3, 3)))
    before = a.values.copy()
    built = [
        a.set(1, 2, 3, 1, 7.0),
        symmetrize_34(a),
        linear_combine(0.0, a, a),
        Tensor4.from_entries(3, {(1, 1, 1, 1): 2.0}),
    ]
    for t in built:
        assert not t.values.flags.writeable
        assert not np.shares_memory(t.values, a.values)
    assert np.array_equal(a.values, before)
    assert built[0].get(1, 2, 3, 1) == 7.0
    assert a.get(1, 2, 3, 1) == before[0, 1, 2, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_builders_still_reject_non_finite_entries(bad):
    with pytest.raises(Exception, match="finite"):
        Tensor4(2, np.full((2, 2, 2, 2), bad))
    with pytest.raises(Exception, match="finite"):
        Tensor4.from_entries(2, [(1, 1, 1, 1, bad)])
