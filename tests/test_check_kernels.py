"""The fast paths of ``ciph check`` against plain references.

* The PSD scan builds M(y) from a direction's support when it has at most
  two nonzero coordinates; a per-direction ``contract_directions`` scan (and,
  at n <= 5, the loop oracle) must give the same report.
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
from ciph.verify import exhaustive_psd_check, random_skew


# ----------------------------------------------------------- PSD scan


def reference_psd(t: Tensor4, dirs, tol: float = DEFAULT_TOL):
    """(passed, direction, residual) from one ``contract_directions`` per
    direction, judged in list order: a direction whose M(y), M + M^T or
    bound ``tol * max|t| * |y|^2`` is not finite raises, and the first
    failing direction before it wins."""
    top = float(np.abs(t.values).max())
    for y in dirs:
        with np.errstate(over="ignore", invalid="ignore"):
            M = contract_directions(t, y)
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

    got, want = outcome(primary, t, dirs), outcome(reference_psd, t, dirs)
    if "NonFiniteValue" in (got, want):
        assert got == want
    else:
        assert got[:2] == want[:2]
        if not got[0]:
            assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)
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
