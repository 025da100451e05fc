"""The fast paths of ``ciph check`` against plain references.

* The PSD scan builds M(y) from a direction's support when it has at most
  two nonzero coordinates; a per-direction ``contract_directions`` scan (and,
  at n <= 5, the loop oracle) must give the same report.
* The index checkers sum slot permutations in one buffer; verdict, witness
  index and residual must equal those of the plain numpy expressions kept
  below.
* ``default_directions`` builds its basis and pair rows at once; its bytes
  must equal those of the loop that defines the set.
* ``Tensor4`` copies a caller's array, and its own builders do not alias
  one another's results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciph import (
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
# numpy sums (RAW_III halved where two of i, k, l coincide, with np.where),
# bounded by tol * max|t|, the witness from np.where masks.


def _perm(v, pattern):
    return np.einsum(f"{pattern}->ijkl", v)


def _ref_witness(residuals, entries, tol):
    mask = residuals > tol * np.abs(entries).max()
    if not mask.any():
        return None
    keyed = np.where(mask, np.abs(entries), -1.0)
    idx = np.unravel_index(int(np.argmax(keyed)), residuals.shape)
    return Witness(float(residuals[idx]), index=tuple(int(v) + 1 for v in idx))


def ref_sym_a(v, tol):
    return _ref_witness(np.abs(v - _perm(v, "ijlk")), v, tol)


def ref_cyclic_b(v, tol):
    return _ref_witness(np.abs(v + _perm(v, "kjli") + _perm(v, "ljik")), v, tol)


def ref_quasi_poisson(v, tol):
    return _ref_witness(np.abs(v + _perm(v, "ljki")), v, tol)


def ref_raw_iii(v, tol):
    n = v.shape[0]
    six = np.abs(
        v + _perm(v, "kjil") + _perm(v, "kjli") + _perm(v, "ljki") + _perm(v, "ijlk")
        + _perm(v, "ljik")
    )
    ii, kk, ll = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    distinct = (ii != kk) & (ii != ll) & (kk != ll)
    return _ref_witness(np.where(distinct[:, None, :, :], six, 0.5 * six), v, tol)


INDEX_CHECKS = [
    (check_sym_a, ref_sym_a),
    (check_cyclic_b, ref_cyclic_b),
    (check_raw_iii, ref_raw_iii),
    (check_quasi_poisson, ref_quasi_poisson),
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
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_index_checkers_bit_identical_to_reference(n):
    rng = np.random.default_rng(1000 + n)
    for t in index_tensors(n, rng):
        for tol in (DEFAULT_TOL, 0.0, 1e-3):
            for check, reference in INDEX_CHECKS:
                report = check(t, tol)
                with np.errstate(over="ignore"):
                    want = reference(t.values, tol)
                assert report.passed == (want is None), check.__name__
                assert report.witness == want, check.__name__
                if want is not None:  # Witness equality compares residuals with ==
                    assert report.witness.residual == want.residual


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
