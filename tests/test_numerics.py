"""Tests for the shared numerical kernels."""

import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sp4lr.errors import GridTooCoarse
from sp4lr.numerics import EXPM_TOL, central_diff, cumulative_simpson, eig4, expm, frobenius

RNG = np.random.default_rng(1234)


def random_matrix(n, norm):
    m = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    return m * (norm / max(np.abs(m).sum(axis=0).max(), 1e-12))


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(expm(np.zeros((4, 4))), np.eye(4))


def test_expm_diagonal():
    d = np.array([0.3, -1.2, 2.0 + 1.0j, -0.4j])
    np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13, atol=1e-13)


def test_expm_matches_taylor_oracle():
    for _ in range(10):
        m = random_matrix(4, 1.0)
        # 30-term Taylor sum as an independent oracle
        acc = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 31):
            term = term @ m / k
            acc += term
        np.testing.assert_allclose(expm(m), acc, rtol=0, atol=1e-12)


def test_expm_inverse_pairs():
    for norm in (0.5, 2.0, 5.0):
        m = random_matrix(4, norm)
        np.testing.assert_allclose(expm(m) @ expm(-m), np.eye(4), rtol=0, atol=1e-12)


def test_expm_batched_matches_scipy():
    ms = np.stack([random_matrix(4, RNG.uniform(0.1, 4.0)) for _ in range(12)])
    got = expm(ms)
    want = np.stack([scipy_expm(m) for m in ms])
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def _mixed_norm_stack():
    # 1-norms from 1e-3 to 50 in one stack; entry 1 (1-norm 2e-3) is
    # summed alone to order 4 with a truncation bound below 3e-16
    rng = np.random.default_rng(5)
    norms = np.geomspace(1e-3, 50.0, 12)
    norms[1] = 2e-3
    m = rng.standard_normal((12, 4, 4)) + 1j * rng.standard_normal((12, 4, 4))
    return m * (norms / np.abs(m).sum(axis=-2).max(axis=-1))[:, None, None]


def test_expm_mixed_norm_stack_matches_scipy():
    ms = _mixed_norm_stack()
    got = expm(ms)
    for g, m in zip(got, ms):
        want = scipy_expm(m)
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", ["taylor", "scaled", "mixed"])
def test_expm_real_stack_stays_real(case):
    # real arithmetic throughout: the same stack cast to complex gives the
    # same exponentials to a rounding unit of each matrix
    rng = np.random.default_rng(7)
    if case == "mixed":
        ms = _mixed_norm_stack().real
    else:
        ms = rng.standard_normal((6, 4, 4))
        ms *= (0.4 if case == "taylor" else 6.0) / np.abs(ms).sum(axis=-2).max(axis=-1)[:, None, None]
    got = expm(ms)
    assert got.dtype == float
    want = expm(ms.astype(complex))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max()


def test_expm_small_norm_matrix_ignores_its_stack():
    # each matrix has its own scaling exponent: the norm-50 neighbour
    # neither scales nor squares the small one
    ms = _mixed_norm_stack()
    inside, alone = expm(ms)[1], expm(ms[1])
    assert np.abs(inside - alone).max() <= 1e-15 * np.abs(alone).max()


def _taylor_order(theta, smax):
    """The order rule of ``expm`` restated: the least k whose remainder
    bound at the scaled 1-norm theta, amplified by 2**smax, is below EXPM_TOL."""
    def bound(k):
        return theta ** (k + 1) / math.factorial(k + 1) / (1.0 - theta / (k + 2)) * 2.0**smax

    k = 1
    while bound(k) >= EXPM_TOL:
        k += 1
    return k


def _order_cases():
    """One (k, smax) -> 1-norm per Taylor order the rule picks: unscaled
    norms up to 0.5 (smax = 0), and norms 2**smax * theta with the scaled
    norm theta in (0.25, 0.5] for smax = 1..6."""
    cases = {}
    for smax in range(7):
        thetas = np.geomspace(1e-9, 0.5, 300) if smax == 0 else np.linspace(0.26, 0.5, 25)
        for theta in thetas:
            cases.setdefault((_taylor_order(theta, smax), smax), theta * 2.0**smax)
    return cases


def _scaled_taylor(m, k, smax):
    """The degree-k Taylor sum of m / 2**smax term by term, squared smax times."""
    a = m / 2.0**smax
    acc = term = np.eye(4, dtype=complex)
    for j in range(1, k + 1):
        term = term @ a / j
        acc = acc + term
    for _ in range(smax):
        acc = acc @ acc
    return acc


def test_expm_every_taylor_order_matches_scipy():
    cases = _order_cases()
    orders = {k for k, _ in cases}
    assert {1, 4, 9} <= orders  # perfect squares, q = sqrt(k)
    assert {2, 6, 12} <= orders  # q = ceil(sqrt(k)) divides k: the top block reaches A**q
    assert {k for k, smax in cases if smax > 0} >= {10, 11, 12, 13}
    rng = np.random.default_rng(11)
    for (k, smax), norm in sorted(cases.items()):
        for _ in range(3):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m *= norm / np.abs(m).sum(axis=0).max()
            got = expm(m)
            want = scipy_expm(m)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (k, smax)
            # the same polynomial summed term by term: Paterson-Stockmeyer
            # only reassociates it, so they agree to a few rounding units
            ref = _scaled_taylor(m, k, smax)
            bound = 8 * 2.0**smax * np.finfo(float).eps * np.abs(ref).max()
            assert np.abs(got - ref).max() <= bound, (k, smax)


def test_expm_order_one_is_identity_plus_matrix():
    # a 1-norm below ~4.5e-7 takes k = 1, the q = 1 case with no Horner
    # step: exactly I + A, with the identity counted once
    m = random_matrix(4, 4e-7)
    np.testing.assert_array_equal(expm(m), np.eye(4) + m)
    np.testing.assert_array_equal(expm(np.stack([m, m])), np.stack([np.eye(4) + m] * 2))
    np.testing.assert_array_equal(expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_expm_single_matrix_and_empty_stack():
    m = random_matrix(4, 0.3)
    got = expm(m)
    assert got.shape == (4, 4)
    np.testing.assert_allclose(expm(m[None])[0], got, rtol=0, atol=1e-15)
    # a transposed (Fortran-ordered) input: the identity term still lands on the diagonal
    ms = np.stack([random_matrix(4, 0.3), random_matrix(4, 3.0)])
    np.testing.assert_allclose(expm(np.asfortranarray(ms)), expm(ms), rtol=0, atol=1e-15)
    np.testing.assert_allclose(expm(m.T), scipy_expm(m.T), rtol=0, atol=1e-13)
    # the dtype is result_type(m, float): a real stack stays real
    empty = expm(np.zeros((0, 4, 4)))
    assert empty.shape == (0, 4, 4) and empty.dtype == float
    assert expm(np.zeros((0, 4, 4), dtype=complex)).dtype == complex


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        expm(np.zeros((3, 4)))


def test_eig4_diagonal():
    d = np.array([2.0, -1.0, 0.5, 3.0])
    np.testing.assert_allclose(eig4(np.diag(d)), np.sort(d), atol=1e-12)


def test_eig4_matches_numpy_oracle():
    for _ in range(20):
        m = random_matrix(4, 3.0)
        got = eig4(m)
        want = np.linalg.eigvals(m)
        want = want[np.lexsort((want.imag, want.real))]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_eig4_trace_and_determinant():
    for _ in range(10):
        m = random_matrix(4, 2.0)
        vals = eig4(m)
        np.testing.assert_allclose(vals.sum(), np.trace(m), atol=1e-10)
        np.testing.assert_allclose(np.prod(vals), np.linalg.det(m), atol=1e-9)


def test_eig4_characteristic_residual():
    tol = 1e-10
    for _ in range(10):
        m = random_matrix(4, 2.0)
        nrm = frobenius(m)
        for lam in eig4(m):
            assert abs(np.linalg.det(m - lam * np.eye(4))) < tol * max(nrm, 1.0) ** 4


def test_eig4_defective_block():
    # Jordan-like block: repeated eigenvalue pair
    m = np.array([[1.0, 1.0, 0, 0], [0, 1.0, 0, 0], [0, 0, 2.0, 0], [0, 0, 0, 3.0]],
                 dtype=complex)
    vals = eig4(m)
    np.testing.assert_allclose(sorted(vals.real), [1, 1, 2, 3], atol=1e-7)


def test_simpson_constant():
    grid = np.linspace(0.0, 3.0, 31)
    np.testing.assert_allclose(cumulative_simpson(lambda t: np.ones_like(t), grid),
                               grid, atol=1e-14)


def test_simpson_cosine():
    grid = np.linspace(0.0, np.pi / 2, 101)
    np.testing.assert_allclose(cumulative_simpson(np.cos, grid), np.sin(grid), atol=1e-10)


def test_simpson_cubic_exact_any_grid():
    grid = np.sort(RNG.uniform(0.0, 2.0, 17))
    grid[0] = 0.0

    def cubic(t):
        return 2.0 * t**3 - t**2 + 0.5 * t - 1.0

    def anti(t):
        return 0.5 * t**4 - t**3 / 3.0 + 0.25 * t**2 - t

    got = cumulative_simpson(cubic, grid)
    np.testing.assert_allclose(got, anti(grid) - anti(grid[0]), rtol=0, atol=1e-13)


def test_simpson_fourth_order_convergence():
    f = lambda t: np.exp(np.sin(3.0 * t))
    ref_grid = np.linspace(0.0, 1.0, 2001)
    ref = cumulative_simpson(f, ref_grid)[-1]
    errs = []
    for n in (8, 16):
        g = np.linspace(0.0, 1.0, n + 1)
        errs.append(abs(cumulative_simpson(f, g, error_estimate=False)[-1] - ref))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 25.0


def test_simpson_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        # one huge interval over a wiggly function blows the error estimate
        cumulative_simpson(lambda t: np.sin(40.0 * t), np.array([0.0, 3.0]), tol=1e-12)


def test_central_diff_constant():
    d = central_diff(np.ones(9), 0.1)
    np.testing.assert_allclose(d, 0.0, atol=1e-13)


def test_central_diff_quadratic_exact():
    t = np.linspace(0.0, 1.0, 11)
    d = central_diff(t**2, t[1] - t[0])
    np.testing.assert_allclose(d, 2.0 * t, rtol=0, atol=1e-12)


def test_central_diff_sine():
    t = np.arange(0.0, 1.0, 1e-3)
    d = central_diff(np.sin(t), 1e-3)
    assert np.abs(d[2:-2] - np.cos(t)[2:-2]).max() < 1e-11


def test_central_diff_needs_five_samples():
    with pytest.raises(GridTooCoarse):
        central_diff(np.ones(4), 0.1)


def test_central_diff_trailing_dims():
    t = np.linspace(0.0, 1.0, 101)
    y = np.stack([t**2, np.sin(t)], axis=1)
    d = central_diff(y, t[1] - t[0])
    np.testing.assert_allclose(d[:, 0], 2 * t, atol=1e-10)
    np.testing.assert_allclose(d[2:-2, 1], np.cos(t)[2:-2], atol=1e-10)


def test_eig4_batched_equals_single():
    ms = np.stack([random_matrix(4, 2.0) for _ in range(8)])
    np.testing.assert_array_equal(eig4(ms), np.stack([eig4(m) for m in ms]))


def test_eig4_symmetric_spectrum_needs_exceptional_shift():
    # 4th roots of unity: QR with pure Wilkinson shifts cycles on this one
    m = np.roll(np.eye(4), 1, axis=0).astype(complex)
    got = eig4(m)
    want = np.array([-1.0, -1.0j, 1.0j, 1.0])
    for w in want:
        assert np.abs(got - w).min() < 1e-10
