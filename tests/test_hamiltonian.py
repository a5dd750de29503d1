"""Tests for the coupled-oscillator Hamiltonian builders."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4lr.hamiltonian as hamiltonian
from sp4lr.algebra import GeneratorId, adjoint, parity_action, pt_map, to_matrix
from sp4lr.hamiltonian import (
    CoupledOscillatorParams,
    Regime,
    build_H_coeffs,
    build_H_modified,
    classify_regime,
    eigenvalue_formula,
    instantaneous_eigenvalues,
)
from sp4lr.numerics import frobenius
from sp4lr.profiles import ScalarProfile

RNG = np.random.default_rng(20240801)
G = GeneratorId


def const_params(a, wx, wy, lam):
    return CoupledOscillatorParams(*(ScalarProfile.constant(v) for v in (a, wx, wy, lam)))


GRID = np.linspace(0.0, 6.0, 121)
_PERMS = np.array(list(itertools.permutations(range(4))))


def profile_values(p, t):
    return tuple(f(t) for f in (p.a, p.omega_x, p.omega_y, p.lam))


def block_eigenvalues(p, t):
    return instantaneous_eigenvalues(*profile_values(p, t))


def formula_eigenvalues(p, t):
    return eigenvalue_formula(p.a(t), p.omega_x(t) + p.omega_y(t), p.lam(t))


def random_params(rng):
    """Time-dependent profiles whose lam sweeps through the PT-broken edge."""
    a, wx, wy, lam = rng.uniform(0.2, 3.0, size=4)
    return CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.1 * a, 1.0, 0.0, a),
        omega_x=ScalarProfile.constant(wx),
        omega_y=ScalarProfile.constant(wy),
        lam=ScalarProfile.sinusoid(lam, 0.7, 0.3, 0.5 * lam))


def multiset_distance(got, want):
    """Per-row max deviation of two (..., 4) spectra under the best pairing."""
    return np.abs(got[..., None, :] - want[..., _PERMS]).max(axis=-1).min(axis=-1)


def test_coefficient_structure():
    p = const_params(0.7, 1.3, 0.9, 0.4)
    h = build_H_coeffs(p, 0.0)
    op, om = 1.3 + 0.9, 1.3 - 0.9
    assert h[G.J0] == pytest.approx((0.7 + op) / 2.0)
    assert h[G.Q2] == pytest.approx((0.7 - op) / 2.0)
    assert h[G.J3] == pytest.approx(om / 2.0)
    assert h[G.K1] == pytest.approx(-om / 2.0)
    assert h[G.J1] == pytest.approx(0.4j)
    assert h[G.K3] == pytest.approx(0.4j)
    # imaginary parts only on J1 and K3
    imag = np.abs(h.imag) > 0
    assert list(np.nonzero(imag)[0]) == [1, 9]


def test_kinetic_potential_cancellation():
    # the Q2 component cancels exactly when a equals omega_x + omega_y
    h = build_H_coeffs(const_params(1.0, 0.5, 0.5, 0.0), 0.0)
    np.testing.assert_allclose(h, np.eye(10)[G.J0], atol=1e-15)
    # generic equal frequencies keep a Q2 component: (3/2) J0 - (1/2) Q2
    h2 = build_H_coeffs(const_params(1.0, 1.0, 1.0, 0.0), 0.0)
    assert h2[G.J0] == pytest.approx(1.5)
    assert h2[G.Q2] == pytest.approx(-0.5)


def test_pt_invariance():
    for _ in range(50):
        a, wx, wy, lam = RNG.uniform(0.2, 3.0, size=4)
        h = build_H_coeffs(const_params(a, wx, wy, lam), 0.0)
        np.testing.assert_allclose(pt_map(h), h, atol=1e-14)


def test_parity_equals_adjoint():
    worst = 0.0
    for _ in range(100):
        a, wx, wy, lam = RNG.uniform(0.2, 3.0, size=4)
        t = RNG.uniform(0.0, 5.0)
        p = CoupledOscillatorParams(
            a=ScalarProfile.sinusoid(0.1 * a, 1.0, 0.0, a),
            omega_x=ScalarProfile.constant(wx),
            omega_y=ScalarProfile.constant(wy),
            lam=ScalarProfile.sinusoid(0.2 * lam, 2.0, 0.3, lam))
        h = build_H_coeffs(p, t)
        worst = max(worst, np.abs(parity_action(h) - adjoint(h)).max())
    assert worst < 1e-12


def test_build_H_coeffs_vectorized():
    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.3, 1.0, 0.0, 1.0),
        omega_x=ScalarProfile.constant(1.3),
        omega_y=ScalarProfile.constant(0.9),
        lam=ScalarProfile.constant(0.4))
    t = np.linspace(0.0, 2.0, 7)
    stack = build_H_coeffs(p, t)
    for k, tk in enumerate(t):
        np.testing.assert_allclose(stack[k], build_H_coeffs(p, tk), atol=0)


def test_modified_structure():
    h = build_H_modified(2.0, 1.0, 0.0)
    assert h[G.J0] == pytest.approx(3.0)
    assert h[G.J3] == pytest.approx(1.0)
    assert np.abs(h.imag).max() == 0.0  # lam = 0 is Hermitian


def test_modified_equal_coefficients_is_isotropic():
    # a = b collapses onto 2a J0 + i lam (J1 + K3); note this differs
    # from build_H_coeffs with equal frequencies, whose kinetic term carries a
    # different normalization (see the coefficient-structure test).
    h = build_H_modified(0.8, 0.8, 0.3)
    unit = np.eye(10)
    want = 1.6 * unit[G.J0] + 0.3j * (unit[G.J1] + unit[G.K3])
    np.testing.assert_allclose(h, want, atol=1e-15)


def test_modified_with_profiles_and_arrays():
    a = ScalarProfile.constant(2.0)
    b = ScalarProfile.constant(1.0)
    lam = ScalarProfile.constant(0.5)
    h = build_H_modified(a(0.3), b(0.3), lam(0.3))
    assert h[G.J0] == pytest.approx(3.0)
    stack = build_H_modified(np.array([2.0, 2.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    assert stack.shape == (2, 10)


def test_eigenvalues_pair_symmetrically():
    for _ in range(20):
        a, wx, wy, lam = RNG.uniform(0.2, 3.0, size=4)
        vals = instantaneous_eigenvalues(a, wx, wy, lam)
        s = np.sort_complex(vals)
        np.testing.assert_allclose(s + np.sort_complex(-vals)[::-1], 0.0, atol=1e-10)


def test_real_spectrum_inside_weak_coupling():
    # numeric eigenvalues are real whenever (omega_x - omega_y)^2 > 4 lam^2
    for _ in range(20):
        wx = RNG.uniform(1.0, 3.0)
        wy = RNG.uniform(0.1, 0.4)
        lam = RNG.uniform(0.0, 0.45 * abs(wx - wy))
        vals = instantaneous_eigenvalues(1.0, wx, wy, lam)
        assert np.abs(vals.imag).max() < 1e-8


def test_complex_spectrum_beyond_break():
    # lam > Omega+/2 always breaks the spectrum
    vals = instantaneous_eigenvalues(1.0, 1.0, 1.0, 3.0)
    assert np.abs(vals.imag).max() > 1e-3


def test_formula_mode_double_root_at_discriminant_zero():
    a, wx, wy = 1.0, 1.0, 1.0
    lam = (wx + wy) / 2.0
    vals = eigenvalue_formula(a, wx + wy, lam)
    # inner branches coincide pairwise
    assert abs(vals[0] - vals[1]) < 1e-12 and abs(vals[2] - vals[3]) < 1e-12


def test_formula_vs_numeric_logged_not_asserted():
    from sp4lr.crosschecks import eigenvalue_formula_record

    rec = eigenvalue_formula_record(1.0, 1.3, 0.8, 0.4)
    assert rec.name == "eigenvalue_closed_form"
    assert rec.variant_residual >= 0.0  # recorded, whatever its size


def test_classify_regime():
    assert classify_regime(const_params(1.0, 1.0, 1.0, 0.0), 0.0) is Regime.PT_SYMMETRIC
    assert classify_regime(const_params(1.0, 1.0, 1.0, 1.0), 0.0) is Regime.EXCEPTIONAL_POINT
    assert classify_regime(const_params(1.0, 1.0, 1.0, 3.0), 0.0) is Regime.SPONTANEOUSLY_BROKEN
    # 4 - 36 < 0
    disc = (1.0 + 1.0) ** 2 - 4.0 * 9.0
    assert disc < 0


def test_classify_regime_on_grid_equals_per_time():
    # lam crosses Omega+/2 = 1 twice; the exceptional point is hit at t = 0 exactly
    p = CoupledOscillatorParams(a=ScalarProfile.constant(1.0), omega_x=ScalarProfile.constant(1.0),
                                omega_y=ScalarProfile.constant(1.0),
                                lam=ScalarProfile.sinusoid(1.0, 1.0, 0.0, 1.0))
    grid = np.linspace(0.0, 2.0 * np.pi, 601)
    regimes = classify_regime(p, grid)
    assert regimes.shape == grid.shape
    assert list(regimes) == [classify_regime(p, t) for t in grid]
    assert set(regimes) == set(Regime)


def test_numeric_matches_dense_oracle():
    got = instantaneous_eigenvalues(0.9, 1.7, 0.6, 0.3)
    want = np.linalg.eigvals(to_matrix(build_H_coeffs(const_params(0.9, 1.7, 0.6, 0.3), 0.0)))
    want = want[np.lexsort((want.imag, want.real))]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_instantaneous_eigenvalues_batched_equals_scalar():
    # every step of the spectrum is elementwise in t, so a batched call and
    # one call per time agree bit for bit
    for _ in range(10):
        p = random_params(RNG)
        batched = block_eigenvalues(p, GRID)
        assert batched.shape == (GRID.size, 4)
        stacked = np.stack([block_eigenvalues(p, t) for t in GRID])
        np.testing.assert_array_equal(batched, stacked)
        formula = formula_eigenvalues(p, GRID)
        np.testing.assert_array_equal(
            formula, np.stack([formula_eigenvalues(p, t) for t in GRID]))


def test_instantaneous_eigenvalues_sorted_by_real_imag():
    for _ in range(10):
        p = random_params(RNG)
        for spectrum in (block_eigenvalues, formula_eigenvalues):
            vals = spectrum(p, GRID)
            dre, dim = np.diff(vals.real, axis=-1), np.diff(vals.imag, axis=-1)
            # real parts within the tie tolerance count as equal (a run of
            # up to four) and are ordered by imag
            tol = 1e-12 * np.abs(vals).max(axis=-1, keepdims=True)
            assert (dre >= -3 * tol).all()
            assert (dim[dre <= tol] >= 0).all()


def test_instantaneous_eigenvalues_match_scipy_as_sets():
    for _ in range(10):
        p = random_params(RNG)
        got = block_eigenvalues(p, GRID)
        want = np.stack([scipy.linalg.eigvals(m) for m in to_matrix(build_H_coeffs(p, GRID))])
        assert multiset_distance(got, want).max() < 1e-12


def test_instantaneous_eigenvalues_trace_and_determinant():
    for _ in range(10):
        p = random_params(RNG)
        vals = block_eigenvalues(p, GRID)
        mats = to_matrix(build_H_coeffs(p, GRID))
        np.testing.assert_allclose(np.trace(mats, axis1=-2, axis2=-1), 0.0, atol=1e-14)
        np.testing.assert_allclose(vals.sum(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.prod(vals, axis=-1), np.linalg.det(mats),
                                   rtol=1e-10, atol=1e-12)


def test_instantaneous_eigenvalues_characteristic_residual():
    eye = np.eye(4)
    for _ in range(10):
        p = random_params(RNG)
        mats = to_matrix(build_H_coeffs(p, GRID))
        vals = block_eigenvalues(p, GRID)
        scale = np.maximum(frobenius(mats), 1.0) ** 4
        for k in range(4):
            resid = np.abs(np.linalg.det(mats - vals[:, k, None, None] * eye))
            assert (resid < 1e-10 * scale).all()


def test_instantaneous_eigenvalues_defective_at_numeric_ep():
    # (omega_x - omega_y)^2 = 4 lam^2: the numeric spectrum has two
    # defective double roots, resolved only to ~sqrt(machine epsilon)
    vals = instantaneous_eigenvalues(1.0, 1.2, 0.8, 0.2)
    assert abs(vals[0] - vals[1]) < 1e-7 and abs(vals[2] - vals[3]) < 1e-7
    assert np.abs(vals.imag).max() < 1e-7


def test_block_spectrum_matches_the_complex_4x4_as_sets():
    # mixed-sign a, omega_x, omega_y; lam runs linearly from 0 to 1.3 times
    # the larger of |omega_x -+ omega_y| / 2, so every grid crosses the
    # numeric break (omega_x - omega_y)^2 = 4 lam^2 and the published one
    # (omega_x + omega_y)^2 = 4 lam^2
    rng = np.random.default_rng(20261019)
    t = np.linspace(0.0, 1.0, 401)
    worst = 0.0
    for _ in range(40):
        a, wx, wy = rng.uniform(-3.0, 3.0, size=3)
        top = 1.3 * max(abs(wx - wy), abs(wx + wy)) / 2.0
        p = CoupledOscillatorParams(ScalarProfile.constant(a), ScalarProfile.constant(wx),
                                    ScalarProfile.constant(wy),
                                    ScalarProfile.polynomial([0.0, rng.choice([-1.0, 1.0]) * top]))
        for edge in (wx + wy, wx - wy):
            disc = edge**2 - 4.0 * p.lam(t) ** 2
            assert (disc > 0).any() and (disc < 0).any()
        got = block_eigenvalues(p, t)
        want = np.linalg.eigvals(to_matrix(build_H_coeffs(p, t)))
        worst = max(worst, (multiset_distance(got, want) / np.abs(want).max(axis=-1)).max())
    assert worst <= 1e-12


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       amps=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       freqs=st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4))
def test_closed_form_spectrum_matches_the_complex_4x4_on_mixed_signs(values, amps, freqs):
    # constant and sinusoid profiles of either sign, compared as sets with
    # the complex 4x4 eigvals wherever |disc| is not within sqrt(eps) of 0 on
    # the scale rho^4, rho^2 = ||M||_F^2 = a^2/2 + omega_x^2 + omega_y^2 +
    # 2 lam^2.  They are compared squared: a root mu near 0 makes the pair
    # +-i sqrt(mu) a near-double eigenvalue of M, which LAPACK resolves only
    # to about sqrt(eps) on its own, but its square to rounding.  LAPACK's
    # backward error u rho on M moves BC by about 2u rho^2, and a root of BC
    # by that times ||BC||_F / sqrt|disc| <= (rho^2 / 2) eps^(-1/4) / rho^2:
    # at most 9e-13 rho^2 on the kept samples, checked at 1e-11 rho^2
    p = CoupledOscillatorParams(*(ScalarProfile.sinusoid(amp, f, 0.3, v)
                                  for v, amp, f in zip(values, amps, freqs)))
    a, wx, wy, lam = profile_values(p, GRID)
    got = instantaneous_eigenvalues(a, wx, wy, lam)
    want = np.linalg.eigvals(to_matrix(build_H_coeffs(p, GRID)))
    rho2 = a**2 / 2.0 + wx**2 + wy**2 + 2.0 * lam**2
    disc = hamiltonian._bc_invariants(a, wx, wy, lam)[2]
    kept = np.abs(disc) > np.sqrt(np.finfo(float).eps) * rho2**2
    rel = multiset_distance(got[kept] ** 2, want[kept] ** 2) / rho2[kept]
    assert (rel <= 1e-11).all(), rel.max()


def test_closed_form_spectrum_exact_at_the_nilpotent_point():
    # a = 2, omega_x = -omega_y = lam = 1/2: tr = det = disc = 0, so BC is
    # nilpotent; the 4x4 LAPACK reference reads about 1e-8 there
    got = instantaneous_eigenvalues(2.0, 0.5, -0.5, 0.5)
    np.testing.assert_array_equal(got, np.zeros(4))
    assert not np.signbit(got.real).any() and not np.signbit(got.imag).any()


@pytest.mark.parametrize("a, w", [(1.0, 1.0), (2.0, 2.0), (0.7, 1.3), (2.5, 0.4)])
def test_closed_form_spectrum_at_the_hermitian_degenerate_point(a, w):
    # lam = 0, omega_x = omega_y = w: disc = 0 and mu = -a w / 2 twice, so the
    # spectrum is +-sqrt(a w / 2), each twice, and real
    got = instantaneous_eigenvalues(a, w, w, 0.0)
    root = np.sqrt(a * w / 2.0)
    assert (got.imag == 0).all()
    np.testing.assert_allclose(got.real, [-root, -root, root, root], rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("ratio", [1e-4, 1e-8, 1e-12])
def test_closed_form_spectrum_keeps_a_small_root_to_rounding(ratio):
    # lam = 0, omega_y = ratio omega_x > 0: mu = -(a/2) omega_x and
    # -(a/2) omega_y.  det / z1 gives the small root to rounding of itself;
    # tr - z1 (or an eigensolver on BC) only to rounding of the large one
    a, wx = 1.3, 0.9
    wy = ratio * wx
    got = instantaneous_eigenvalues(a, wx, wy, 0.0)
    want = np.sort(np.concatenate([np.sqrt([a * wx / 2.0, a * wy / 2.0]),
                                   -np.sqrt([a * wx / 2.0, a * wy / 2.0])]))
    assert (got.imag == 0).all()
    np.testing.assert_allclose(got.real, want, rtol=8 * np.finfo(float).eps, atol=0)


def test_instantaneous_eigenvalues_reject_a_profile_value_not_finite():
    with pytest.raises(ValueError, match="not finite"):
        instantaneous_eigenvalues(np.ones(3), np.array([0.8, np.nan, 0.8]), 0.8, 0.3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_spectrum_of_a_subnormal_kinetic_coefficient():
    # a = 4e-311, omega_y = 1: det underflows to 0 and z1 = tr/2 is so small
    # that 1/z1 overflows, which once made the second root NaN.  The roots
    # are 0 twice and a pair of modulus sqrt(a/2)/sqrt(2) (disc underflows
    # too), within rounding of rho^2 = omega_y^2 of the exact +-sqrt(a/2)
    got = instantaneous_eigenvalues(4e-311, 0.0, 1.0, 0.0)
    np.testing.assert_array_equal(got[1:3], 0.0)
    assert got[0] == -got[3] and 0.0 < got[3].real < np.sqrt(2e-311)
