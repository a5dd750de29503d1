"""Tests for the invariant coefficient ODE, its solvers and the closed form."""

import time

import numpy as np
import pytest

from sp4lr.algebra import GeneratorId, to_matrix
from sp4lr.crosschecks import ode_matrix
from sp4lr.errors import ChiPlusZero, DegenerateAlpha, GridTooCoarse, NonCommuting, StepNotConverged
from sp4lr.hamiltonian import CoupledOscillatorParams, build_H_coeffs
from sp4lr.lr_ode import (
    ANSATZ_COMBINATIONS,
    COMM_TOL,
    ClosedFormParams,
    _commutativity_probe,
    assemble_invariant,
    closed_form_c,
    closed_form_on_grid,
    coefficients_of_element,
    evolve,
    invariant_matrix,
    involution_residuals,
    lr_residual,
)
from sp4lr.numerics import frobenius
from sp4lr.profiles import ScalarProfile

C0 = np.zeros(10, dtype=complex)
C0[2] = C0[3] = 1.0


def const_params(a, wx, wy, lam):
    return CoupledOscillatorParams(*(ScalarProfile.constant(v) for v in (a, wx, wy, lam)))


# ---------------------------------------------------------------------------
# Ansatz combinations


def test_assemble_c5_and_c9():
    e = assemble_invariant(np.eye(10)[4])
    assert e[GeneratorId.J1] == 1.0 and e[GeneratorId.K3] == 1.0
    assert np.abs(e).sum() == 2.0
    e9 = assemble_invariant(np.eye(10)[8])
    for name in ("J0", "J3", "K1", "Q2"):
        assert e9[GeneratorId[name]] == 1.0


def test_assemble_linear_and_invertible():
    rng = np.random.default_rng(3)
    c1, c2 = rng.standard_normal(10), rng.standard_normal(10)
    lhs = assemble_invariant(c1 + c2)
    rhs = assemble_invariant(c1) + assemble_invariant(c2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)
    np.testing.assert_allclose(coefficients_of_element(lhs), c1 + c2, atol=1e-13)


def test_combinations_are_elementary_quadratics():
    from sp4lr.algebra import quadratic_form

    # v7..v10 are y^2, x^2, px^2, py^2 over z = (x, y, px, py)
    for row, slot in [(6, 1), (7, 0), (8, 2), (9, 3)]:
        s = quadratic_form(ANSATZ_COMBINATIONS[row])
        want = np.zeros((4, 4))
        want[slot, slot] = 2.0
        np.testing.assert_allclose(s, want, atol=1e-14)


# ---------------------------------------------------------------------------
# the coefficient matrix


def test_M_unit_substitution():
    p = const_params(1.0, 1.0, 1.0, 1.0)
    m = ode_matrix(p, 0.0)
    cdot = m @ C0
    want = np.zeros(10, dtype=complex)
    want[6] = -1j
    want[7] = 1j
    np.testing.assert_allclose(cdot, want, atol=1e-14)
    np.testing.assert_allclose(m @ np.zeros(10), 0.0, atol=0)


def test_M_row9_entry():
    p = const_params(0.7, 1.3, 0.9, 0.4)
    m = ode_matrix(p, 0.0)
    assert m[8, 0] == pytest.approx(0.35)  # a/2


def test_M_structural_nonzeros():
    p = const_params(0.7, 1.3, 0.9, 0.4)
    m = ode_matrix(p, 0.0)
    assert int(np.count_nonzero(np.abs(m) > 1e-13)) == 24


def test_M_consistent_with_invariant_equation():
    # d/dt of coefficients must match -i [H, .] expanded in the v basis
    from sp4lr.algebra import commutator

    rng = np.random.default_rng(9)
    p = const_params(0.7, 1.3, 0.9, 0.4)
    m = ode_matrix(p, 0.0)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    h = build_H_coeffs(p, np.array([0.0]))[0]
    bracket = commutator(h, assemble_invariant(c))
    np.testing.assert_allclose(assemble_invariant(m @ c), -1j * bracket, atol=1e-12)


# ---------------------------------------------------------------------------
# solvers


def test_evolve_modes_agree_constant_M():
    p = const_params(0.8, 1.1, 0.7, 0.3)
    grid = np.linspace(0.0, 2.0, 401)
    a = evolve(C0, grid, p, mode="time_ordered")
    b = evolve(C0, grid, p, mode="commuting")
    assert np.abs(a - b).max() < 1e-10


def test_evolve_modes_agree_proportional():
    lam = ScalarProfile.sinusoid(0.3, 2.0, 0.0, 1.0)
    p = CoupledOscillatorParams.proportional(2.0, lam)
    grid = np.linspace(0.0, 3.0, 1501)
    a = evolve(C0, grid, p, mode="time_ordered")
    b = evolve(C0, grid, p, mode="commuting")
    assert np.abs(a - b).max() < 1e-8


def test_commuting_mode_rejects_noncommuting():
    p = CoupledOscillatorParams(
        a=ScalarProfile.constant(1.0),
        omega_x=ScalarProfile.sinusoid(0.5, 1.0, 0.0, 1.0),
        omega_y=ScalarProfile.constant(1.0),
        lam=ScalarProfile.constant(0.7))
    with pytest.raises(NonCommuting):
        evolve(C0, np.linspace(0.0, 2.0, 101), p, mode="commuting")


def test_commuting_probe_is_relative_to_the_size_of_H():
    # an exactly commuting family with large coefficients (|omega_x| up to
    # 165): the bracket's rounding floor is ~eps max|H|^2, above an absolute
    # 1e-12, but the probe reads it relative to max|H|^2
    cf = ClosedFormParams(5.0, ScalarProfile.polynomial([1.0, 0.3, -0.1]))
    grid = np.linspace(0.0, 20.0, 2001)
    osc = cf.oscillator_params()
    assert _commutativity_probe(osc, grid) <= COMM_TOL
    assert _commutativity_probe(const_params(0.0, 0.0, 0.0, 0.0), grid) == 0.0  # H = 0
    want = closed_form_on_grid(cf, grid)
    assert np.abs(evolve(want[0], grid, osc, mode="commuting") - want).max() < 1e-8


def test_evolve_matches_closed_form_alpha3():
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    grid = np.linspace(0.0, 5.0, 5001)
    want = closed_form_on_grid(cf, grid)
    got = evolve(C0, grid, cf.oscillator_params(), mode="time_ordered")
    assert np.abs(got - want).max() < 1e-6


def test_fourth_order_slope_under_substep_halving():
    # fixed substeps expose the 4th-order error of the two-point Magnus step
    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.5, 1.0, 0.0, 1.0),
        omega_x=ScalarProfile.sinusoid(0.2, 2.0, 0.4, 1.3),
        omega_y=ScalarProfile.constant(0.9),
        lam=ScalarProfile.sinusoid(0.3, 1.5, 0.0, 0.7))
    grid = np.linspace(0.0, 2.0, 21)
    ref = evolve(C0, grid, p, mode="time_ordered", substeps=256)
    errs = [np.abs(evolve(C0, grid, p, mode="time_ordered", substeps=n) - ref).max()
            for n in (2, 4, 8)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0


def test_group_route_keeps_involution_on_driven_ode():
    # a drive like the lr-ode scenarios: conjugating I(0) by the 4x4
    # propagator keeps I^2 = 1 and det I = 1 at every sample
    p = CoupledOscillatorParams(
        a=ScalarProfile.constant(1.0),
        omega_x=ScalarProfile.sinusoid(0.35, 1.25, 1.0, 1.5),
        omega_y=ScalarProfile.constant(1.0),
        lam=ScalarProfile.sinusoid(0.3, 1.25, 0.5, 0.45))
    m = invariant_matrix(evolve(C0, np.linspace(0.0, 5.0, 2001), p))
    assert frobenius(m @ m - np.eye(4)).max() < 1e-11
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-11


# strongly driven case: a = 1, omega_x = 4 + 3 sin 5t, omega_y = 1,
# lam = 0.1 + 2 sin 3t on 401 points of [0, 20]
DRIVEN = CoupledOscillatorParams(
    a=ScalarProfile.constant(1.0),
    omega_x=ScalarProfile.sinusoid(3.0, 5.0, 0.0, 4.0),
    omega_y=ScalarProfile.constant(1.0),
    lam=ScalarProfile.sinusoid(2.0, 3.0, 0.0, 0.1))
DRIVEN_GRID = np.linspace(0.0, 20.0, 401)


@pytest.fixture(scope="module")
def driven_traj():
    return evolve(C0, DRIVEN_GRID, DRIVEN, mode="time_ordered")


def test_driven_evolve_converges_to_fine_substeps(driven_traj):
    ref = evolve(C0, DRIVEN_GRID, DRIVEN, mode="time_ordered", substeps=256)
    assert np.abs(driven_traj - ref).max() < 1e-9


def test_driven_evolve_keeps_involution(driven_traj):
    m = invariant_matrix(driven_traj)
    assert frobenius(m @ m - np.eye(4)).max() < 1e-10
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-10


def test_driven_evolve_below_rounding_floor_fails_fast():
    start = time.perf_counter()
    with pytest.raises(StepNotConverged, match=r"t = [0-9.]+ with delta"):
        evolve(C0, DRIVEN_GRID, DRIVEN, mode="time_ordered", step_tol=1e-16)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_initial_condition_exact():
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    np.testing.assert_array_equal(closed_form_c(cf, 0.0), C0)


def test_mode_frequencies():
    ap, am = ClosedFormParams(3.0, ScalarProfile.constant(1.0)).mode_frequencies()
    assert ap == pytest.approx(4.0)
    assert am == pytest.approx(0.0)  # degenerate at alpha = 3
    ap0, am0 = ClosedFormParams(0.0, ScalarProfile.constant(1.0)).mode_frequencies()
    assert am0 == pytest.approx(1j * np.sqrt(2.0))  # imaginary below alpha = 3


def test_closed_form_solves_ode_all_alphas():
    # finite-difference check of dc/dt = M(t) c, including the secular
    # alpha = 3 case and the hyperbolic alpha < 3 ones
    h = 1e-5
    for alpha in (0.0, 1.0, 2.0, 3.0, 5.0):
        cf = ClosedFormParams(alpha, ScalarProfile.constant(1.0))
        p = cf.oscillator_params()
        m = ode_matrix(p, 0.0)
        for theta in (0.4, 1.7):
            cdot = (closed_form_c(cf, theta + h) - closed_form_c(cf, theta - h)) / (2 * h)
            np.testing.assert_allclose(cdot, m @ closed_form_c(cf, theta),
                                       rtol=0, atol=5e-9)


def test_closed_form_structure_identities():
    cf = ClosedFormParams(2.0, ScalarProfile.constant(1.0))
    c = closed_form_c(cf, np.linspace(0.0, 5.0, 64))
    np.testing.assert_allclose(c[:, 0], c[:, 1], atol=1e-14)     # c1 = c2
    np.testing.assert_allclose(c[:, 7], -c[:, 6], atol=1e-14)    # c8 = -c7
    np.testing.assert_allclose(c[:, 8], -c[:, 9], atol=1e-14)    # c9 = -c10


def test_degenerate_alpha_domain():
    with pytest.raises(DegenerateAlpha):
        ClosedFormParams(-1.0, ScalarProfile.constant(1.0))


# ---------------------------------------------------------------------------
# involution constraints and the invariant matrix


def test_involution_residuals_at_seed_point():
    r = involution_residuals(C0)
    assert max(abs(v) for v in r) == 0.0


def test_involution_residuals_closed_form():
    rng = np.random.default_rng(11)
    for alpha in (1.0, 2.0, 3.0, 5.0):
        cf = ClosedFormParams(alpha, ScalarProfile.constant(1.0))
        c = closed_form_c(cf, rng.uniform(0.0, 5.0, size=100))
        r1, r2, r7, r10 = involution_residuals(c)
        worst = max(np.abs(r).max() for r in (r1, r2, r7, r10))
        assert worst < 1e-10


def test_involution_residual_sign_convention():
    c = C0.copy()
    c[0] += 0.1
    r1, _, _, _ = involution_residuals(c)
    assert r1 == pytest.approx(-0.1)


def test_chi_plus_zero():
    c = np.zeros(10, dtype=complex)
    c[0] = 1.0
    with pytest.raises(ChiPlusZero):
        involution_residuals(c)


def test_invariant_matrix_display():
    rng = np.random.default_rng(13)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    np.testing.assert_allclose(invariant_matrix(c),
                               to_matrix(assemble_invariant(c)), atol=1e-14)
    assert invariant_matrix(np.zeros(10)).max() == 0.0
    e9 = np.zeros(10)
    e9[8] = 1.0
    assert invariant_matrix(e9)[0, 2] == 2.0j  # entry (1,3) is 2i c9


def test_invariant_squares_to_identity_and_unit_det():
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    c = closed_form_c(cf, np.linspace(0.0, 5.0, 101))
    m = invariant_matrix(c)
    np.testing.assert_allclose(m @ m, np.broadcast_to(np.eye(4), m.shape), atol=1e-10)
    np.testing.assert_allclose(np.linalg.det(m), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# invariant-equation residual


def test_lr_residual_constant_H_self():
    p = const_params(0.7, 1.3, 0.9, 0.4)
    grid = np.linspace(0.0, 1.0, 201)
    h = build_H_coeffs(p, grid)
    traj = np.broadcast_to(h[0], (grid.size, 10))  # I := H, constant in time
    assert lr_residual(traj, h, grid) < 1e-12


def test_lr_residual_return_samples():
    cf = ClosedFormParams(2.0, ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 401)
    inv = assemble_invariant(closed_form_on_grid(cf, grid))
    h = build_H_coeffs(cf.oscillator_params(), grid)
    worst, per_sample = lr_residual(inv, h, grid, return_samples=True)
    assert per_sample.shape == grid.shape
    assert worst == lr_residual(inv, h, grid) == per_sample[2:-2].max()


def test_lr_residual_closed_form():
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    grid = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    inv = assemble_invariant(closed_form_on_grid(cf, grid))
    h = build_H_coeffs(cf.oscillator_params(), grid)
    assert lr_residual(inv, h, grid) < 1e-8


def test_lr_residual_evolved_smooth_profiles():
    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.3, 1.0, 0.0, 1.0),
        omega_x=ScalarProfile.constant(1.3),
        omega_y=ScalarProfile.sinusoid(0.2, 2.0, 0.1, 0.9),
        lam=ScalarProfile.constant(0.5))
    grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
    traj = evolve(C0, grid, p, mode="time_ordered")
    inv = assemble_invariant(traj)
    assert lr_residual(inv, build_H_coeffs(p, grid), grid) < 1e-6


def test_lr_residual_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        lr_residual(np.zeros((4, 10)), np.zeros((4, 10)), np.linspace(0, 1, 4))


def test_step_not_converged():
    from sp4lr.errors import StepNotConverged

    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.5, 3.0, 0.0, 1.0),
        omega_x=ScalarProfile.sinusoid(0.4, 2.0, 0.3, 1.3),
        omega_y=ScalarProfile.constant(0.9),
        lam=ScalarProfile.sinusoid(0.3, 1.5, 0.0, 0.7))
    with pytest.raises(StepNotConverged):
        evolve(C0, np.linspace(0.0, 1.0, 6), p, mode="time_ordered",
               step_tol=1e-16, max_halvings=2)


@pytest.mark.parametrize("step_tol", [0.0, -1e-11, float("nan")])
def test_evolve_rejects_step_tol_that_cannot_be_met(step_tol):
    with pytest.raises(ValueError, match="step_tol"):
        evolve(C0, np.linspace(0.0, 1.0, 11), const_params(0.7, 1.3, 0.9, 0.4),
               mode="time_ordered", step_tol=step_tol)
