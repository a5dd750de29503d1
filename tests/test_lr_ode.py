"""Tests for the invariant coefficient ODE, its solvers and the closed form."""

import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4lr.algebra as algebra
import sp4lr.hamiltonian as hamiltonian
import sp4lr.lr_ode as lr_ode
import sp4lr.point_transform as pt
from sp4lr.algebra import (
    _REAL_D,
    _REAL_PHASES,
    GeneratorId,
    _nonzero_halves,
    _real_commutator,
    _real_conjugate_by,
    _real_coordinates,
    symplectic_inverse,
    to_matrix,
)
from sp4lr.cli import _resolve_config
from sp4lr.crosschecks import invariant_image_variant, ode_matrix
from sp4lr.errors import (ChiPlusZero, DegenerateAlpha, GridTooCoarse, NonCommuting, Sp4lrError,
                          StepNotConverged)
from sp4lr.hamiltonian import (CoupledOscillatorParams, _h_coeffs, _h_real, build_H_coeffs,
                               build_H_modified)
from sp4lr.lr_ode import (
    ANSATZ_COMBINATIONS,
    COMM_TOL,
    ClosedFormParams,
    _GL_NODES,
    _commutativity_probe,
    _commuting_propagators,
    _magnus_exponents,
    _magnus_propagators,
    _prefix_products,
    assemble_invariant,
    closed_form_c,
    closed_form_on_grid,
    coefficients_of_element,
    evolve,
    invariant_matrix,
    involution_residuals,
    lr_residual,
)
from sp4lr.numerics import central_diff, expm, frobenius
from sp4lr.profiles import ScalarProfile

C0 = np.zeros(10, dtype=complex)
C0[2] = C0[3] = 1.0


def complex_form(u):
    """D u D^-1: real-form 4x4 stacks back in the basis z = (x, y, px, py)."""
    return u * (_REAL_D[:, None] / _REAL_D)


def exponent_coefficients(w):
    """Complex coefficients -i phi w of real exponent coordinates w (10, ...)."""
    return -1j * _REAL_PHASES * np.moveaxis(w, 0, -1)


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
    from tests.test_algebra import quadratic_form

    # v7..v10 are y^2, x^2, px^2, py^2 over z = (x, y, px, py)
    for row, slot in [(6, 1), (7, 0), (8, 2), (9, 3)]:
        s = quadratic_form(ANSATZ_COMBINATIONS[row])
        want = np.zeros((4, 4))
        want[slot, slot] = 2.0
        np.testing.assert_allclose(s, want, atol=1e-14)


# ---------------------------------------------------------------------------
# the coefficient matrix


def test_M_unit_substitution():
    m = ode_matrix(1.0, 1.0, 1.0, 1.0)
    cdot = m @ C0
    want = np.zeros(10, dtype=complex)
    want[6] = -1j
    want[7] = 1j
    np.testing.assert_allclose(cdot, want, atol=1e-14)
    np.testing.assert_allclose(m @ np.zeros(10), 0.0, atol=0)


def test_M_row9_entry():
    m = ode_matrix(0.7, 1.3, 0.9, 0.4)
    assert m[8, 0] == pytest.approx(0.35)  # a/2


def test_M_structural_nonzeros():
    m = ode_matrix(0.7, 1.3, 0.9, 0.4)
    assert int(np.count_nonzero(np.abs(m) > 1e-13)) == 24


def test_M_consistent_with_invariant_equation():
    # d/dt of coefficients must match -i [H, .] expanded in the v basis
    from sp4lr.algebra import commutator

    rng = np.random.default_rng(9)
    m = ode_matrix(0.7, 1.3, 0.9, 0.4)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    h = _h_coeffs(0.7, 1.3, 0.9, 0.4)
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
    want = closed_form_on_grid(cf, grid, cf.lam(grid))[0]
    assert np.abs(evolve(want[0], grid, osc, mode="commuting") - want).max() < 1e-8


def test_evolve_matches_closed_form_alpha3():
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    grid = np.linspace(0.0, 5.0, 5001)
    want = closed_form_on_grid(cf, grid, cf.lam(grid))[0]
    got = evolve(C0, grid, cf.oscillator_params(), mode="time_ordered")
    assert np.abs(got - want).max() < 1e-6


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


def driven_fixed_substeps(n):
    """The driven trajectory from ``n`` unrefined Magnus substeps on every
    interval: evolve's time-ordered route without its step refinement."""
    u = _prefix_products(_magnus_propagators(DRIVEN, DRIVEN_GRID[:-1], np.diff(DRIVEN_GRID), n)[0])
    return coefficients_of_element(_real_conjugate_by(u, assemble_invariant(C0)))


@pytest.fixture(scope="module")
def driven_ref():
    return driven_fixed_substeps(256)


def test_sixth_order_slope_under_substep_halving(driven_ref):
    # fixed substeps expose the 6th-order error of the three-node Magnus
    # step: one substep to two on the driven grid cuts the error 64x
    e1, e2 = (np.abs(driven_fixed_substeps(n) - driven_ref).max() for n in (1, 2))
    assert 48.0 <= e1 / e2 <= 80.0


def test_driven_evolve_converges_to_fine_substeps(driven_traj, driven_ref):
    assert np.abs(driven_traj - driven_ref).max() < 1e-9


def test_driven_evolve_keeps_involution(driven_traj):
    m = invariant_matrix(driven_traj)
    assert frobenius(m @ m - np.eye(4)).max() < 1e-10
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-10


def test_driven_evolve_below_rounding_floor_fails_fast(monkeypatch):
    monkeypatch.setattr(lr_ode, "STEP_TOL", 1e-16)
    start = time.perf_counter()
    with pytest.raises(StepNotConverged, match=r"t = [0-9.]+ with delta"):
        evolve(C0, DRIVEN_GRID, DRIVEN, mode="time_ordered")
    assert time.perf_counter() - start < 2.0


def test_magnus_exponent_in_coefficients_matches_matrix_form():
    # Omega6 and Omega4 are built from the coefficients through the
    # bracket; written again with to_matrix matrices and matrix
    # commutators, on the strongly driven case the bracket terms are
    # 1e-6..1e-4 of Omega, so a sign slip there shows far above 1e-15
    def comm(x, y):
        return x @ y - y @ x

    t0, h = DRIVEN_GRID[100:104], np.diff(DRIVEN_GRID)[100:104]
    for n in (1, 2, 8):
        omega6, omega4 = _magnus_exponents(DRIVEN, t0, h, n)
        s = (h / n)[:, None, None, None]
        nodes = t0[:, None, None] + (np.arange(n)[:, None] + _GL_NODES) * s[..., 0]
        a = -1j * to_matrix(build_H_coeffs(DRIVEN, nodes))
        a1, a2, a3, b1, b2 = (a[..., k, :, :] for k in range(5))
        al1 = s * a2
        al2 = np.sqrt(15.0) / 3.0 * s * (a3 - a1)
        al3 = 10.0 / 3.0 * s * (a3 - 2.0 * a2 + a1)
        c1 = comm(al1, al2)
        c2 = -comm(al1, 2.0 * al3 + c1) / 60.0
        bracket6 = comm(-20.0 * al1 - al3 + c1, al2 + c2) / 240.0
        want6 = al1 + al3 / 12.0 + bracket6
        bracket4 = (np.sqrt(3.0) / 12.0) * s**2 * comm(b2, b1)
        want4 = 0.5 * s * (b1 + b2) + bracket4
        for got, want, bracket in ((omega6, want6, bracket6), (omega4, want4, bracket4)):
            assert np.abs(bracket).max() > 1e-7 * np.abs(want).max()
            got = to_matrix(exponent_coefficients(got))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), n


def test_one_expm_per_evolve_where_the_estimate_passes(monkeypatch):
    # the estimate costs no expm: an interval the first step settles takes
    # one exponential, and the smooth lr-ode-like drive settles every one
    calls = []
    monkeypatch.setattr(lr_ode, "expm", lambda m: calls.append(m.shape) or expm(m))
    p = CoupledOscillatorParams(
        a=ScalarProfile.constant(1.0),
        omega_x=ScalarProfile.sinusoid(0.35, 1.25, 1.0, 1.5),
        omega_y=ScalarProfile.constant(1.0),
        lam=ScalarProfile.sinusoid(0.3, 1.25, 0.5, 0.45))
    evolve(C0, np.linspace(0.0, 5.0, 2001), p)
    assert calls == [(2000, 1, 4, 4)]


@pytest.mark.parametrize("alpha, lam", [
    (3.0, ScalarProfile.constant(1.0)),  # a_minus = 0
    (0.5, ScalarProfile.sinusoid(0.3, 1.0, 0.2, 1.0)),
    (5.0, ScalarProfile.polynomial([1.0, 0.3, -0.1])),
])
def test_split_commuting_exponential_equals_the_unsplit_one(alpha, lam):
    # on the grid of the shipped closed-form scenario; the unsplit stack
    # reaches a 1-norm of 10-28 there and takes up to 6 squarings
    osc = ClosedFormParams(alpha, lam).oscillator_params()
    grid = np.linspace(0.0, 5.0, 5001)
    integral = _h_coeffs(*(f.antiderivative(grid, 0.0)
                           for f in (osc.a, osc.omega_x, osc.omega_y, osc.lam)))
    want = expm(-1j * to_matrix(integral))
    assert np.abs(complex_form(_commuting_propagators(osc, grid)) - want).max() <= 1e-13


def test_prefix_products_equal_sequential_loop():
    # bitwise, in the dtype of the steps: real (the propagator path) and complex
    rng = np.random.default_rng(3)
    real = rng.standard_normal((50, 4, 4))
    for props in (real, real + 1j * rng.standard_normal((50, 4, 4))):
        want = [np.eye(4, dtype=props.dtype)]
        for step in props:
            want.append(step @ want[-1])
        got = _prefix_products(props)
        assert got.dtype == props.dtype
        assert np.array_equal(got, np.stack(want))


# ---------------------------------------------------------------------------
# the real form: z = D z' with D = diag(1, i, 1, -i)


_VALUES = st.floats(-3.0, 3.0, allow_nan=False)
_PROFILES = st.one_of(
    st.builds(ScalarProfile.constant, _VALUES),
    st.builds(ScalarProfile.sinusoid, _VALUES, _VALUES, _VALUES, _VALUES),
    st.builds(ScalarProfile.polynomial, st.lists(_VALUES, min_size=1, max_size=4)))


def complex_h(a, wx, wy, lam):
    """The coupled family's complex coefficients, each written on its own:
    the oracle of ``hamiltonian._h_real``."""
    a, wx, wy, lam = np.broadcast_arrays(a, wx, wy, lam)
    c = np.zeros(a.shape + (10,), dtype=complex)
    c[..., GeneratorId.J0] = a / 2.0 + (wx + wy) / 2.0
    c[..., GeneratorId.Q2] = a / 2.0 - (wx + wy) / 2.0
    c[..., GeneratorId.J3] = (wx - wy) / 2.0
    c[..., GeneratorId.K1] = -(wx - wy) / 2.0
    c[..., GeneratorId.J1] = c[..., GeneratorId.K3] = 1j * lam
    return c


def bits(x):
    """The bit patterns of a float array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(st.tuples(_PROFILES, _PROFILES, _PROFILES, _PROFILES), st.sampled_from([1, 2, 3]))
def test_exponents_are_exactly_real_in_the_real_form_basis(profiles, n):
    # the real coordinates that the lr path builds from the profile values,
    # at the Magnus nodes (5, m, n) and for the integral of H of the
    # commuting path, are bitwise r = h conj(phi) of the complex
    # coefficients h, signs of zero included, and phi r gives h back; the
    # point-transform target has an imaginary part of exactly 0 there too
    p = CoupledOscillatorParams(*profiles)
    t = np.linspace(-1.0, 2.0, 9)
    nodes = t[:-1, None, None] + (np.arange(n)[:, None] + _GL_NODES) * (np.diff(t) / n)[:, None, None]
    nodes = np.moveaxis(nodes, -1, 0)  # (5, m, n), as _magnus_exponents takes them
    for values in ([f(nodes) for f in profiles], [f.antiderivative(t, t[0]) for f in profiles]):
        r = _h_real(*values)
        assert r.dtype == float and r.flags.c_contiguous and r.shape == (10,) + np.shape(values[0])
        assert np.array_equal(bits(r), bits(_real_coordinates(complex_h(*values))))
        assert np.array_equal(_h_coeffs(*values), complex_h(*values))
    assert np.array_equal(bits(_h_real(*(f(nodes) for f in profiles))),
                          bits(_real_coordinates(build_H_coeffs(p, nodes))))
    modified = build_H_modified(*(f(t) for f in profiles[:3]))
    assert np.all((modified * _REAL_PHASES.conj()).imag == 0)
    assert np.array_equal(_REAL_PHASES * np.moveaxis(_real_coordinates(modified), 0, -1), modified)


def test_lr_paths_form_no_complex_hamiltonian(monkeypatch):
    # the Magnus, commuting and probe paths read H only as the real
    # coordinates written from the profile values: a run succeeds with
    # every route to a complex H, or back from one, refused
    def refuse(*args):
        raise AssertionError("a complex Hamiltonian stack was formed")

    for name in ("build_H_coeffs", "_h_coeffs", "_real_coordinates"):
        assert not hasattr(lr_ode, name)
    monkeypatch.setattr(hamiltonian, "build_H_coeffs", refuse)
    monkeypatch.setattr(hamiltonian, "_h_coeffs", refuse)
    monkeypatch.setattr(algebra, "_real_coordinates", refuse)
    osc = ClosedFormParams(2.0, ScalarProfile.sinusoid(0.3, 1.0, 0.2, 1.0)).oscillator_params()
    grid = np.linspace(0.0, 2.0, 41)
    assert _commutativity_probe(osc, grid) <= COMM_TOL
    for mode in ("time_ordered", "commuting"):
        assert np.all(np.isfinite(evolve(C0, grid, osc, mode=mode)))
    # the defect, by contrast, takes H as complex coefficients and reads it
    # through the real-form guard, called from algebra at call time
    with pytest.raises(AssertionError, match="complex Hamiltonian"):
        lr_residual(np.zeros((grid.size, 10)), np.zeros((grid.size, 10)), grid)


@pytest.mark.parametrize("mode", ["time_ordered", "commuting"])
def test_real_form_guard_names_coefficients_that_are_not_finite(mode):
    # a quadratic drive overflows on a long grid; the guard reports that,
    # not a complex coefficient
    p = CoupledOscillatorParams(
        a=ScalarProfile.constant(1.0),
        omega_x=ScalarProfile.polynomial([1.0, 0.0, 1e300]),
        omega_y=ScalarProfile.constant(1.0),
        lam=ScalarProfile.constant(0.5))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        evolve(C0, np.linspace(0.0, 1e6, 5), p, mode=mode)


@pytest.mark.parametrize("mode", ["time_ordered", "commuting"])
@pytest.mark.parametrize("lam", [1e9, 1e10, 1e15])
def test_a_propagator_that_outgrows_double_precision_names_its_time(mode, lam):
    # the closed-form family, alpha 3, on 11 points of [0, 1]: at lam 1e10
    # the time-ordered accumulation overflowed in a dot, at 1e15 the expm
    # squaring, and at 1e9 U stayed finite but its conjugation overflowed;
    # each must be a typed error naming a grid time, with no RuntimeWarning
    osc = ClosedFormParams(3.0, ScalarProfile.constant(lam)).oscillator_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Sp4lrError, match=r"^propagator too large at t = 0\.\d"):
            evolve(C0, np.linspace(0.0, 1.0, 11), osc, mode=mode)


def test_real_path_propagators_equal_the_complex_formula():
    # the complex arithmetic the real path replaced, written out: complex
    # exponentials of to_matrix(Omega6), their ordered product and the
    # time-ordered accumulation with @
    t0, h = DRIVEN_GRID[:-1], np.diff(DRIVEN_GRID)
    for n in (1, 2):
        omega6, _ = _magnus_exponents(DRIVEN, t0, h, n)
        steps = expm(to_matrix(exponent_coefficients(omega6)))
        want = steps[:, 0] if n == 1 else steps[:, 1] @ steps[:, 0]
        real = _magnus_propagators(DRIVEN, t0, h, n)[0]
        assert real.dtype == float
        # D^T Omega D = Omega: the real form is a real symplectic matrix
        assert np.abs(symplectic_inverse(real) @ real - np.eye(4)).max() <= 1e-13
        assert np.abs(complex_form(real) - want).max() <= 1e-13
        u = [np.eye(4, dtype=complex)]
        for step in want:
            u.append(step @ u[-1])
        assert np.abs(complex_form(_prefix_products(real)) - np.stack(u)).max() <= 1e-13


@pytest.mark.parametrize("grid, c0, field", [
    ([0.0, np.nan, 1.0], C0, "grid"),
    ([0.0, 0.5, np.inf], C0, "grid"),
    ([0.0, 1.0, 1.0], C0, "grid"),
    ([[0.0, 1.0], [2.0, 3.0]], C0, "grid"),
    ([0.0], C0, "grid"),
    ([0.0, 0.5, 1.0], C0[:9], "c0"),
    ([0.0, 0.5, 1.0], np.stack([C0, C0]), "c0"),
    ([0.0, 0.5, 1.0], np.where(np.arange(10) == 4, np.nan, C0), "c0"),
])
def test_evolve_rejects_bad_grid_and_c0_before_any_numerics(grid, c0, field):
    # NaN compares False, so [0, nan, 1] once passed the ordering check and
    # failed in expm; a mis-shaped c0 failed in a numpy broadcast
    for mode in ("time_ordered", "commuting"):
        with pytest.raises(ValueError, match="^%s must be" % field):
            evolve(c0, grid, DRIVEN, mode=mode)


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
        m = ode_matrix(1.0, alpha, 1.0, 1.0)  # a = omega_y = lam = 1, omega_x = alpha
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
    assert lr_residual(traj, h, grid)[0] < 1e-12


def test_lr_residual_return_samples():
    cf = ClosedFormParams(2.0, ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0))
    grid = np.linspace(0.0, 1.0, 401)
    inv = assemble_invariant(closed_form_on_grid(cf, grid, cf.lam(grid))[0])
    h = build_H_coeffs(cf.oscillator_params(), grid)
    worst, per_sample = lr_residual(inv, h, grid)
    # the defect at every sample; the stencil's two samples at each end are not counted
    assert per_sample.shape == grid.shape
    assert worst == per_sample[2:-2].max()


def test_lr_residual_closed_form():
    grid = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    for cf in (ClosedFormParams(3.0, ScalarProfile.constant(1.0)),
               ClosedFormParams(2.0, ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0))):
        inv = assemble_invariant(closed_form_on_grid(cf, grid, cf.lam(grid))[0])
        h = build_H_coeffs(cf.oscillator_params(), grid)
        assert lr_residual(inv, h, grid)[0] < 1e-8


def test_lr_residual_evolved_smooth_profiles():
    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.3, 1.0, 0.0, 1.0),
        omega_x=ScalarProfile.constant(1.3),
        omega_y=ScalarProfile.sinusoid(0.2, 2.0, 0.1, 0.9),
        lam=ScalarProfile.constant(0.5))
    grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
    traj = evolve(C0, grid, p, mode="time_ordered")
    inv = assemble_invariant(traj)
    assert lr_residual(inv, build_H_coeffs(p, grid), grid)[0] < 1e-6


@pytest.mark.parametrize("alpha", [-0.5, 3.0, 5.0])
def test_closed_form_rate_matches_the_stencil(alpha):
    # hyperbolic (alpha < 3), secular (a_minus = 0) and oscillating modes
    cf = ClosedFormParams(alpha, ScalarProfile.sinusoid(0.3, 1.0, 0.2, 1.0))
    grid = np.linspace(0.0, 2.0, 2001)
    traj, rate = closed_form_on_grid(cf, grid, cf.lam(grid))
    stencil = central_diff(traj, grid[1] - grid[0])
    np.testing.assert_allclose(rate[2:-2], stencil[2:-2], rtol=0, atol=1e-9)


def test_lr_residual_exact_rate_counts_every_sample_on_any_grid():
    # with the exact rate the stencil is skipped: three uneven samples,
    # and the maximum runs over all of them
    cf = ClosedFormParams(3.0, ScalarProfile.polynomial([1.0, 0.3, -0.1]))
    grid = np.array([0.0, 0.4, 2.5])
    traj, rate = closed_form_on_grid(cf, grid, cf.lam(grid))
    inv, didt = assemble_invariant(traj), assemble_invariant(rate)
    h = build_H_coeffs(cf.oscillator_params(), grid)
    worst, per_sample = lr_residual(inv, h, grid, didt=didt)
    assert worst == per_sample.max() <= 1e-13
    assert lr_residual(inv, h, grid, didt=2.0 * didt)[0] > 0.1


def test_lr_residual_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        lr_residual(np.zeros((4, 10)), np.zeros((4, 10)), np.linspace(0, 1, 4))


_SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _complex_defect(inv, h, didt):
    """The oracle: |i dI/dt - [H, I]| per sample on complex coefficients."""
    return np.abs(1j * didt - algebra.commutator(h, inv)).max(axis=1)


def _point_transform_grid(name):
    with open(os.path.join(_SCENARIOS, name + ".json")) as fh:
        cfg = _resolve_config(json.load(fh))
    p = pt.PointTransformParams(**cfg["params"])
    ep = pt.ep_state(p, np.linspace(cfg["grid"]["t0"], cfg["grid"]["t1"], cfg["grid"]["steps"]))
    return p, ep, build_H_modified(*pt.target_coefficients(p, ep))


@pytest.mark.parametrize("route", ["closed-form", "lr-ode-two-halves", "point_transform_core",
                                   "point_transform_tabulated", "image-variant"])
def test_lr_residual_is_the_complex_defect_per_sample(route):
    # the real-coordinate defect, in blocks of algebra._BLOCK samples,
    # against i dI/dt - [H, I] on complex coefficients, bitwise per sample,
    # on every route the runs take
    if route == "closed-form":
        # its exact rate; the invariant has only its imaginary half
        cf = ClosedFormParams(3.0, ScalarProfile.sinusoid(0.3, 1.0, 0.2, 1.0))
        grid = np.linspace(0.0, 5.0, 2501)
        traj, rate = closed_form_on_grid(cf, grid, cf.lam(grid))
        inv, didt = assemble_invariant(traj), assemble_invariant(rate)
        h = build_H_coeffs(cf.oscillator_params(), grid)
        assert _nonzero_halves(inv) == (1,)
    elif route == "lr-ode-two-halves":
        # by the stencil, from a c0 with complex entries
        p = CoupledOscillatorParams(
            a=ScalarProfile.constant(1.0), omega_x=ScalarProfile.sinusoid(0.4, 2.0, 0.0, 1.3),
            omega_y=ScalarProfile.constant(0.9), lam=ScalarProfile.sinusoid(0.3, 1.5, 0.1, 0.6))
        grid = np.linspace(0.0, 2.0, 2501)
        c0 = C0 + np.array([0.3 + 0.2j, 0, 0, 0, 0.1j, 0, 0, 0.2, 0, 0])
        inv = assemble_invariant(evolve(c0, grid, p))
        h = build_H_coeffs(p, grid)
        didt = None
        assert _nonzero_halves(inv) == (0, 1)
    elif route == "image-variant":
        # the ledger's closed-expression variant, by the stencil
        p, ep, h = _point_transform_grid("point_transform_core")
        grid, inv, didt = ep.t, invariant_image_variant(p, ep), None
        assert _nonzero_halves(inv) == (0, 1)
    else:
        # the K-rate row of a point-transform run: dI_H/dt = [I_H, K] = phi R(inv_r, w)
        p, ep, h = _point_transform_grid(route)
        grid, inv = ep.t, pt.invariant_IH(p, ep)
        w = pt._transport_coordinates(p, ep)
        assert w.flags.c_contiguous and w.shape == (10, grid.size)
        k = pt.transport_generator(p, ep)
        assert np.array_equal(k, -1j * _REAL_PHASES * w.T)
        didt = algebra.commutator(inv, k)
        inv_r = np.ascontiguousarray(_real_coordinates(inv))
        row = lr_ode._lr_defect(np.ascontiguousarray(_real_coordinates(h)), inv_r,
                                _real_commutator(inv_r, w))
        assert np.array_equal(row, _complex_defect(inv, h, didt))
        assert 0.0 < row.max() <= 1e-12
    assert grid.size > algebra._BLOCK
    worst, got = lr_residual(inv, h, grid, didt=didt)
    if didt is None:
        didt = central_diff(inv, grid[1] - grid[0])
    want = _complex_defect(inv, h, didt)
    assert np.array_equal(got, want)
    assert worst == (want.max() if route.startswith("point") or route == "closed-form"
                     else want[2:-2].max())


def test_lr_residual_refuses_a_hamiltonian_outside_the_real_form():
    # H goes through the real-form guard: an imaginary part where -i M(H)
    # would not be real raises, and is never dropped
    cf = ClosedFormParams(3.0, ScalarProfile.constant(1.0))
    grid = np.linspace(0.0, 1.0, 1101)
    traj, rate = closed_form_on_grid(cf, grid, cf.lam(grid))
    inv, didt = assemble_invariant(traj), assemble_invariant(rate)
    h = build_H_coeffs(cf.oscillator_params(), grid)
    assert lr_residual(inv, h, grid, didt=didt)[0] <= 1e-13
    bad = h.copy()
    bad[-1, GeneratorId.J0] += 1e-3j  # in the last block only
    with pytest.raises(ValueError, match="outside the real-form family"):
        lr_residual(inv, bad, grid, didt=didt)
    bad[-1, GeneratorId.J0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        lr_residual(inv, bad, grid, didt=didt)


def test_step_not_converged(monkeypatch):
    monkeypatch.setattr(lr_ode, "STEP_TOL", 1e-16)
    monkeypatch.setattr(lr_ode, "MAX_HALVINGS", 2)
    p = CoupledOscillatorParams(
        a=ScalarProfile.sinusoid(0.5, 3.0, 0.0, 1.0),
        omega_x=ScalarProfile.sinusoid(0.4, 2.0, 0.3, 1.3),
        omega_y=ScalarProfile.constant(0.9),
        lam=ScalarProfile.sinusoid(0.3, 1.5, 0.0, 0.7))
    with pytest.raises(StepNotConverged):
        evolve(C0, np.linspace(0.0, 1.0, 6), p, mode="time_ordered")
