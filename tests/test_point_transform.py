"""Tests for the point-transformation pipeline."""

import dataclasses
import json
import os

import numpy as np
import pytest
import scipy.linalg

import sp4lr.algebra as algebra
import sp4lr.cli as cli
import sp4lr.point_transform as pt
from sp4lr.algebra import (
    OMEGA,
    GeneratorId,
    adjoint,
    commutator,
    conjugate_by,
    from_matrix,
    symplectic_inverse,
    to_matrix,
)
from sp4lr.cli import run_scenario
from sp4lr.errors import ArctanhDomain, ConfigInvalid, EqualFrequencies, ProjectionLeak
from sp4lr.hamiltonian import build_H_modified
from sp4lr.lr_ode import lr_residual
from sp4lr.numerics import central_diff, expm
from sp4lr.point_transform import (
    PointTransformParams,
    _WXPX,
    _WYPY,
    _X2,
    _Y2,
    dyson_static,
    dyson_time,
    ep_residual,
    ep_state,
    ermakov_first_integral,
    hermitian_hamiltonian_h,
    hermitian_invariant_expansion,
    hermitian_invariant_Ih,
    invariant_IH,
    metric_eigenvalues,
    metric_is_positive,
    pde_constraint_residuals,
    pushforward,
    pushforward_map,
    reference_H0,
    target_coefficients,
    tdde_residual,
    transport_generator,
)
from sp4lr.profiles import ScalarProfile
from tests.test_algebra import from_quadratic_form, quadratic_form
from tests.test_lr_ode import complex_form

RNG = np.random.default_rng(20240801)
SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
_G = GeneratorId

R_ONE = ScalarProfile.constant(1.0)
R_WOBBLE = ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0)
R_POLY = ScalarProfile.polynomial([1.0, 0.05, -0.01])


def params(alpha=2.0, beta=1.0, coupling=0.5, r=R_ONE, c2=0.2, c3=0.2):
    return PointTransformParams(alpha=alpha, beta=beta, coupling=coupling,
                                r=r, c2=c2, c3=c3)


def unit(name):
    return np.eye(10)[GeneratorId[name]]


# ---------------------------------------------------------------------------
# Ermakov-Pinney state


def test_trivial_constants_give_unit_factors():
    p = params(c2=0.0, c3=0.0)
    ep = ep_state(p, np.linspace(0.0, 3.0, 11))
    np.testing.assert_allclose(ep.sigma, 1.0, atol=1e-15)
    np.testing.assert_allclose(ep.sigma_tau, 0.0, atol=1e-15)
    np.testing.assert_allclose(ep.mu, 1.0, atol=1e-15)


def test_sigma_closed_form_value():
    # c2 = 0.5, beta = 1, r = 1: sigma(t) = sqrt(sqrt(1.25) + 0.5 cos 2t)
    p = params(alpha=2.0, beta=1.0, c2=0.5, c3=0.0)
    t = np.array([0.0, 0.7, 1.9])
    ep = ep_state(p, t)
    np.testing.assert_allclose(ep.sigma, np.sqrt(np.sqrt(1.25) + 0.5 * np.cos(2 * t)),
                               atol=1e-12)


def test_ep_canonical_residual_random_times():
    p = params(alpha=2.0, beta=1.0, c2=0.3, c3=0.4)
    t = np.sort(RNG.uniform(0.0, 4.0, size=100))
    assert np.abs(ep_residual(p, ep_state(p, t))).max() < 1e-8


def test_ep_derivatives_match_finite_differences():
    # the state carries tau-derivatives; in t they are d/dt = r d/dtau
    p = params(r=R_WOBBLE, c2=0.3, c3=0.4)
    grid = np.linspace(0.0, 3.0, 3001)
    ep = ep_state(p, grid)
    h = grid[1] - grid[0]
    ds = central_diff(ep.sigma, h)
    np.testing.assert_allclose(ds[2:-2], (ep.r * ep.sigma_tau)[2:-2], atol=1e-9)
    dm2 = central_diff(ep.mu_tau, h)
    np.testing.assert_allclose(dm2[2:-2], (ep.r * ep.mu_tautau)[2:-2], atol=1e-8)


def test_ermakov_first_integral_ties_the_rate_to_the_value():
    p = params(r=R_WOBBLE, c2=0.3, c3=0.4)
    ep = ep_state(p, np.linspace(0.0, 4.0, 401))
    assert np.abs(ermakov_first_integral(p, ep)).max() <= 1e-12
    # a scaled sigma' still satisfies the EP equation, but not the integral
    bad = dataclasses.replace(ep, sigma_tau=ep.sigma_tau * (1.0 + 1e-6))
    defect = np.abs(ermakov_first_integral(p, bad)).max(axis=1)
    assert defect[0] > 1e-8 and defect[1] <= 1e-12


# ---------------------------------------------------------------------------
# target coefficients


def test_target_trivial():
    p = params(c2=0.0, c3=0.0, coupling=1.0)
    a, b, lam = target_coefficients(p, ep_state(p, np.array([0.0, 1.0])))
    np.testing.assert_allclose(a, p.beta, atol=1e-15)
    np.testing.assert_allclose(b, p.alpha, atol=1e-15)
    np.testing.assert_allclose(lam, p.coupling, atol=1e-15)


def test_target_decouples_without_coupling():
    p = params(coupling=0.0)
    _, _, lam = target_coefficients(p, ep_state(p, np.array([0.3, 0.9])))
    np.testing.assert_array_equal(lam, 0.0)


def test_target_value_at_zero():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.3, c3=0.3)
    a, b, lam = target_coefficients(p, ep_state(p, np.array([0.0])))
    scale0 = np.sqrt(np.sqrt(1.09) + 0.3)
    assert a[0] == pytest.approx(1.0 / scale0**2)
    assert b[0] == pytest.approx(2.0 / scale0**2)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_trivial_role_swap():
    p = params(c2=0.0, c3=0.0)
    pm = pushforward_map(ep_state(p, np.array([0.4])))[0]
    np.testing.assert_allclose(pm @ unit("J0"), unit("J0"), atol=1e-14)
    np.testing.assert_allclose(pm @ unit("Q1"), -unit("Q1"), atol=1e-14)
    np.testing.assert_allclose(pm @ unit("K2"), unit("K2"), atol=1e-14)
    np.testing.assert_allclose(pm @ unit("J3"), -unit("J3"), atol=1e-14)
    # at unit scale factors the map is the x<->y phase-space swap
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
    for g in range(10):
        img = pm[:, g]
        want, resid = from_matrix(swap @ to_matrix(np.eye(10)[g]) @ swap)
        assert resid < 1e-13
        np.testing.assert_allclose(img, want, atol=1e-13)


def test_pushforward_linear():
    p = params()
    a = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
    b = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
    pm = pushforward_map(ep_state(p, np.array([0.7])))
    np.testing.assert_allclose(pm @ (a + 2.0 * b), pm @ a + 2.0 * (pm @ b), atol=1e-12)


@pytest.mark.parametrize("r", [R_ONE, R_WOBBLE, R_POLY], ids=["constant", "sinusoid", "polynomial"])
@pytest.mark.parametrize("coupling", [0.0, 0.5])
def test_pushforward_element_equals_map_column_sum(r, coupling):
    # the element's own image T^-1 X T equals the full generator map
    # applied to its coefficients
    p = params(coupling=coupling, r=r, c2=0.3, c3=0.25)
    ep = ep_state(p, np.linspace(0.0, 3.0, 61))
    pm = pushforward_map(ep)
    for _ in range(3):
        e = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
        np.testing.assert_allclose(pushforward(ep, e), pm @ e, rtol=0, atol=1e-14)
    per_sample = RNG.standard_normal((ep.t.size, 10)) + 1j * RNG.standard_normal((ep.t.size, 10))
    np.testing.assert_allclose(pushforward(ep, per_sample),
                               np.einsum("nij,nj->ni", pm, per_sample), rtol=0, atol=1e-14)
    np.testing.assert_allclose(invariant_IH(p, ep), pm @ reference_H0(p), rtol=0, atol=1e-14)


@pytest.mark.parametrize("p", [
    params(r=R_WOBBLE),  # point_transform_core.json
    params(alpha=0.6, beta=1.7, coupling=0.3, r=R_WOBBLE),
    params(r=ScalarProfile.sinusoid(2.0, 1.0, 0.0, 0.5)),  # r = 0.5 + 2 sin t changes sign
], ids=["core", "alpha_below_beta", "r_changes_sign"])
def test_pushforward_is_the_quadratic_form_congruence(p):
    # the published map T^T S T on Weyl quadratic forms is the reference
    # of the similarity T^-1 X T
    ep = ep_state(p, np.linspace(0.0, 4.0, 401))
    T = ep.T
    elements = [RNG.standard_normal(10) + 1j * RNG.standard_normal(10) for _ in range(3)]
    for e in elements + [reference_H0(p), dyson_static(p).h0]:
        want, resid = from_quadratic_form(np.swapaxes(T, -1, -2) @ quadratic_form(e) @ T)
        assert resid.max() < 1e-12
        assert np.abs(pushforward(ep, e) - want).max() <= 1e-14 * np.abs(want).max()


def pushforward_shift(p, ep):
    """Inhomogeneous element from transforming i d/dtau (hbar = 1), shape (N, 10):
    the transformed reference equation reads r image(h) = i d/dt + shift, so
    the target-frame Hamiltonian of a reference h is r pushforward(h) - shift."""
    a_, b_ = p.alpha, p.beta
    cx = ep.sigma_tau**2 / (2.0 * b_) + b_ * (ep.sigma**4 - 1.0) / (2.0 * ep.sigma**2)
    cy = ep.mu_tau**2 / (2.0 * a_) + a_ * (ep.mu**4 - 1.0) / (2.0 * ep.mu**2)
    out = (np.outer(ep.sigma_tau / ep.sigma, _WXPX) + np.outer(ep.mu_tau / ep.mu, _WYPY)
           + np.outer(cx, _X2) + np.outer(cy, _Y2))
    return (ep.r[:, None] * out).astype(complex)


def test_pushforward_shift_vanishes_at_trivial_params():
    p = params(c2=0.0, c3=0.0)
    np.testing.assert_allclose(pushforward_shift(p, ep_state(p, np.array([0.0, 1.0]))), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# reference Hamiltonian and invariant


def test_reference_h0():
    p = params(alpha=2.0, beta=1.0, coupling=0.0)
    h0 = reference_H0(p)
    assert h0[_G.J0] == 3.0 and h0[_G.J3] == 1.0
    iso = reference_H0(params(alpha=1.5, beta=1.5, coupling=0.0))
    np.testing.assert_allclose(iso, 3.0 * unit("J0"), atol=0)
    coupled = reference_H0(params(coupling=1.0))
    assert np.abs(coupled.imag).max() > 1e-12  # not Hermitian: imaginary coefficients
    assert np.abs(adjoint(coupled) - coupled).max() > 0


def test_invariant_trivial_params():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.0, c3=0.0)
    inv = invariant_IH(p, ep_state(p, np.array([0.8])))[0]
    want = (1.0 * (unit("J0") + unit("J3")) + 2.0 * (unit("J0") - unit("J3"))
            + 1.0j * (unit("J1") + unit("K3")))
    np.testing.assert_allclose(inv, want, atol=1e-13)


def test_invariant_satisfies_invariant_equation():
    p = params(alpha=2.0, beta=1.0, coupling=0.5, r=R_WOBBLE, c2=0.2, c3=0.2)
    grid = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    ep = ep_state(p, grid)
    inv = invariant_IH(p, ep)
    a, b, lam = target_coefficients(p, ep)
    assert lr_residual(inv, build_H_modified(a, b, lam), grid)[0] < 1e-8


def test_invariant_hermitian_without_coupling():
    p = params(coupling=0.0, c2=0.0, c3=0.0)
    inv = invariant_IH(p, ep_state(p, np.array([0.5, 1.5])))
    assert np.abs(inv.imag).max() < 1e-14


# ---------------------------------------------------------------------------
# static Dyson map


def test_dyson_static_zero_coupling_identity():
    p = params(coupling=0.0)
    stat = dyson_static(p)
    np.testing.assert_array_equal(stat.eta_matrix, np.eye(4))
    np.testing.assert_array_equal(stat.h0, reference_H0(p))
    assert stat.kappa1 == 0.0 and stat.kappa2 == 0.0
    assert stat.constraint_residual == 0.0


def test_dyson_static_zero_coupling_formula_limit():
    # Delta = alpha^2 - beta^2 (negative for alpha < beta) and h0 collapses onto H0
    for alpha, beta in [(2.0, 1.0), (0.6, 1.7)]:
        p = params(alpha=alpha, beta=beta, coupling=0.0)
        stat = dyson_static(p)
        assert stat.delta == pytest.approx(alpha**2 - beta**2)
        assert stat.h0[_G.J0] == pytest.approx(alpha + beta)
        assert stat.h0[_G.J3] == pytest.approx(alpha - beta)
        assert abs(stat.h0[_G.K1]) == 0.0 and abs(stat.h0[_G.Q2]) == 0.0


def test_dyson_static_constraints():
    p = params(alpha=2.0, beta=1.0, coupling=1.0)
    stat = dyson_static(p)
    k1, k2 = stat.kappa1, stat.kappa2
    assert k1 * k2 <= 0.0
    # the paper's form of the constraints, in complex arithmetic
    s = np.lib.scimath.sqrt(k1 * k2)
    lhs = 2.0 * p.coupling * np.cos(2.0 * s)
    r1 = lhs - (p.alpha + p.beta) * (k1 + k2) * np.sin(2.0 * s) / s
    r2 = lhs - (p.alpha - p.beta) * (k1 - k2) * np.sin(2.0 * s) / s
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10
    assert stat.constraint_residual == pytest.approx(max(abs(r1), abs(r2)), rel=0, abs=1e-14)
    # adjoint action of the exponent produces exactly the closed h0
    assert stat.check_residual < 1e-10
    assert np.abs(stat.h0.imag).max() <= 1e-12  # Hermitian: real coefficients


def test_dyson_static_closed_form_is_symplectic():
    # eta0 = cosh(w) + (sinh(w)/w) X with X^2 = w^2 = -kappa1 kappa2;
    # expm's truncation left a symplectic defect of 8.1e-15 here
    p = params(alpha=1.69, beta=0.77, coupling=-0.118)
    stat = dyson_static(p)
    x = to_matrix(stat.exponent)
    np.testing.assert_allclose(x @ x, -stat.kappa1 * stat.kappa2 * np.eye(4), rtol=0, atol=1e-16)
    eta0 = stat.eta_matrix
    assert np.abs(eta0 @ symplectic_inverse(eta0) - np.eye(4)).max() <= 2e-15
    np.testing.assert_allclose(eta0, expm(x), rtol=0, atol=1e-14)


def test_dyson_static_domain_errors():
    with pytest.raises(EqualFrequencies):
        PointTransformParams(alpha=1.0, beta=1.0, coupling=0.5, r=R_ONE)
    with pytest.raises(ArctanhDomain):
        dyson_static(params(alpha=1.2, beta=1.0, coupling=2.0))
    # sqrt(alpha/beta) of the static map is real only for alpha beta > 0
    for alpha, beta in [(1.0, -2.0), (-1.0, 2.0)]:
        with pytest.raises(ConfigInvalid, match="^params.beta:"):
            params(alpha=alpha, beta=beta, coupling=0.1)
        # without coupling the map is the identity and any signs are allowed
        assert dyson_static(params(alpha=alpha, beta=beta, coupling=0.0)).check_residual == 0.0


# ---------------------------------------------------------------------------
# time-dependent Dyson map


def dyson_time_exponent(p, ep, static):
    """The oracle of :func:`dyson_time`: the exponent of the time-dependent
    Dyson map at the times of ``ep``, shape (N, 10),

    kappa2 (mu/sigma)(Q3-J2) + kappa1 (sigma/mu)(Q3+J2)
    + (beta kappa1 sigma mu' + alpha kappa2 mu sigma')/(alpha beta) (K3+J1),

    ' = d/dtau; equal to the pushforward of the static exponent (tested).
    """
    k1, k2 = static.kappa1, static.kappa2
    cxy = (p.beta * k1 * ep.sigma * ep.mu_tau + p.alpha * k2 * ep.mu * ep.sigma_tau) \
        / (p.alpha * p.beta)
    out = (np.outer(k2 * ep.mu / ep.sigma, unit("Q3") - unit("J2"))
           + np.outer(k1 * ep.sigma / ep.mu, unit("Q3") + unit("J2"))
           + np.outer(cxy, unit("J1") + unit("K3")))
    return out.astype(complex)


def test_dyson_time_exponent_trivial_swaps_kappas():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.0, c3=0.0)
    stat = dyson_static(p)
    exps = dyson_time_exponent(p, ep_state(p, np.array([1.1])), stat)[0]
    k1, k2 = stat.kappa1, stat.kappa2
    want = k2 * (unit("Q3") - unit("J2")) + k1 * (unit("Q3") + unit("J2"))
    np.testing.assert_allclose(exps, want, atol=1e-13)


def test_dyson_time_identity_without_coupling():
    p = params(coupling=0.0, c2=0.3, c3=0.2)
    eta = dyson_time(ep_state(p, np.array([0.0, 0.9, 1.7])), dyson_static(p))
    np.testing.assert_allclose(eta, np.broadcast_to(np.eye(4), eta.shape), atol=1e-14)


def test_symplectic_inverse_equals_expm_of_negated_exponent():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.3, c3=0.2)
    x = to_matrix(dyson_time_exponent(p, ep_state(p, np.linspace(0.0, 4.0, 201)), dyson_static(p)))
    eta = expm(x)
    np.testing.assert_allclose(symplectic_inverse(eta), expm(-x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(eta @ symplectic_inverse(eta),
                               np.broadcast_to(np.eye(4), eta.shape), rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha, beta, coupling, r", [
    (2.0, 1.0, 0.5, R_WOBBLE),
    (0.6, 1.7, 0.3, R_WOBBLE),
    (2.0, 1.0, 0.5, ScalarProfile.sinusoid(2.0, 1.0, 0.0, 0.5)),  # r changes sign
])
def test_dyson_time_is_the_exponential_of_the_closed_exponent(alpha, beta, coupling, r):
    # eta = T^-1 eta0 T is exp of the paper's time-dependent exponent
    p = params(alpha=alpha, beta=beta, coupling=coupling, r=r, c2=0.2, c3=0.2)
    stat = dyson_static(p)
    ep = ep_state(p, np.linspace(0.0, 4.0, 4001))
    want = expm(to_matrix(dyson_time_exponent(p, ep, stat)))
    rel = np.linalg.norm(complex_form(dyson_time(ep, stat)) - want, axis=(1, 2)) \
        / np.linalg.norm(want, axis=(1, 2))
    assert rel.max() <= 1e-13


def test_transport_generator_moves_the_images():
    # d I_H/dt = [I_H, K] and d eta/dt = [eta, K], against the stencil
    p = params(alpha=2.0, beta=1.0, coupling=0.5, r=R_WOBBLE, c2=0.3, c3=0.2)
    grid = np.linspace(0.0, 2.0, 2001)
    ep = ep_state(p, grid)
    k = transport_generator(p, ep)
    inv = invariant_IH(p, ep)
    eta = complex_form(dyson_time(ep, dyson_static(p)))
    kmat = to_matrix(k)
    step = grid[1] - grid[0]
    np.testing.assert_allclose(commutator(inv, k)[2:-2], central_diff(inv, step)[2:-2],
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose((eta @ kmat - kmat @ eta)[2:-2], central_diff(eta, step)[2:-2],
                               rtol=0, atol=1e-9)


def test_dyson_time_exponent_is_static_image():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.2, c3=0.3)
    stat = dyson_static(p)
    ep = ep_state(p, np.linspace(0.0, 2.0, 9))
    exps = dyson_time_exponent(p, ep, stat)
    image = pushforward(ep, stat.exponent)
    np.testing.assert_allclose(exps, image, atol=1e-12)


# ---------------------------------------------------------------------------
# Hermitian invariant and Hamiltonian


def test_hermitian_invariant_trivial_no_coupling():
    p = params(alpha=2.0, beta=1.0, coupling=0.0, c2=0.0, c3=0.0)
    ep = ep_state(p, np.array([0.6]))
    ih = hermitian_invariant_Ih(invariant_IH(p, ep), dyson_time(ep, dyson_static(p)))[0]
    want = 1.0 * (unit("J0") + unit("J3")) + 2.0 * (unit("J0") - unit("J3"))
    np.testing.assert_allclose(ih, want, atol=1e-13)


def test_hermitian_invariant_real_and_consistent():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.3, c3=0.3)
    stat = dyson_static(p)
    ep = ep_state(p, np.sort(RNG.uniform(0.0, 4.0, size=50)))
    ih = hermitian_invariant_Ih(invariant_IH(p, ep), dyson_time(ep, stat))
    assert np.abs(ih.imag).max() < 1e-8
    np.testing.assert_allclose(ih, pushforward(ep, stat.h0), atol=1e-8)
    np.testing.assert_allclose(ih, hermitian_invariant_expansion(p, ep, stat), atol=1e-8)


def test_hermitian_hamiltonian_trivial_no_coupling():
    p = params(alpha=2.0, beta=1.0, coupling=0.0, c2=0.0, c3=0.0, r=R_WOBBLE)
    t = np.array([0.0, 1.2])
    h = hermitian_hamiltonian_h(p, ep_state(p, t), dyson_static(p))
    r = R_WOBBLE(t)
    want = np.outer(r, 2.0 * (unit("J0") - unit("J3")) + 1.0 * (unit("J0") + unit("J3")))
    np.testing.assert_allclose(h, want, atol=1e-13)


def test_hermitian_hamiltonian_is_hermitian_and_matches_image():
    p = params(alpha=3.0, beta=1.0, coupling=0.8, r=R_WOBBLE, c2=0.2, c3=0.2)
    stat = dyson_static(p)
    ep = ep_state(p, np.linspace(0.0, 2.0, 41))
    h = hermitian_hamiltonian_h(p, ep, stat)
    assert np.abs(h.imag).max() < 1e-12
    h_image = ep.r[:, None] * (pushforward_map(ep) @ stat.h0) - pushforward_shift(p, ep)
    np.testing.assert_allclose(h, h_image, atol=1e-12)


def tdde_on(p, grid):
    stat = dyson_static(p)
    ep = ep_state(p, grid)
    return tdde_residual(p, ep, dyson_time(ep, stat), transport_generator(p, ep), stat,
                         build_H_modified(*target_coefficients(p, ep))).max()


def test_tdde_residual_trivial():
    p = params(alpha=2.0, beta=1.0, coupling=0.0, c2=0.0, c3=0.0)
    assert tdde_on(p, np.linspace(0.0, 1.0, 101)) < 1e-10


def test_tdde_residual_and_convergence():
    # the defect is exact, so it sits at the rounding floor on every step
    # size and on a grid of three unevenly spaced samples
    p = params(alpha=2.0, beta=1.0, coupling=0.5, c2=0.2, c3=0.2)
    for step in (8e-3, 4e-3, 2e-3, 1e-3):
        assert tdde_on(p, np.arange(0.0, 2.0 + step / 2.0, step)) <= 1e-13
    assert tdde_on(p, np.array([0.1, 0.35, 1.9])) <= 1e-13


# ---------------------------------------------------------------------------
# transformed-equation residuals


def test_pde_residuals_trivial():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.0, c3=0.0, r=R_WOBBLE)
    xy = RNG.uniform(-2.0, 2.0, size=(10, 2))
    b0x, b0y, v0 = pde_constraint_residuals(p, ep_state(p, np.array([0.5, 1.5])), xy)
    assert b0x == 0.0 and b0y == 0.0
    assert v0 < 1e-12  # potential matches with lam = coupling * r


def test_pde_residuals_generic():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.3, c3=0.3)
    ts = RNG.uniform(0.0, 4.0, size=20)
    xy = RNG.uniform(-2.0, 2.0, size=(20, 2))
    ep = ep_state(p, ts)
    b0x, b0y, v0 = pde_constraint_residuals(p, ep, xy)
    assert max(b0x, b0y, v0) < 1e-8
    # the broadcast over (times x samples) equals the worst of one time at a time
    per_time = [pde_constraint_residuals(p, ep.take([k]), xy) for k in range(ts.size)]
    assert (b0x, b0y, v0) == tuple(np.max(per_time, axis=0))


def test_pde_residuals_ignore_phase_constant():
    p1 = params(c2=0.25, c3=0.15)
    p2 = PointTransformParams(alpha=p1.alpha, beta=p1.beta, coupling=p1.coupling,
                              r=p1.r, c2=p1.c2, c3=p1.c3, c1_phase=3.7)
    ts = np.array([0.4, 1.3])
    xy = RNG.uniform(-1.0, 1.0, size=(5, 2))
    np.testing.assert_allclose(pde_constraint_residuals(p1, ep_state(p1, ts), xy),
                               pde_constraint_residuals(p2, ep_state(p2, ts), xy), atol=1e-13)


# ---------------------------------------------------------------------------
# metric


def metric_matrices(eta):
    """The complex oracle of :func:`metric_eigenvalues`: the metric
    rho = eta^dagger eta of the complex Dyson map eta = D eta' D^-1, for the
    real stack ``eta`` = eta' (N, 4, 4) of :func:`dyson_time`."""
    eta = complex_form(eta)
    return np.conj(np.transpose(eta, (0, 2, 1))) @ eta


def test_metric_positive_definite():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.4, c3=0.4)
    eta = dyson_time(ep_state(p, np.linspace(0.0, 4.0, 401)), dyson_static(p))
    assert metric_is_positive(eta).all()
    evs = metric_eigenvalues(eta[::80])
    assert (evs > 0).all()
    assert (np.diff(evs, axis=1) >= 0).all()
    want = np.stack([scipy.linalg.eigvalsh(r) for r in metric_matrices(eta[::80])])
    np.testing.assert_allclose(evs, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_metric_hermitian():
    p = params(coupling=0.8)
    rho = metric_matrices(dyson_time(ep_state(p, np.array([0.3, 2.1])), dyson_static(p)))
    np.testing.assert_allclose(rho, np.conj(np.transpose(rho, (0, 2, 1))), atol=1e-14)


def test_vanishing_time_density_on_grid_matches_offset_neighbour():
    # r = t - 2 is exactly zero at the grid point t = 2; every formula
    # multiplies by r, so nothing there is singular, and the results
    # agree with r = t - (2 + 1e-12), whose zero falls between samples
    grid = np.linspace(0.0, 4.0, 401)
    assert grid[200] == 2.0
    out = []
    for shift in (2.0, 2.0 + 1e-12):
        p = params(r=ScalarProfile.polynomial([-shift, 1.0]))
        ep = ep_state(p, grid)
        static = dyson_static(p)
        eta = dyson_time(ep, static)
        per_sample = tdde_residual(p, ep, eta, transport_generator(p, ep), static,
                                   build_H_modified(*target_coefficients(p, ep)))
        out.append((ep.r, invariant_IH(p, ep), eta, per_sample))
    (r, inv, eta, tdde), (_, inv_off, eta_off, _) = out
    assert r[200] == 0.0
    for arr in (inv, eta, tdde):
        assert np.isfinite(arr).all()
    np.testing.assert_allclose(inv, inv_off, rtol=0, atol=1e-10)
    np.testing.assert_allclose(eta, eta_off, rtol=0, atol=1e-10)


def test_complex_delta_condition_is_arctanh_domain():
    # (alpha^2-beta^2)^2 < 4 alpha beta Lambda^2 is algebraically the
    # same as |2 sqrt(alpha beta) Lambda / (alpha^2-beta^2)| >= 1, so a
    # would-be-complex Delta always surfaces as the domain error
    alpha, beta, coupling = 1.3, 1.0, 0.34
    assert (alpha**2 - beta**2) ** 2 < 4 * alpha * beta * coupling**2
    with pytest.raises(ArctanhDomain):
        dyson_static(params(alpha=alpha, beta=beta, coupling=coupling))


# ---------------------------------------------------------------------------
# the real form: z = D z' with D = diag(1, i, 1, -i), D^-1 T D = i S


R_TABLE = ScalarProfile.tabulated([0.0, 1.0, 2.5, 4.0], [1.0, -0.5, 0.8, 1.2])
R_KINDS = pytest.mark.parametrize("r", [R_ONE, R_WOBBLE, R_POLY, R_TABLE],
                                  ids=["constant", "sinusoid", "polynomial", "tabulated"])


@R_KINDS
def test_substitution_is_i_times_a_real_anti_symplectic_matrix(r):
    ep = ep_state(params(r=r, c2=0.3, c3=0.25), np.linspace(0.0, 4.0, 81))
    s = pt._real_substitution(ep.T)
    assert s.dtype == np.float64
    d = algebra._REAL_D
    assert np.array_equal(ep.T * (d / d[:, None]), 1j * s)  # D^-1 T D, entrywise
    omega = OMEGA.real
    scale = np.abs(s).max() ** 2
    np.testing.assert_allclose(np.swapaxes(s, 1, 2) @ omega @ s,
                               np.broadcast_to(-omega, s.shape), rtol=0, atol=1e-15 * scale)
    # so the symplectic inverse of S is -S^-1
    np.testing.assert_allclose(symplectic_inverse(s) @ s, np.broadcast_to(-np.eye(4), s.shape),
                               rtol=0, atol=1e-15 * scale)


@R_KINDS
def test_pushforward_matches_the_complex_conjugation(r):
    p = params(r=r, c2=0.3, c3=0.25)
    ep = ep_state(p, np.linspace(0.0, 4.0, 61))
    for shape in ((10,), (61, 10), (10, 1, 10)):
        e = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        want = conjugate_by(symplectic_inverse(ep.T), e)
        got = pushforward(ep, e)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@R_KINDS
def test_real_form_stages_match_the_complex_ones(r):
    p = params(r=r, coupling=0.8, c2=0.3, c3=0.25)
    ep = ep_state(p, np.linspace(0.0, 4.0, 61))
    stat = dyson_static(p)
    eta = dyson_time(ep, stat)  # the real eta' = D^-1 eta D
    assert eta.dtype == np.float64
    eta_c = complex_form(eta)
    assert np.array_equal(eta_c, symplectic_inverse(ep.T) @ stat.eta_matrix @ ep.T)
    k = transport_generator(p, ep)
    rate = ep.r[:, None, None] * pt._from_entries((
        ep.mu_tau, ep.sigma_tau, ep.mu_tautau / p.alpha, -ep.mu_tau / ep.mu**2,
        ep.sigma_tautau / p.beta, -ep.sigma_tau / ep.sigma**2))
    want_k, _ = from_matrix(symplectic_inverse(ep.T) @ rate)
    assert np.abs(k - want_k).max() <= 1e-14 * np.abs(want_k).max()
    inv = invariant_IH(p, ep)
    want = conjugate_by(eta_c, inv)
    assert np.abs(hermitian_invariant_Ih(inv, eta) - want).max() <= 1e-14 * np.abs(want).max()
    want = np.linalg.eigvalsh(metric_matrices(eta))
    assert np.abs(metric_eigenvalues(eta) - want).max() <= 1e-14 * np.abs(want).max()


def test_real_form_stages_raise_on_a_leak_or_an_eta_outside_the_real_form(monkeypatch):
    p = params(r=R_WOBBLE)
    ep = ep_state(p, np.linspace(0.0, 4.0, 41))
    stat = dyson_static(p)
    eta = dyson_time(ep, stat)
    inv = invariant_IH(p, ep)
    k = transport_generator(p, ep)
    h = build_H_modified(*target_coefficients(p, ep))
    conjugations = (lambda e: hermitian_invariant_Ih(inv, e),
                    lambda e: tdde_residual(p, ep, e, k, stat, h))
    # a NaN in eta reaches the leak check of the conjugation
    nan_eta = eta.copy()
    nan_eta[7, 0, 1] = np.nan
    for run in conjugations:
        with pytest.raises(ProjectionLeak, match="conjugation residual"):
            run(nan_eta)
    # every reader takes the real eta' as it is: the complex eta, or eta'
    # with an imaginary part, raises and no imaginary part is dropped
    off = eta + 0j
    off[3, 0, 0] += 1e-3j
    for run in conjugations + (metric_eigenvalues,):
        for bad in (complex_form(eta), eta + 0j, off):
            with pytest.raises(ValueError, match="real form"):
                run(bad)
    # with no tolerance, the rounding in the remainders raises
    monkeypatch.setattr(algebra, "PROJ_TOL", 0.0)
    for run in conjugations:
        with pytest.raises(ProjectionLeak, match="conjugation residual"):
            run(eta)
    with pytest.raises(ProjectionLeak, match="conjugation residual"):
        invariant_IH(p, ep)
    with pytest.raises(ProjectionLeak, match="transport generator residual"):
        transport_generator(p, ep)


# ---------------------------------------------------------------------------
# scenario run: one EP state per grid, one Dyson map


PT_CFG = {
    "mode": "point-transform",
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 1001},
    "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.3,
               "r": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0,
                     "offset": 1.0}},
}


def test_point_transform_run_accumulates_tau_once_per_grid(tmp_path, monkeypatch):
    # the scenario grid and the single time of the image-row records
    calls = []
    integrate = ScalarProfile.antiderivative

    def counted(profile, t, start):
        if profile.to_config() == PT_CFG["params"]["r"]:
            calls.append(np.size(t))
        return integrate(profile, t, start)

    monkeypatch.setattr(ScalarProfile, "antiderivative", counted)
    report = run_scenario(PT_CFG, str(tmp_path))
    assert report["all_pass"]
    assert calls == [PT_CFG["grid"]["steps"]], calls



def test_point_transform_run_builds_the_transport_generator_once(tmp_path, monkeypatch):
    # K = T^-1 dT/dt = -i phi w feeds both the invariant's rate (through
    # its real coordinates w) and the Dyson equation; transport_generator
    # also forms w, so patching the module's name counts its calls too
    calls = []
    build = pt._transport_coordinates

    def counted(p, ep):
        calls.append(ep.t.size)
        return build(p, ep)

    monkeypatch.setattr(pt, "_transport_coordinates", counted)
    monkeypatch.setattr(cli, "_transport_coordinates", counted)
    report = run_scenario(PT_CFG, str(tmp_path))
    assert report["all_pass"]
    assert calls == [PT_CFG["grid"]["steps"]], calls


def test_point_transform_run_forms_no_complex_dyson_stack(tmp_path, monkeypatch):
    # the time-dependent Dyson map has one form, the real eta' of
    # dyson_time; only the static 4x4 eta0 is taken to the real form
    calls = []
    to_real = algebra._to_real_form

    def counted(m):
        calls.append(np.shape(m))
        return to_real(m)

    for module in (algebra, pt, cli):
        monkeypatch.setattr(module, "_to_real_form", counted, raising=False)
    report = run_scenario(PT_CFG, str(tmp_path))
    assert report["all_pass"]
    assert calls == [(4, 4)], calls
    assert not hasattr(algebra, "_from_real_form")


@pytest.mark.parametrize("r", [1e6, 1e8])
def test_a_large_time_density_leaves_no_projection_leak(tmp_path, r):
    # |K| ~ r, so the projection remainders of K and of every image grow
    # with r (1.5e-10 at r = 1e6, 1.7e-8 at r = 1e8): rounding, measured
    # against the operand sizes, not a leak.  The rows that compare
    # images read at rounding; rows with absolute tolerances are not
    # asserted here
    with open(os.path.join(SCENARIOS, "point_transform_core.json")) as fh:
        cfg = json.load(fh)
    cfg["grid"] = {"t0": 0.0, "t1": 1e-3, "steps": 201}
    cfg["params"]["r"] = {"kind": "constant", "value": r}
    checks = {c["name"]: c for c in run_scenario(cfg, str(tmp_path))["checks"]}
    for name in ("ermakov_first_integral", "dyson_inverse_identity", "hermiticity_leak",
                 "invariant_image_match", "hermitian_expansion_match"):
        assert checks[name]["status"] == "pass", checks[name]


def test_sigma_rate_fault_fails_only_the_first_integral(tmp_path, monkeypatch):
    # every exact rate holds for any sigma', so of all rows only the
    # Ermakov first integral sees sigma' scaled by 1 + 1e-6 (the state's
    # substitution T is built from the faulty sigma', as ep_state would)
    def faulty(p, t):
        ep = ep_state(p, t)
        sigma_tau = ep.sigma_tau * (1.0 + 1e-6)
        return dataclasses.replace(ep, sigma_tau=sigma_tau, T=pt._substitution_matrices(
            p, ep.sigma, sigma_tau, ep.mu, ep.mu_tau))

    monkeypatch.setattr(cli, "ep_state", faulty)
    config = os.path.join(SCENARIOS, "point_transform_core.json")
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["name"] for r in report["checks"] if r["status"] == "fail"] \
        == ["ermakov_first_integral"]


def test_static_map_fault_fails_the_postcondition_row(tmp_path, monkeypatch):
    # eta0 H0 eta0^-1 misses the closed h0 when H0 carries a coupling off
    # by 1 + 1e-6; the report row, not an exception, must say so
    def faulty(p):
        return build_H_modified(p.alpha, p.beta, p.coupling * (1.0 + 1e-6))

    monkeypatch.setattr(pt, "reference_H0", faulty)
    config = os.path.join(SCENARIOS, "point_transform_core.json")
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    status = {r["name"]: r["status"] for r in report["checks"]}
    assert status["static_map_postcondition"] == "fail"


# ---------------------------------------------------------------------------
# the invariant's exact rate in real coordinates

# the alpha < beta point-transform run of CI: a negative coupling and a
# tabulated r that changes sign between its knots
PT_TABULATED_CFG = {
    "mode": "point-transform", "grid": {"t0": 0.0, "t1": 4.0, "steps": 2001},
    "params": {"alpha": 0.6, "beta": 1.7, "coupling": -0.3, "c2": 0.3, "c3": 0.1,
               "r": {"kind": "tabulated", "times": [0.0, 1.0, 2.5, 4.0],
                     "values": [1.0, -0.5, 0.8, 1.2]}},
}


@pytest.mark.parametrize("name", ["core", "tabulated"])
def test_real_rate_defect_is_the_complex_lr_residual_per_sample(name):
    # R(r_I, w) - R(r_H, r_I) in real coordinates against
    # i [I_H, K] - [H, I_H] on complex coefficients, bitwise per sample
    cfg = PT_TABULATED_CFG
    if name == "core":
        with open(os.path.join(SCENARIOS, "point_transform_core.json")) as fh:
            cfg = json.load(fh)
    cfg = cli._resolve_config(cfg)
    p = PointTransformParams(**cfg["params"])
    grid = np.linspace(cfg["grid"]["t0"], cfg["grid"]["t1"], cfg["grid"]["steps"])
    ep = ep_state(p, grid)
    inv = invariant_IH(p, ep)
    h = build_H_modified(*target_coefficients(p, ep))
    w = pt._transport_coordinates(p, ep)
    assert w.flags.c_contiguous and w.shape == (10, grid.size)
    k = transport_generator(p, ep)
    assert np.array_equal(k, -1j * algebra._REAL_PHASES * w.T)
    got = pt._invariant_rate_defect(np.ascontiguousarray(algebra._real_coordinates(inv)), w,
                                    np.ascontiguousarray(algebra._real_coordinates(h)))
    _, want = lr_residual(inv, h, grid, didt=commutator(inv, k))
    assert np.array_equal(got, want)
    assert 0.0 < want.max() <= 1e-12


def test_point_transform_run_calls_the_complex_bracket_once(tmp_path, monkeypatch):
    # only the ledger's closed-expression variant, differentiated by the
    # stencil, still takes the complex bracket
    import sp4lr.lr_ode

    calls = []
    bracket = algebra.commutator

    def counted(a, b):
        calls.append(np.shape(a))
        return bracket(a, b)

    for module in (algebra, sp4lr.lr_ode):
        monkeypatch.setattr(module, "commutator", counted)
    report = run_scenario(PT_CFG, str(tmp_path))
    assert report["all_pass"]
    assert calls == [(PT_CFG["grid"]["steps"], 10)], calls


def test_coupling_fault_fails_the_invariant_lr_residual(tmp_path, monkeypatch):
    # the target coupling scaled by 1 + 1e-8 moves invariant_lr_residual
    # to about 1.84e-8 on the shipped run, above its 1e-8 tolerance
    def faulty(p, ep):
        a, b, lam = target_coefficients(p, ep)
        return a, b, lam * (1.0 + 1e-8)

    monkeypatch.setattr(cli, "target_coefficients", faulty)
    config = os.path.join(SCENARIOS, "point_transform_core.json")
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    row = {r["name"]: r for r in report["checks"]}["invariant_lr_residual"]
    assert row["status"] == "fail"
    assert 1.5e-8 < row["residual"] < 2.5e-8, row
