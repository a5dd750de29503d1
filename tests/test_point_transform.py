"""Tests for the point-transformation pipeline."""

import numpy as np
import pytest
import scipy.linalg

from sp4lr.algebra import (
    GeneratorId,
    adjoint,
    from_matrix,
    symplectic_inverse,
    to_matrix,
)
from sp4lr.cli import run_scenario
from sp4lr.errors import ArctanhDomain, ConfigInvalid, EqualFrequencies
from sp4lr.hamiltonian import build_H_modified
from sp4lr.lr_ode import lr_residual
from sp4lr.numerics import central_diff, expm
from sp4lr.point_transform import (
    PointTransformParams,
    dyson_static,
    dyson_time,
    dyson_time_exponent,
    ep_residual,
    ep_state,
    hermitian_hamiltonian_h,
    hermitian_invariant_expansion,
    hermitian_invariant_Ih,
    invariant_IH,
    metric_eigenvalues,
    metric_is_positive,
    metric_matrices,
    pde_constraint_residuals,
    pushforward,
    pushforward_map,
    pushforward_shift,
    reference_H0,
    target_coefficients,
    tdde_residual,
)
from sp4lr.profiles import ScalarProfile

RNG = np.random.default_rng(20240801)
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
    pm = pushforward_map(p, ep_state(p, np.array([0.4])))
    np.testing.assert_allclose(pm.apply(unit("J0"))[0], unit("J0"), atol=1e-14)
    np.testing.assert_allclose(pm.apply(unit("Q1"))[0], -unit("Q1"), atol=1e-14)
    np.testing.assert_allclose(pm.apply(unit("K2"))[0], unit("K2"), atol=1e-14)
    np.testing.assert_allclose(pm.apply(unit("J3"))[0], -unit("J3"), atol=1e-14)
    # at unit scale factors the map is the x<->y phase-space swap
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
    for g in range(10):
        img = pm.apply(np.eye(10)[g])[0]
        want, resid = from_matrix(swap @ to_matrix(np.eye(10)[g]) @ swap)
        assert resid < 1e-13
        np.testing.assert_allclose(img, want, atol=1e-13)


def test_pushforward_linear():
    p = params()
    a = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
    b = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
    pm = pushforward_map(p, ep_state(p, np.array([0.7])))
    np.testing.assert_allclose(pm.apply(a + 2.0 * b), pm.apply(a) + 2.0 * pm.apply(b),
                               atol=1e-12)


@pytest.mark.parametrize("r", [R_ONE, R_WOBBLE, R_POLY], ids=["constant", "sinusoid", "polynomial"])
@pytest.mark.parametrize("coupling", [0.0, 0.5])
def test_pushforward_element_equals_map_column_sum(r, coupling):
    # the element's own quadratic form pushed through T^T S T equals the
    # full generator map applied to its coefficients
    p = params(coupling=coupling, r=r, c2=0.3, c3=0.25)
    ep = ep_state(p, np.linspace(0.0, 3.0, 61))
    pm = pushforward_map(p, ep)
    for _ in range(3):
        e = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
        np.testing.assert_allclose(pushforward(p, ep, e), pm.apply(e), rtol=0, atol=1e-14)
    per_sample = RNG.standard_normal((ep.t.size, 10)) + 1j * RNG.standard_normal((ep.t.size, 10))
    np.testing.assert_allclose(pushforward(p, ep, per_sample), pm.apply(per_sample),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(invariant_IH(p, ep), pm.apply(reference_H0(p)),
                               rtol=0, atol=1e-14)


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
    assert lr_residual(inv, build_H_modified(a, b, lam), grid) < 1e-8


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
    assert stat.params.kappa1 == 0.0 and stat.params.kappa2 == 0.0


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
    k1, k2 = stat.params.kappa1, stat.params.kappa2
    assert k1 * k2 <= 0.0
    s = np.lib.scimath.sqrt(k1 * k2)
    lhs = 2.0 * p.coupling * np.cos(2.0 * s)
    r1 = lhs - (p.alpha + p.beta) * (k1 + k2) * np.sin(2.0 * s) / s
    r2 = lhs - (p.alpha - p.beta) * (k1 - k2) * np.sin(2.0 * s) / s
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10
    # adjoint action of the exponent produces exactly the closed h0
    assert stat.check_residual < 1e-10
    assert np.abs(stat.h0.imag).max() <= 1e-12  # Hermitian: real coefficients


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


def test_dyson_time_exponent_trivial_swaps_kappas():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.0, c3=0.0)
    stat = dyson_static(p)
    exps = dyson_time_exponent(p, ep_state(p, np.array([1.1])), stat)[0]
    k1, k2 = stat.params.kappa1, stat.params.kappa2
    want = k2 * (unit("Q3") - unit("J2")) + k1 * (unit("Q3") + unit("J2"))
    np.testing.assert_allclose(exps, want, atol=1e-13)


def test_dyson_time_identity_without_coupling():
    p = params(coupling=0.0, c2=0.3, c3=0.2)
    eta = dyson_time(p, ep_state(p, np.array([0.0, 0.9, 1.7])), dyson_static(p))
    np.testing.assert_allclose(eta, np.broadcast_to(np.eye(4), eta.shape), atol=1e-14)


def test_symplectic_inverse_equals_expm_of_negated_exponent():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.3, c3=0.2)
    x = to_matrix(dyson_time_exponent(p, ep_state(p, np.linspace(0.0, 4.0, 201)), dyson_static(p)))
    eta = expm(x)
    np.testing.assert_allclose(symplectic_inverse(eta), expm(-x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(eta @ symplectic_inverse(eta),
                               np.broadcast_to(np.eye(4), eta.shape), rtol=0, atol=1e-13)


def test_dyson_time_exponent_is_static_image():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.2, c3=0.3)
    stat = dyson_static(p)
    ep = ep_state(p, np.linspace(0.0, 2.0, 9))
    exps = dyson_time_exponent(p, ep, stat)
    image = pushforward(p, ep, stat.exponent)
    np.testing.assert_allclose(exps, image, atol=1e-12)


# ---------------------------------------------------------------------------
# Hermitian invariant and Hamiltonian


def test_hermitian_invariant_trivial_no_coupling():
    p = params(alpha=2.0, beta=1.0, coupling=0.0, c2=0.0, c3=0.0)
    ep = ep_state(p, np.array([0.6]))
    ih = hermitian_invariant_Ih(invariant_IH(p, ep), dyson_time(p, ep, dyson_static(p)))[0]
    want = 1.0 * (unit("J0") + unit("J3")) + 2.0 * (unit("J0") - unit("J3"))
    np.testing.assert_allclose(ih, want, atol=1e-13)


def test_hermitian_invariant_real_and_consistent():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, c2=0.3, c3=0.3)
    stat = dyson_static(p)
    ep = ep_state(p, np.sort(RNG.uniform(0.0, 4.0, size=50)))
    ih = hermitian_invariant_Ih(invariant_IH(p, ep), dyson_time(p, ep, stat))
    assert np.abs(ih.imag).max() < 1e-8
    np.testing.assert_allclose(ih, pushforward(p, ep, stat.h0), atol=1e-8)
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
    pm = pushforward_map(p, ep)
    h_image = ep.r[:, None] * pm.apply(stat.h0) - pm.shift
    np.testing.assert_allclose(h, h_image, atol=1e-12)


def tdde_on(p, grid):
    stat = dyson_static(p)
    ep = ep_state(p, grid)
    return tdde_residual(p, ep, dyson_time(p, ep, stat), stat)


def test_tdde_residual_trivial():
    p = params(alpha=2.0, beta=1.0, coupling=0.0, c2=0.0, c3=0.0)
    assert tdde_on(p, np.linspace(0.0, 1.0, 101)) < 1e-10


def test_tdde_residual_and_convergence():
    p = params(alpha=2.0, beta=1.0, coupling=0.5, c2=0.2, c3=0.2)
    grid = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    assert tdde_on(p, grid) < 1e-6
    # 4th-order decay under step halving
    errs = []
    for step in (8e-3, 4e-3, 2e-3):
        g = np.arange(0.0, 2.0 + step / 2.0, step)
        errs.append(tdde_on(p, g))
    assert 10.0 < errs[0] / errs[1] < 24.0
    assert 10.0 < errs[1] / errs[2] < 24.0


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


def test_metric_positive_definite():
    p = params(alpha=2.0, beta=1.0, coupling=1.0, r=R_WOBBLE, c2=0.4, c3=0.4)
    eta = dyson_time(p, ep_state(p, np.linspace(0.0, 4.0, 401)), dyson_static(p))
    assert metric_is_positive(eta).all()
    evs = metric_eigenvalues(eta[::80])
    assert (evs > 0).all()
    assert (np.diff(evs, axis=1) >= 0).all()
    want = np.stack([scipy.linalg.eigvalsh(r) for r in metric_matrices(eta[::80])])
    np.testing.assert_allclose(evs, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_metric_hermitian():
    p = params(coupling=0.8)
    rho = metric_matrices(dyson_time(p, ep_state(p, np.array([0.3, 2.1])), dyson_static(p)))
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
        eta = dyson_time(p, ep, static)
        _, per_sample = tdde_residual(p, ep, eta, static, return_samples=True)
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
# scenario run: one EP state per grid, one Dyson map


PT_CFG = {
    "mode": "point-transform",
    "grid": {"t0": 0.0, "t1": 1.0, "steps": 1001},
    "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.3,
               "r": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0,
                     "offset": 1.0}},
}


def test_point_transform_run_accumulates_tau_once_per_grid(tmp_path, monkeypatch):
    # the half-step grid (the scenario grid is its even samples) and the
    # single time of the image-row records
    calls = []
    integrate = ScalarProfile.antiderivative

    def counted(profile, t, start):
        if profile.to_config() == PT_CFG["params"]["r"]:
            calls.append(np.size(t))
        return integrate(profile, t, start)

    monkeypatch.setattr(ScalarProfile, "antiderivative", counted)
    report = run_scenario(PT_CFG, str(tmp_path))
    assert report["all_pass"]
    assert 1 <= len(calls) <= 2, calls

