"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one summary line (run pytest with -s or read the
captured output).  Tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from sp4lr.algebra import (
    GENERATOR_NAMES,
    OMEGA,
    _real_coordinates,
    adjoint,
    commutator,
    generator_matrices,
    parity_action,
    pt_map,
    structure_constants,
)
from sp4lr.crosschecks import ep_form_record, invariant_equation_records
from sp4lr.hamiltonian import CoupledOscillatorParams, build_H_coeffs, build_H_modified
from sp4lr.lr_ode import (
    ClosedFormParams,
    assemble_invariant,
    closed_form_on_grid,
    evolve,
    invariant_matrix,
    involution_residuals,
    lr_residual,
)
from sp4lr.numerics import frobenius
from sp4lr.point_transform import (
    PointTransformParams,
    _transport_coordinates,
    dyson_static,
    dyson_time,
    ep_residual,
    ep_state,
    hermitian_invariant_Ih,
    invariant_IH,
    metric_eigenvalues,
    metric_is_positive,
    pde_constraint_residuals,
    pushforward,
    reference_H0,
    target_coefficients,
    tdde_residual,
    transport_generator,
)
from sp4lr.profiles import ScalarProfile

from tests.test_algebra import expected_bracket

RNG = np.random.default_rng(20240801)


def _criterion(number, name, measured, tolerance):
    """Single-measurement criterion: print one pass/fail line, then assert."""
    _criterion_parts(number, name, [(name, measured, tolerance)])


def _criterion_parts(number, name, parts):
    """Multi-measurement criterion; the summary line reports the part
    closest to (or beyond) its own tolerance."""
    ok = all(v <= tol for _, v, tol in parts)
    worst = max(parts, key=lambda p: (p[1] / p[2]) if p[2] > 0 else (0.0 if p[1] <= 0 else np.inf))
    print("acceptance criterion %d [%s]: %s (binding: %s measured %.3e, tolerance %.3e)"
          % (number, name, "PASS" if ok else "FAIL", worst[0], worst[1], worst[2]))
    for label, v, tol in parts:
        assert v <= tol, "criterion %d (%s/%s): %.3e exceeds %.3e" % (number, name, label, v, tol)


# ---------------------------------------------------------------------------
# 1. algebra suite


def test_criterion_1_algebra_suite():
    gen = generator_matrices()
    worst_comm = 0.0
    for i, a in enumerate(GENERATOR_NAMES):
        for b in GENERATOR_NAMES[i + 1:]:
            got = (gen[GENERATOR_NAMES.index(a)] @ gen[GENERATOR_NAMES.index(b)]
                   - gen[GENERATOR_NAMES.index(b)] @ gen[GENERATOR_NAMES.index(a)])
            want = np.tensordot(expected_bracket(a, b), gen, axes=(0, 0))
            worst_comm = max(worst_comm, float(np.abs(got - want).max()))
    f = structure_constants()
    jac = float(np.abs(np.einsum("ijm,mkl->ijkl", f, f)
                       + np.einsum("jkm,mil->ijkl", f, f)
                       + np.einsum("kim,mjl->ijkl", f, f)).max())
    sympl = max(float(np.abs(OMEGA @ m + m.T @ OMEGA).max()) for m in gen)
    assert sympl == 0.0, "symplectic condition must hold exactly"
    _criterion(1, "algebra suite", max(worst_comm, jac), 1e-12)


# ---------------------------------------------------------------------------
# 2. PT checks


def test_criterion_2_pt_checks():
    worst_inv = 0.0
    for _ in range(50):
        e = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
        for variant in ("PT", "PT_tilde"):
            back = pt_map(pt_map(e, variant), variant)
            worst_inv = max(worst_inv, float(np.abs(back - e).max()))
    worst_par = 0.0
    for _ in range(100):
        a, wx, wy, lam = RNG.uniform(0.2, 3.0, size=4)
        t = RNG.uniform(0.0, 5.0)
        p = CoupledOscillatorParams(
            a=ScalarProfile.sinusoid(0.2 * a, 1.3, 0.2, a),
            omega_x=ScalarProfile.constant(wx),
            omega_y=ScalarProfile.sinusoid(0.1 * wy, 0.7, 0.0, wy),
            lam=ScalarProfile.constant(lam))
        h = build_H_coeffs(p, t)
        worst_par = max(worst_par, float(np.abs(parity_action(h) - adjoint(h)).max()))
    _criterion(2, "PT involution and parity-adjoint", max(worst_inv, worst_par), 1e-12)


# ---------------------------------------------------------------------------
# 3 and 4. closed-form invariant and solver cross-validation


GRID_05 = np.arange(0.0, 5.0 + 1e-12, 1e-3)
ALPHAS = (1.0, 2.0, 3.0, 5.0)


@pytest.fixture(scope="module")
def closed_forms():
    out = {}
    for alpha in ALPHAS:
        cf = ClosedFormParams(alpha, ScalarProfile.constant(1.0))
        out[alpha] = (cf, closed_form_on_grid(cf, GRID_05, cf.lam(GRID_05))[0])
    return out


def test_criterion_3_closed_form_invariant(closed_forms):
    seed = np.zeros(10)
    seed[2] = seed[3] = 1.0
    worst = {"init": 0.0, "invol": 0.0, "unit": 0.0, "lr": 0.0}
    for alpha in ALPHAS:
        cf, traj = closed_forms[alpha]
        assert np.array_equal(traj[0], seed.astype(complex)), "seed must be exact"
        # constraint residuals at 100 random times (the first constraint
        # is a square root of a cancelling expression, unresolvable below
        # ~1e-10 in double precision within ~2e-3 of the seed time)
        from sp4lr.lr_ode import closed_form_c
        c_rand = closed_form_c(cf, RNG.uniform(0.0, 5.0, size=100))
        r = involution_residuals(c_rand)
        worst["invol"] = max(worst["invol"], max(float(np.abs(v).max()) for v in r))
        mats = invariant_matrix(traj)
        worst["unit"] = max(
            worst["unit"],
            float(frobenius(mats @ mats - np.eye(4)).max()),
            float(np.abs(np.linalg.det(mats) - 1.0).max()))
        inv = assemble_invariant(traj)
        from sp4lr.hamiltonian import build_H_coeffs
        h = build_H_coeffs(cf.oscillator_params(), GRID_05)
        worst["lr"] = max(worst["lr"], lr_residual(inv, h, GRID_05)[0])
    _criterion_parts(3, "closed-form invariant", [
        ("involution constraints", worst["invol"], 1e-10),
        ("squares to identity / unit det", worst["unit"], 1e-10),
        ("invariant-equation residual", worst["lr"], 1e-8),
    ])


def test_criterion_4_solver_cross_validation(closed_forms):
    from sp4lr.lr_ode import _commutativity_probe

    worst_to, worst_cm, worst_probe = 0.0, 0.0, 0.0
    for alpha in ALPHAS:
        cf, traj = closed_forms[alpha]
        osc = cf.oscillator_params()
        worst_probe = max(worst_probe, _commutativity_probe(osc, GRID_05))
        to = evolve(traj[0], GRID_05, osc, mode="time_ordered")
        worst_to = max(worst_to, float(np.abs(to - traj).max()))
        cm = evolve(traj[0], GRID_05, osc, mode="commuting")
        worst_cm = max(worst_cm, float(np.abs(cm - traj).max()))
    _criterion_parts(4, "solver cross-validation", [
        ("time-ordered vs closed form", worst_to, 1e-6),
        ("commuting mode vs closed form", worst_cm, 1e-8),
        ("commutativity probe", worst_probe, 1e-12),
    ])


# ---------------------------------------------------------------------------
# 5 and 7. point-transform pipeline and metric positivity


GRID_04 = np.arange(0.0, 4.0 + 1e-12, 1e-3)
SCENARIOS = [
    (alpha, beta, coupling, c, rkind)
    for (alpha, beta, coupling) in ((2.0, 1.0, 0.5), (2.0, 1.0, 1.0), (3.0, 1.0, 0.8))
    for c in (0.0, 0.2, 0.4)
    for rkind in ("one", "wobble")
]


def _r_profile(kind):
    return ScalarProfile.constant(1.0) if kind == "one" \
        else ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def pipeline_runs():
    runs = []
    for alpha, beta, coupling, c, rkind in SCENARIOS:
        p = PointTransformParams(alpha=alpha, beta=beta, coupling=coupling,
                                 r=_r_profile(rkind), c2=c, c3=c)
        stat = dyson_static(p)
        ep = ep_state(p, GRID_04)
        inv = invariant_IH(p, ep)
        a, b, lam = target_coefficients(p, ep)
        eta = dyson_time(ep, stat)
        k = transport_generator(p, ep)
        ih = hermitian_invariant_Ih(inv, eta)
        runs.append({
            "params": p, "eta": eta,
            "ep_resid": float(np.abs(ep_residual(p, ep)).max()),
            "lr": lr_residual(inv, build_H_modified(a, b, lam), GRID_04,
                              didt=commutator(inv, k))[0],
            "imag_leak": float(np.abs(ih.imag).max()),
            "image_match": float(np.abs(ih - pushforward(ep, stat.h0)).max()),
            "tdde": float(tdde_residual(p, ep, eta, k, stat, build_H_modified(a, b, lam)).max()),
        })
    return runs


def test_criterion_5_point_transform_pipeline(pipeline_runs):
    worst = {k: 0.0 for k in ("ep_resid", "lr", "imag_leak", "image_match", "tdde", "pde")}
    for run in pipeline_runs:
        for k in ("ep_resid", "lr", "imag_leak", "image_match", "tdde"):
            worst[k] = max(worst[k], run[k])
    # spatial-sample residuals on a representative scenario per parameter set
    for alpha, beta, coupling in ((2.0, 1.0, 0.5), (2.0, 1.0, 1.0), (3.0, 1.0, 0.8)):
        p = PointTransformParams(alpha=alpha, beta=beta, coupling=coupling,
                                 r=_r_profile("wobble"), c2=0.4, c3=0.4)
        ts = RNG.uniform(0.0, 4.0, size=20)
        xy = RNG.uniform(-2.0, 2.0, size=(20, 2))
        worst["pde"] = max(worst["pde"], max(pde_constraint_residuals(p, ep_state(p, ts), xy)))
    # the Dyson-equation defect is exact: at the rounding floor on every step size
    p = PointTransformParams(alpha=2.0, beta=1.0, coupling=0.5,
                             r=_r_profile("one"), c2=0.2, c3=0.2)
    stat = dyson_static(p)
    for step in (8e-3, 4e-3, 2e-3, 1e-3):
        ep = ep_state(p, np.arange(0.0, 4.0 + step / 2.0, step))
        defect = tdde_residual(p, ep, dyson_time(ep, stat), transport_generator(p, ep), stat,
                               build_H_modified(*target_coefficients(p, ep))).max()
        assert defect <= 1e-13, "step %g: Dyson-equation defect %.3e" % (step, defect)
    _criterion_parts(5, "point-transform pipeline", [
        ("Ermakov-Pinney residual", worst["ep_resid"], 1e-8),
        ("invariant-equation residual", worst["lr"], 1e-8),
        ("Hermiticity leakage", worst["imag_leak"], 1e-8),
        ("conjugation matches transformed h0", worst["image_match"], 1e-8),
        ("transformed-equation residuals", worst["pde"], 1e-8),
        ("Dyson-equation residual", worst["tdde"], 1e-8),
    ])


def test_criterion_7_metric_positivity(pipeline_runs):
    bad_fraction = 0.0
    for run in pipeline_runs:
        pos = metric_is_positive(run["eta"])
        bad_fraction = max(bad_fraction, float(1.0 - pos.mean()))
    # eigensolver spot check on a subsample of one scenario
    evs = metric_eigenvalues(pipeline_runs[3]["eta"][::400])
    assert (evs > 0.0).all()
    _criterion(7, "metric positivity", bad_fraction, 0.0)


# ---------------------------------------------------------------------------
# 6. static Dyson map


def test_criterion_6_static_dyson_map():
    p = PointTransformParams(alpha=2.0, beta=1.0, coupling=1.0,
                             r=ScalarProfile.constant(1.0))
    stat = dyson_static(p)
    k1, k2 = stat.kappa1, stat.kappa2
    s = np.lib.scimath.sqrt(k1 * k2)
    lhs = 2.0 * p.coupling * np.cos(2.0 * s)
    res1 = abs(lhs - (p.alpha + p.beta) * (k1 + k2) * np.sin(2.0 * s) / s)
    res2 = abs(lhs - (p.alpha - p.beta) * (k1 - k2) * np.sin(2.0 * s) / s)
    # adjoint action reproduces the closed Hermitian counterpart
    conj_match = stat.check_residual
    # Lambda = 0 degenerates to the identity map with h0 = H0 exactly
    p0 = PointTransformParams(alpha=2.0, beta=1.0, coupling=0.0,
                              r=ScalarProfile.constant(1.0))
    stat0 = dyson_static(p0)
    assert np.array_equal(stat0.eta_matrix, np.eye(4))
    assert np.array_equal(stat0.h0, reference_H0(p0))
    _criterion(6, "static Dyson map", max(res1, res2, conj_match), 1e-10)


# ---------------------------------------------------------------------------
# 8. known-discrepancy ledger


def test_criterion_8_known_discrepancy_ledger():
    p = PointTransformParams(alpha=2.0, beta=1.0, coupling=0.5,
                             r=ScalarProfile.constant(1.0), c2=0.2, c3=0.2)
    grid = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    ep = ep_state(p, grid)
    inv = invariant_IH(p, ep)
    inv_rate = commutator(inv, transport_generator(p, ep))
    a, b, lam = target_coefficients(p, ep)
    h = build_H_modified(a, b, lam)
    lr_resid = lr_residual(inv, h, grid, didt=inv_rate)[0]
    rec_inv, _ = invariant_equation_records(p, ep, np.ascontiguousarray(_real_coordinates(inv)),
                                            _transport_coordinates(p, ep), h, lam, lr_resid)
    rec_ep = ep_form_record(p, ep, float(np.abs(ep_residual(p, ep)).max()))
    # adopted forms pass their adjudicators; the variants are flagged
    assert rec_inv.adopted_residual < 1e-8
    assert rec_inv.variant_flagged and rec_inv.variant_residual > 1e-3
    assert rec_ep.adopted_residual < 1e-8
    assert rec_ep.variant_flagged and rec_ep.variant_residual > 1e-3
    _criterion(8, "known-discrepancy ledger",
               max(rec_inv.adopted_residual, rec_ep.adopted_residual), 1e-8)
