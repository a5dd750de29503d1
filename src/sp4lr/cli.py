"""Scenario-driven command line front end.

``sp4lr run --config scenario.json [--out dir]`` loads a JSON scenario,
runs one of the five pipeline modes, writes CSV trajectories plus a JSON
report, and exits 0 when every check passes, 2 on a check failure and 1
on a configuration or domain error.

Before any numerics run, the config is read through one field table
(``_FIELDS``, and ``profiles.PROFILE_KINDS`` for profiles), which fills
in defaults; an unknown or missing field, or a bool, string, null or
non-finite value where a number belongs, exits 1 with
``ConfigInvalid("<field.path>: ...")``.  ``sp4lr run --describe`` prints
that table.  The environment variable ``SP4_SEED`` overrides ``seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import crosschecks
from .algebra import (
    adjoint,
    commutator,
    generator_matrices,
    parity_action,
    pt_map,
    structure_constants,
    symplectic_inverse,
    OMEGA,
)
from .errors import ConfigInvalid, ProfileDomain, Sp4lrError
from .hamiltonian import (
    CoupledOscillatorParams,
    build_H_coeffs,
    build_H_modified,
    classify_regime,
    instantaneous_eigenvalues,
)
from .lr_ode import (
    COMM_TOL,
    ClosedFormParams,
    _commutativity_probe,
    assemble_invariant,
    closed_form_on_grid,
    closed_form_rate_on_grid,
    evolve,
    invariant_matrix,
    involution_residuals,
    lr_residual,
)
from .numerics import frobenius
from .point_transform import (
    PointTransformParams,
    dyson_static,
    dyson_time,
    ep_residual,
    ep_state,
    ermakov_first_integral,
    hermitian_invariant_expansion,
    hermitian_invariant_Ih,
    invariant_IH,
    metric_is_positive,
    pde_constraint_residuals,
    pushforward,
    target_coefficients,
    tdde_residual,
    transport_generator,
)
from .profiles import PROFILE_KINDS, Field, ScalarProfile

__all__ = ["main", "run_scenario", "emit_plot_data", "describe_schema"]

_MODES = ("algebra-check", "lr-closed-form", "lr-ode", "point-transform", "regime-map")

_COUPLED = {name: Field("profile") for name in ("a", "omega_x", "omega_y", "lam")}

# Every config field, the one place a default is written: a Field, or a
# dict of the fields of an object.  "params" holds one object per mode.
_FIELDS = {
    "mode": Field("choice", one_of=_MODES),
    "grid": {"t0": Field("number", 0.0), "t1": Field("number", 5.0),
             "steps": Field("integer", 5001)},
    # the coefficient solvers are written in units with hbar = 1
    "hbar": Field("number", 1.0, one_of=(1.0,)),
    "seed": Field("integer", 20240801),  # the environment's SP4_SEED overrides it
    "params": {
        "algebra-check": {"samples": Field("integer", 100)},
        "lr-closed-form": {"alpha": Field("number", 3.0), "lam": Field("profile")},
        "lr-ode": {
            **_COUPLED,
            "solver": Field("choice", "time_ordered", ("time_ordered", "commuting")),
            "c0": Field("pairs", [[0.0, 0.0]] * 2 + [[1.0, 0.0]] * 2 + [[0.0, 0.0]] * 6),
            "lr_tol": Field("number", 1e-6),
        },
        "point-transform": {
            "alpha": Field("number"), "beta": Field("number"), "coupling": Field("number", 0.0),
            "c2": Field("number", 0.0), "c3": Field("number", 0.0),
            "c1_phase": Field("number", 0.0), "r": Field("profile"),
        },
        "regime-map": _COUPLED,
    },
}


def _described(spec):
    return {name: _described(f) if isinstance(f, dict) else f.describe()
            for name, f in spec.items()}


def describe_schema() -> str:
    """The field table of the loader, and the fields of each profile kind, as JSON."""
    return json.dumps({**_described(_FIELDS), "profiles": _described(PROFILE_KINDS)},
                      indent=2, sort_keys=True)


def _resolve(spec, cfg, path=""):
    """``cfg`` read through ``spec``: unknown fields rejected, every value
    checked, defaults filled in; an absent object counts as empty."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("%s: expected an object, got %r" % (path or "config", cfg))
    prefix = path + "." if path else ""
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ConfigInvalid("%s%s: unknown field" % (prefix, unknown[0]))
    return {name: _resolve(f, cfg.get(name, {}), prefix + name) if isinstance(f, dict)
            else f.pick(cfg, name, prefix + name) for name, f in spec.items()}


# Upper bound on grid.steps.  The largest live arrays are (N, 4, 4) complex
# stacks, 16 entries of 16 B: 256 B per sample each.  A point-transform
# run holds about 12 stacks' worth at its peak (tracemalloc: 3.0 kB per
# sample at 40001 steps; no array is longer than the grid), the LR modes
# 13-14 (3.4-3.6 kB), so this bound keeps every run under about
# 14 * 256 B * 250000 = 0.9 GB.
_MAX_STEPS = 250_000


def _resolve_config(cfg) -> dict:
    """The scenario config read through ``_FIELDS``; profiles resolve to
    :class:`ScalarProfile` and SP4_SEED replaces the seed."""
    mode = _FIELDS["mode"].pick(cfg, "mode", "mode") if isinstance(cfg, dict) else None
    resolved = _resolve({**_FIELDS, "params": _FIELDS["params"].get(mode, {})}, cfg)
    _require(resolved["grid"]["steps"] >= 5, "grid.steps: need at least 5 points")
    _require(resolved["grid"]["steps"] <= _MAX_STEPS,
             "grid.steps: at most %d points (about 3.5 kB of memory per point)" % _MAX_STEPS)
    _require(resolved["grid"]["t1"] > resolved["grid"]["t0"], "grid.t1 must exceed grid.t0")
    if "SP4_SEED" in os.environ:
        resolved["seed"] = int(os.environ["SP4_SEED"])
    return resolved


def _require_finite_profiles(params, grid):
    """Evaluate each profile of ``params`` once on ``grid``, values only;
    ConfigInvalid("params.<field>: ...") where one is not finite there
    (a polynomial that overflows on a long grid, say) or is tabulated on
    a window that does not cover it."""
    for name, value in params.items():
        if not isinstance(value, ScalarProfile):
            continue
        try:
            with np.errstate(all="ignore"):
                finite = np.isfinite(value(grid))
        except ProfileDomain as exc:
            raise ConfigInvalid("params.%s: %s" % (name, exc)) from None
        if not np.all(finite):
            raise ConfigInvalid("params.%s: not finite on the grid, first at t = %.17g"
                                % (name, grid[np.argmin(finite)]))


_CSV_CELLS = 2048  # cells formatted per block of rows


def _constant_cell(col):
    """``"%.17g"`` of a numeric column whose every value formats as its
    first one (equal to it, with the same sign bit, so a NaN never and a
    column of mixed +-0 never qualifies); None otherwise."""
    first = col[0]
    if np.all(col == first) and np.all(np.signbit(col) == np.signbit(first)):
        return "%.17g" % first
    return None


def emit_plot_data(trajectory, path):
    """Write named columns to CSV with 17-significant-digit floats.

    ``trajectory`` is a (names, columns) pair of column names and 1-d
    arrays; the first column is time and must be strictly increasing.
    A column of strings (a regime label, say) is written as is, in its
    own position.  A numeric column after the first whose values all
    format alike (a coefficient that is exactly 0, say; -0.0 stays
    ``-0``) is formatted once and written into the row template.  The
    other columns are written in blocks of about ``_CSV_CELLS`` cells:
    each column's slice becomes Python floats with one ``tolist``, and
    each row is one ``%``-format of them.  Only one block is alive at a
    time, so the writer holds a few hundred kB beyond the columns
    themselves, whatever the length of the file.
    Raises on an empty trajectory before creating the file.
    """
    names, cols = trajectory
    if not names or any(len(np.atleast_1d(c)) == 0 for c in cols):
        raise ValueError("empty trajectory; nothing to write")
    cols = [np.atleast_1d(c) for c in cols]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("trajectory columns must share a length")
    text = [c.dtype.kind in "US" for c in cols]
    cols = [c if t else np.asarray(c, dtype=float) for c, t in zip(cols, text)]
    if np.any(np.diff(cols[0]) <= 0):
        raise ValueError("time column must be strictly increasing")
    # the time column is never baked in, so every row has a cell to format
    cells = [None if t or j == 0 else _constant_cell(c)
             for j, (c, t) in enumerate(zip(cols, text))]
    fmt = ",".join("%s" if t else "%.17g" if cell is None else cell
                   for t, cell in zip(text, cells)) + "\n"
    live = [c for c, cell in zip(cols, cells) if cell is None]
    rows = max(1, _CSV_CELLS // len(live))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for b in range(0, n, rows):
            # one expression: a block's floats are freed before the next is built
            fh.writelines(fmt % row for row in zip(*[c[b:b + rows].tolist() for c in live]))
    return path


def _complex_columns(prefix_names, stack):
    names, cols = [], []
    for j, base in enumerate(prefix_names):
        names += ["re_%s" % base, "im_%s" % base]
        cols += [stack[:, j].real.copy(), stack[:, j].imag.copy()]
    return names, cols


class _Checks:
    def __init__(self):
        self.rows = []

    def add(self, name, residual, tolerance):
        self.rows.append({
            "name": name,
            "residual": float(residual),
            "tolerance": float(tolerance),
            "status": "pass" if float(residual) <= float(tolerance) else "fail",
        })

    @property
    def all_pass(self):
        return all(r["status"] == "pass" for r in self.rows)


def _require(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


# ---------------------------------------------------------------------------
# modes


def _run_algebra_check(cfg, grid, outdir, checks, artifacts):
    rng = np.random.default_rng(cfg["seed"])
    gen = generator_matrices()
    f = structure_constants()
    # commutator table against the matrix representation
    checks.add("commutator_table", crosschecks._commutator_table_error(gen), 1e-12)
    # symplectic condition, exact
    sympl = max(float(np.abs(OMEGA @ gen[i] + gen[i].T @ OMEGA).max()) for i in range(10))
    checks.add("symplectic_condition", sympl, 0.0)
    # Jacobi identity over all triples, in coefficient form
    fj = np.einsum("ijm,mkl->ijkl", f, f)
    jac = float(np.abs(fj + np.einsum("jkm,mil->ijkl", f, f)
                       + np.einsum("kim,mjl->ijkl", f, f)).max())
    checks.add("jacobi_identity", jac, 1e-12)
    # antilinear maps square to the identity
    e = np.eye(10) * (1 + 0.3j)
    checks.add("pt_involution", max(float(np.abs(pt_map(pt_map(e, v), v) - e).max())
                                    for v in ("PT", "PT_tilde")), 1e-15)
    # parity vs adjoint on random Hamiltonians
    worst = 0.0
    for _ in range(cfg["params"]["samples"]):
        a, wx, wy, lam = rng.uniform(0.2, 3.0, size=4)
        p = CoupledOscillatorParams(*(ScalarProfile.constant(v) for v in (a, wx, wy, lam)))
        h = build_H_coeffs(p, 0.0)
        worst = max(worst, float(np.abs(parity_action(h) - adjoint(h)).max()))
    checks.add("parity_equals_adjoint", worst, 1e-12)
    return {"known_discrepancies": [r.to_dict() for r in crosschecks.standard_records()]}


def _lr_artifacts(grid, traj, params, outdir, stem, artifacts, rate=None):
    """Write ``<stem>_trajectory.csv`` (t and the coefficients) and
    ``<stem>_residuals.csv`` (t and the three per-sample defects); return
    the per-sample ||I^2 - 1||_F and |det I - 1| and the LR residual,
    taken with the exact coefficient rate ``rate`` where the route has one."""
    mats = invariant_matrix(traj)
    sq = frobenius(mats @ mats - np.eye(4))
    det = np.abs(np.linalg.det(mats) - 1.0)
    worst, defect = lr_residual(assemble_invariant(traj), build_H_coeffs(params, grid), grid,
                                return_samples=True,
                                didt=None if rate is None else assemble_invariant(rate))
    names, cols = _complex_columns(["c%d" % (k + 1) for k in range(10)], traj)
    names, cols = ["t"] + names, [grid] + cols
    path = os.path.join(outdir, stem + "_trajectory.csv")
    path2 = os.path.join(outdir, stem + "_residuals.csv")
    emit_plot_data((names, cols), path)
    emit_plot_data((["t", "inv_sq_err", "det_err", "lr_residual"], [grid, sq, det, defect]), path2)
    artifacts += [path, path2]
    return sq, det, worst


def _run_lr_closed_form(cfg, grid, outdir, checks, artifacts):
    cf = ClosedFormParams(**cfg["params"])
    traj = closed_form_on_grid(cf, grid)
    osc = cf.oscillator_params()
    rng = np.random.default_rng(cfg["seed"])

    checks.add("initial_condition",
               float(np.abs(traj[0] - np.array([0, 0, 1, 1, 0, 0, 0, 0, 0, 0])).max()), 0.0)
    # 100 random grid times.  The first constraint is a square root of a
    # cancelling expression; within ~3e-3 of a c1 zero (the seed time and,
    # for some alpha, isolated interior points) double precision cannot
    # resolve it below 1e-10, so those samples are certified through the
    # well-conditioned I^2 = 1 / det = 1 checks below instead.
    idx = rng.choice(grid.size, size=min(100, grid.size), replace=False)
    idx = idx[np.abs(traj[idx, 0]) > 3e-3]
    if idx.size == 0:
        idx = np.array([np.argmax(np.abs(traj[:, 0]))])
    r1, r2, r7, r10 = involution_residuals(traj[idx])
    checks.add("involution_constraints",
               float(max(np.abs(r).max() for r in (r1, r2, r7, r10))), 1e-10)
    sq, det, lr_worst = _lr_artifacts(grid, traj, osc, outdir, "closed_form", artifacts,
                                      rate=closed_form_rate_on_grid(cf, grid))
    checks.add("invariant_squares_to_identity", float(sq.max()), 1e-10)
    checks.add("unit_determinant", float(det.max()), 1e-10)
    checks.add("lr_residual", lr_worst, 1e-8)

    # sampled guard shared with evolve
    checks.add("commutativity_probe", _commutativity_probe(osc, grid), COMM_TOL)
    c0 = traj[0]
    checks.add("cross_solver_time_ordered",
               float(np.abs(evolve(c0, grid, osc, mode="time_ordered") - traj).max()), 1e-6)
    checks.add("cross_solver_commuting",
               float(np.abs(evolve(c0, grid, osc, mode="commuting") - traj).max()), 1e-8)

    return {"alpha": cf.alpha}


def _run_lr_ode(cfg, grid, outdir, checks, artifacts):
    p = dict(cfg["params"])
    solver, c0, lr_tol = p.pop("solver"), p.pop("c0"), p.pop("lr_tol")
    params = CoupledOscillatorParams(**p)
    traj = evolve(np.asarray(c0) @ [1.0, 1.0j], grid, params, mode=solver)
    checks.add("lr_residual", _lr_artifacts(grid, traj, params, outdir, "ode", artifacts)[2],
               lr_tol)
    return {"solver": solver}


def _run_point_transform(cfg, grid, outdir, checks, artifacts):
    params = PointTransformParams(**cfg["params"])
    rng = np.random.default_rng(cfg["seed"])

    # one EP state per grid, passed to every stage evaluated on that grid
    ep = ep_state(params, grid)
    ep_resid = float(np.abs(ep_residual(params, ep)).max())
    checks.add("ermakov_pinney_residual", ep_resid, 1e-8)
    # the first integrals are conserved to rounding: about 4500 eps
    checks.add("ermakov_first_integral",
               float(np.abs(ermakov_first_integral(params, ep)).max()), 1e-12)

    stat = dyson_static(params)
    if params.coupling != 0.0:
        checks.add("static_map_constraints", stat.constraint_residual, 1e-10)
        checks.add("static_map_postcondition", stat.check_residual, 1e-10)

    inv = invariant_IH(params, ep)
    k = transport_generator(params, ep)  # K = T^-1 dT/dt, once per grid
    inv_rate = commutator(inv, k)  # dI_H/dt, exact
    a, b, lam = target_coefficients(params, ep)
    lr_resid = lr_residual(inv, build_H_modified(a, b, lam), grid, didt=inv_rate)
    checks.add("invariant_lr_residual", lr_resid, 1e-8)

    # one Dyson map per grid; its inverse is the symplectic one, exact
    # only as far as eta is symplectic.  The defect is measured relative
    # to |eta| |eta^-1|, the scale at which rounding enters the product:
    # the absolute defect grows with the conditioning of eta as the
    # artanh argument of the static map approaches 1
    eta = dyson_time(params, ep, stat)
    eta_inv = symplectic_inverse(eta)
    checks.add("dyson_inverse_identity",
               float((frobenius(eta @ eta_inv - np.eye(4))
                      / (frobenius(eta) * frobenius(eta_inv))).max()), 1e-12)

    ih = hermitian_invariant_Ih(inv, eta)
    checks.add("hermiticity_leak", float(np.abs(ih.imag).max()), 1e-8)
    ih_image = pushforward(params, ep, stat.h0)
    checks.add("invariant_image_match", float(np.abs(ih - ih_image).max()), 1e-8)
    ih_expansion = hermitian_invariant_expansion(params, ep, stat)
    checks.add("hermitian_expansion_match", float(np.abs(ih - ih_expansion).max()), 1e-8)

    checks.add("tdde_residual", tdde_residual(params, ep, eta, k, stat), 1e-8)

    samples = rng.uniform(-2.0, 2.0, size=(20, 2))
    idx = rng.choice(grid.size, size=min(20, grid.size), replace=False)
    b0x, b0y, v0 = pde_constraint_residuals(params, ep.take(idx), samples)
    checks.add("pde_b0x", b0x, 1e-8)
    checks.add("pde_b0y", b0y, 1e-8)
    checks.add("pde_potential_match", v0, 1e-8)

    pos = metric_is_positive(eta)
    checks.add("metric_positive_fraction", float(1.0 - pos.mean()), 0.0)

    # per-sample trajectory CSV
    names = ["t", "sigma", "sigma_t", "mu", "mu_t", "tau", "a", "b", "lam"]
    cols = [grid, ep.sigma, ep.r * ep.sigma_tau, ep.mu, ep.r * ep.mu_tau, ep.tau, a, b, lam]
    inames, icols = _complex_columns(["I%d" % k for k in range(10)], inv)
    hnames, hcols = _complex_columns(["Ih%d" % k for k in range(10)], ih)
    path = os.path.join(outdir, "point_transform_trajectory.csv")
    emit_plot_data((names + inames + hnames, cols + icols + hcols), path)
    artifacts.append(path)

    # the adopted residuals of the ledger are the two rows above
    records = crosschecks.point_transform_records(params, ep, inv, inv_rate, ep_resid, lr_resid)
    return {
        "dyson": {"kappa1": stat.kappa1, "kappa2": stat.kappa2,
                  "delta": [stat.delta.real, stat.delta.imag]},
        "known_discrepancies": [r.to_dict() for r in records],
    }


def _run_regime_map(cfg, grid, outdir, checks, artifacts):
    params = CoupledOscillatorParams(**cfg["params"])
    evs = instantaneous_eigenvalues(params, grid)
    # spectrum symmetric about zero: eigenvalues come in +- pairs
    pairing = float(np.abs(np.sort_complex(evs) + np.sort_complex(-evs)[:, ::-1]).max())
    checks.add("eigenvalue_pairing", pairing, 1e-10)
    regimes = [r.value for r in classify_regime(params, grid)]
    names = ["t"] + ["re%d" % (k + 1) for k in range(4)] + ["im%d" % (k + 1) for k in range(4)] + ["regime"]
    cols = [grid] + [evs[:, k].real for k in range(4)] + [evs[:, k].imag for k in range(4)] + [regimes]
    path = os.path.join(outdir, "eigenvalue_trajectory.csv")
    emit_plot_data((names, cols), path)
    artifacts.append(path)
    return {}


_RUNNERS = {
    "algebra-check": _run_algebra_check,
    "lr-closed-form": _run_lr_closed_form,
    "lr-ode": _run_lr_ode,
    "point-transform": _run_point_transform,
    "regime-map": _run_regime_map,
}


def run_scenario(cfg: dict, outdir: str) -> dict:
    """Execute one scenario; returns the report dict (also written to disk)."""
    resolved = _resolve_config(cfg)
    grid = np.linspace(resolved["grid"]["t0"], resolved["grid"]["t1"], resolved["grid"]["steps"])
    _require_finite_profiles(resolved["params"], grid)
    os.makedirs(outdir, exist_ok=True)
    checks = _Checks()
    artifacts: list[str] = []
    start = time.perf_counter()
    extra = _RUNNERS[resolved["mode"]](resolved, grid, outdir, checks, artifacts)
    wall = time.perf_counter() - start
    report = {
        "scenario": cfg,
        "checks": checks.rows,
        "all_pass": checks.all_pass,
        "artifacts": [os.path.basename(a) for a in artifacts],
        "wall_time_s": wall,
    }
    report.update(extra or {})
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sp4lr", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("--config", help="path to the scenario JSON")
    runp.add_argument("--out", default=".", help="output directory (default: cwd)")
    runp.add_argument("--describe", action="store_true",
                      help="print the loader's field table (defaults, required fields, "
                           "allowed values) and exit")
    args = parser.parse_args(argv)
    if args.command != "run":
        parser.print_help()
        return 1
    if args.describe:
        print(describe_schema())
        return 0
    if not args.config:
        print("error: --config is required (or use --describe)", file=sys.stderr)
        return 1
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("error: cannot load config: %s" % exc, file=sys.stderr)
        return 1
    try:
        report = run_scenario(cfg, args.out)
    except (Sp4lrError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for row in report["checks"]:
        print("%-34s %-4s residual=%.3e tolerance=%.3e"
              % (row["name"], row["status"], row["residual"], row["tolerance"]))
    if not report["all_pass"]:
        print("FAIL: %d check(s) failed" % sum(r["status"] != "pass" for r in report["checks"]))
        return 2
    print("PASS: all %d checks" % len(report["checks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
