"""Scenario-driven command line front end.

``sp4lr run --config scenario.json [--out dir]`` loads a JSON scenario,
runs one of the five pipeline modes, writes CSV trajectories plus a JSON
report once every stage has succeeded, and exits 0 when every check
passes, 2 on a check failure and 1 on a configuration or domain error,
which leaves no file.

Before any numerics run, the config is read through one field table
(``_FIELDS``, and ``profiles.PROFILE_KINDS`` for profiles), which fills
in defaults; an unknown or missing field, or a bool, string, null or
non-finite value where a number belongs, exits 1 with
``ConfigInvalid("<field.path>: ...")``.  ``sp4lr run --describe`` prints
that table.  The environment variable ``SP4_SEED`` overrides ``seed``.

Importing this module loads only ``errors`` and ``profiles`` of the
package: the field table, ``--describe``, the loader, the profile guard
and the CSV writer need no more.  Each runner imports the numerics its
mode uses when it runs, so a regime map loads ``algebra``, ``numerics``
and ``hamiltonian``, the LR modes ``lr_ode`` as well, and only the
point transform and the algebra check load ``point_transform`` and
``crosschecks``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import ChiPlusZero, ConfigInvalid, ProfileDomain, Sp4lrError, StepNotConverged
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


# Upper bound on grid.steps.  No array of a run is longer than the grid;
# their tracemalloc peak at 40001 steps (a second run in one process) is
# 599 B per point for a point transform (its outputs and EP state, 536 B,
# and one block of samples), 1490 B for a closed form, 1320 B for an
# lr-ode run and 520 B for a regime map, so this bound keeps every run
# under about 1.7 kB * 250000 = 0.42 GB of arrays, the figure its error names.
_MAX_STEPS = 250_000


def _resolve_config(cfg) -> dict:
    """The scenario config read through ``_FIELDS``; profiles resolve to
    :class:`ScalarProfile` and SP4_SEED replaces the seed."""
    mode = _FIELDS["mode"].pick(cfg, "mode", "mode") if isinstance(cfg, dict) else None
    resolved = _resolve({**_FIELDS, "params": _FIELDS["params"].get(mode, {})}, cfg)
    _require(resolved["grid"]["steps"] >= 5, "grid.steps: need at least 5 points")
    _require(resolved["grid"]["steps"] <= _MAX_STEPS,
             "grid.steps: at most %d points (about 1.7 kB of memory per point)" % _MAX_STEPS)
    _require(resolved["grid"]["t1"] > resolved["grid"]["t0"], "grid.t1 must exceed grid.t0")
    _require(resolved["params"].get("samples", 0) >= 0, "params.samples: must not be negative")
    if "SP4_SEED" in os.environ:
        resolved["seed"] = int(os.environ["SP4_SEED"])
    return resolved


# the largest modulus a profile may take on the grid, derived in
# _require_finite_profiles: DBL_MAX^(1/4) / 4, about 2.9e76
_PROFILE_BOUND = float(np.finfo(float).max) ** 0.25 / 4.0


def _require_finite_profiles(params, grid):
    """Evaluate each profile of ``params`` once on ``grid`` and return the
    values, ``{field: values}``, which every stage of the run reads;
    ConfigInvalid("params.<field>: ...") where one is not finite there
    (a polynomial that overflows on a long grid, say), exceeds
    ``_PROFILE_BOUND`` in modulus there, or is tabulated on a window that
    does not cover it.

    The bound keeps the fourth powers of the profile values that a
    regime map forms finite.  Let V be the largest modulus of the profile
    values.  The coupled family's coefficients (``hamiltonian._h_coeffs``)
    have ||c||^2 = a^2/2 + omega_x^2 + omega_y^2 + 2 lam^2 <= 4.5 V^2, and
    ||M(H)||_F = ||c|| (orthonormal basis), so rho^2 = ||M||_F^2 <= 4.5 V^2.
    The ``spectrum_invariants`` row forms rho^4 <= 20.25 V^4; det M as six
    products of two 2x2 minors, each minor at most
    ||row_i|| ||row_i+1|| <= rho^2/2 (Cauchy-Schwarz, then AM-GM), so at
    most 1.5 rho^4 <= 30.4 V^4; and sum |eps|^2 <= rho^2 (Schur),
    |prod eps| <= rho^4/16; the spectrum's tr^2, det and disc are at most
    rho^4/4.  Every one is at most 31 V^4, and
    V <= DBL_MAX^(1/4) / 4 makes that at most 31/256 DBL_MAX.  (A constant
    omega_x of 1e78 overflows that row's squares; 1e77 does not.)  The
    point transform forms at most squares of its r (the operand norms of
    K, r^2 in the EP residual).  Not bounded here: a number parameter
    that scales a profile (the closed form's alpha), and the growth of an
    lr propagator or closed-form trajectory over the grid, which is a
    property of the dynamics, not of the values; each is bounded where it
    is formed (``lr_ode._U_BOUND``, ``_CLOSED_FORM_BOUND``).
    """
    out = {}
    for name, profile in params.items():
        if not isinstance(profile, ScalarProfile):
            continue
        try:
            with np.errstate(all="ignore"):
                out[name] = values = profile(grid)
        except ProfileDomain as exc:
            raise ConfigInvalid("params.%s: %s" % (name, exc)) from None
        finite = np.isfinite(values)
        if not np.all(finite):
            raise ConfigInvalid("params.%s: not finite on the grid, first at t = %.17g"
                                % (name, grid[np.argmin(finite)]))
        large = np.abs(values) > _PROFILE_BOUND
        if np.any(large):
            k = np.argmax(large)
            raise ConfigInvalid("params.%s: |value| %.3g exceeds %.3g on the grid, "
                                "first at t = %.17g"
                                % (name, abs(values[k]), _PROFILE_BOUND, grid[k]))
    return out


# ---------------------------------------------------------------------------
# CSV writer

_CSV_CELLS = 2048  # numeric cells formatted per block of rows


def _constant_cell(col):
    """``"%.17g"`` of a numeric column whose every value formats as its
    first one (equal to it, with the same sign bit, so a NaN never and a
    column of mixed +-0 never qualifies); None otherwise."""
    first = col[0]
    if np.all(col == first) and np.all(np.signbit(col) == np.signbit(first)):
        return "%.17g" % first
    return None


def _text_bytes(col, name):
    """A text column in UTF-8, one row of NUL-padded bytes per cell.

    Each distinct value is encoded, and checked for a NUL byte, once; the
    rows are taken from those."""
    values, rows = np.unique(col, return_inverse=True)
    enc = np.char.encode(values, "utf-8")
    raw = enc.view(np.uint8).reshape(len(values), enc.itemsize)
    if np.any((raw[:, :-1] == 0) & (raw[:, 1:] != 0)):
        raise ValueError("column %s: a text cell holds a NUL byte" % name)
    return raw[rows.ravel()]


def emit_plot_data(trajectory, path):
    """Write named columns to CSV with 17-significant-digit floats.

    ``trajectory`` is a (names, columns) pair of column names and 1-d
    arrays; the first column is time and must be strictly increasing.
    Every numeric cell reads exactly as ``"%.17g" % value``.  A column
    of strings (a regime label, say) is written as is, in UTF-8, in its
    own position; a string holding a NUL byte is rejected.  A numeric
    column after the first whose values all format alike (a coefficient
    that is exactly 0, say; -0.0 stays ``-0``) is formatted once, into
    the row template.

    The other numeric columns go through one vectorised kernel,
    ``_csv17._format17``, in blocks of about ``_CSV_CELLS`` cells.  It is
    exact, not close.  For 1e-40 <= |v| < 1e40 it takes X = floor(log10
    |v|) and N = round(|v| 10^(16 - X)) from a double-double product
    good to about 1e-14, so N is the correctly rounded 17-digit
    significand wherever the fraction being rounded is more than 1e-6
    from 1/2 and the product has 17 digits.  ``"%.17g"`` itself formats
    the rest, one cell at a time: a fraction within 1e-6 of 1/2 (exact
    ties included), a product of 16 or 18 digits (log10 rounded across a
    power of ten), |v| outside that range, NaN and +-inf.  +-0 is laid
    out by the kernel.

    A block is laid out as a (rows, row bytes) array, each cell in a
    fixed-width slot, and written in one write without its pad bytes.
    One block is alive at a time: about 170 bytes a kernel cell, 0.33 MB
    for the 2048 of ``_CSV_CELLS`` (tracemalloc peak), plus the block's
    constant and text bytes, whatever the length of the file.
    Raises on an empty trajectory before creating the file.
    """
    # imported on the first write: importing the CLI builds no table
    from ._csv17 import _SLOT, _format17

    names, cols = trajectory
    if not names or any(len(np.atleast_1d(c)) == 0 for c in cols):
        raise ValueError("empty trajectory; nothing to write")
    cols = [np.atleast_1d(c) for c in cols]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("trajectory columns must share a length")
    text = [c.dtype.kind in "US" for c in cols]
    cols = [c.astype(str) if t else np.asarray(c, dtype=float) for c, t in zip(cols, text)]
    if not np.all(np.diff(cols[0]) > 0):  # False for a NaN time
        raise ValueError("time column must be strictly increasing")
    # one slot per column, each followed by its separator: a kernel cell,
    # a text cell, or a constant cell baked into the row (the time column
    # is never baked, so every row has a cell to format)
    slots, live, texts, at = [], [], [], 0
    for j, (name, c, t) in enumerate(zip(names, cols, text)):
        cell = None if t or j == 0 else _constant_cell(c)
        if t:
            texts.append((at, _text_bytes(c, name)))
            slots.append(bytes(texts[-1][1].shape[1]) + b",")
        elif cell is None:
            live.append((at, c))
            slots.append(bytes(_SLOT) + b",")
        else:
            slots.append(cell.encode() + b",")
        at += len(slots[-1])
    row = np.frombuffer(b"".join(slots)[:-1] + b"\n", np.uint8)

    def block_bytes(b, m):
        """Rows b..b+m-1 without their pad bytes.  A function, so that
        nothing of one block is alive while the next is formatted."""
        cells = _format17(np.concatenate([c[b:b + m] for _, c in live]))
        block = np.empty((m, row.size), np.uint8)
        block[:] = row
        for k, (at, _) in enumerate(live):
            block[:, at:at + _SLOT] = cells[k * m:(k + 1) * m]
        for at, raw in texts:
            block[:, at:at + raw.shape[1]] = raw[b:b + m]
        return block[block != 0]

    rows = max(1, _CSV_CELLS // len(live))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for b in range(0, n, rows):
            fh.write(block_bytes(b, min(rows, n - b)))
    return path


def _complex_columns(prefix_names, stack):
    names, cols = [], []
    for j, base in enumerate(prefix_names):
        names += ["re_%s" % base, "im_%s" % base]
        cols += [stack[:, j].real, stack[:, j].imag]
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


def _run_algebra_check(cfg, grid, values, checks):
    from . import crosschecks
    from .algebra import OMEGA, adjoint, generator_matrices, parity_action, pt_map, structure_constants
    from .hamiltonian import _h_coeffs

    rng = np.random.default_rng(cfg["seed"])
    gen = generator_matrices()
    f = structure_constants()
    # commutator table against the matrix representation, also the ledger's J2 row
    table_error = crosschecks._commutator_table_error(gen)
    checks.add("commutator_table", table_error, 1e-12)
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
    # parity vs adjoint on random Hamiltonians, one (a, omega_x, omega_y, lam) per row
    h = _h_coeffs(*rng.uniform(0.2, 3.0, size=(cfg["params"]["samples"], 4)).T)
    checks.add("parity_equals_adjoint",
               float(np.abs(parity_action(h) - adjoint(h)).max(initial=0.0)), 1e-12)
    return {}, {"known_discrepancies": [r.to_dict()
                                        for r in crosschecks.standard_records(table_error)]}


def _lr_artifacts(grid, traj, h, stem, rate=None):
    """The tables ``<stem>_trajectory.csv`` (t and the coefficients) and
    ``<stem>_residuals.csv`` (t and the three per-sample defects), then
    the per-sample ||I^2 - 1||_F and |det I - 1| and the LR residual
    against the Hamiltonian coefficients ``h`` on the grid, taken with
    the exact coefficient rate ``rate`` where the route has one.  Writes
    nothing."""
    from .lr_ode import assemble_invariant, invariant_matrix, lr_residual
    from .numerics import frobenius

    mats = invariant_matrix(traj)
    sq = frobenius(mats @ mats - np.eye(4))
    det = np.abs(np.linalg.det(mats) - 1.0)
    worst, defect = lr_residual(assemble_invariant(traj), h, grid,
                                didt=None if rate is None else assemble_invariant(rate))
    names, cols = _complex_columns(["c%d" % (k + 1) for k in range(10)], traj)
    tables = {stem + "_trajectory.csv": (["t"] + names, [grid] + cols),
              stem + "_residuals.csv": (["t", "inv_sq_err", "det_err", "lr_residual"],
                                        [grid, sq, det, defect])}
    return tables, sq, det, worst


# The largest ||c|| of a closed-form trajectory that the checks may read.
# The invariant matrix I has ||I||_F <= 2 ||c|| (c1..c6 sit in two entries
# each, c7..c10 in one, doubled), and the highest power a check forms is
# the fourth: ||I^2 - 1||_F^2 <= (4 ||c||^2 + 2)^2 and |det I| <=
# ||I||_F^4 / 16.  At DBL_MAX^(1/4) / 4 both are at most DBL_MAX / 16.  The
# involution residuals form cubes over |chi_plus| >= CHI_TOL, at most
# 1e12 ||c||^3, and the LR residual sums products of c with H, each at most
# ||h|| ||c|| <= 2.2 max(1, |alpha|) _PROFILE_BOUND ||c||: far below that.
_CLOSED_FORM_BOUND = float(np.finfo(float).max) ** 0.25 / 4.0


def _run_lr_closed_form(cfg, grid, values, checks):
    from .hamiltonian import _h_coeffs
    from .lr_ode import (COMM_TOL, ClosedFormParams, _commutativity_probe, closed_form_on_grid,
                         evolve, involution_residuals)

    cf = ClosedFormParams(**cfg["params"])
    lam = values["lam"]
    # a trajectory beyond the bound, or one that overflows, stops the run
    # with an error that names its fields and first grid time, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        traj, rate = closed_form_on_grid(cf, grid, lam)
        size = np.linalg.norm(traj, axis=1)
    bad = ~(size <= _CLOSED_FORM_BOUND)  # a NaN compares False
    if np.any(bad):
        k = int(np.argmax(bad))
        raise Sp4lrError("params.alpha (%g) with params.lam: the closed form is too large at "
                         "t = %.6g: ||c|| = %.3e exceeds %.3e"
                         % (cf.alpha, grid[k], size[k], _CLOSED_FORM_BOUND))
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
    try:
        r1, r2, r7, r10 = involution_residuals(traj[idx])
    except ChiPlusZero as exc:
        raise ChiPlusZero("params.alpha (%g) with params.lam: %s" % (cf.alpha, exc)) from None
    checks.add("involution_constraints",
               float(max(np.abs(r).max() for r in (r1, r2, r7, r10))), 1e-10)
    # H of the proportional family: a = omega_y = lam, and omega_x from the
    # scaled profile, since alpha * lam(t) would round apart from it
    tables, sq, det, lr_worst = _lr_artifacts(
        grid, traj, _h_coeffs(lam, osc.omega_x(grid), lam, lam), "closed_form", rate=rate)
    del rate  # only the LR residual reads it; not held through the two evolve calls
    checks.add("invariant_squares_to_identity", float(sq.max()), 1e-10)
    checks.add("unit_determinant", float(det.max()), 1e-10)
    checks.add("lr_residual", lr_worst, 1e-8)

    # sampled guard shared with evolve
    checks.add("commutativity_probe", _commutativity_probe(osc, grid), COMM_TOL)
    c0 = traj[0]
    try:
        ordered = evolve(c0, grid, osc, mode="time_ordered")
    except StepNotConverged as exc:
        # as in an lr-ode run: name the config fields that set the depth
        raise StepNotConverged("grid.steps (%d) or params.lam (|value| up to %.3g on the grid) "
                               "with params.alpha (%g): %s"
                               % (grid.size, float(np.abs(lam).max()), cf.alpha, exc)) from None
    checks.add("cross_solver_time_ordered", float(np.abs(ordered - traj).max()), 1e-6)
    checks.add("cross_solver_commuting",
               float(np.abs(evolve(c0, grid, osc, mode="commuting") - traj).max()), 1e-8)

    return tables, {"alpha": cf.alpha}


def _run_lr_ode(cfg, grid, values, checks):
    from .hamiltonian import CoupledOscillatorParams, _h_coeffs
    from .lr_ode import evolve

    p = dict(cfg["params"])
    solver, c0, lr_tol = p.pop("solver"), p.pop("c0"), p.pop("lr_tol")
    params = CoupledOscillatorParams(**p)
    try:
        traj = evolve(np.asarray(c0) @ [1.0, 1.0j], grid, params, mode=solver)
    except StepNotConverged as exc:
        # the step refinement failed: name the grid and the profile with
        # the largest modulus on it, the config fields that set its depth
        peak = {name: float(np.abs(values[name]).max()) for name in p}
        name = max(peak, key=peak.get)
        raise StepNotConverged("grid.steps (%d) or params.%s (the largest profile, |value| up "
                               "to %.3g on the grid): %s"
                               % (grid.size, name, peak[name], exc)) from None
    h = _h_coeffs(*(values[name] for name in _COUPLED))
    tables, _, _, worst = _lr_artifacts(grid, traj, h, "ode")
    checks.add("lr_residual", worst, lr_tol)
    return tables, {"solver": solver}


def _inverse_defect(eta):
    """Largest |eta eta^-1 - 1|_F / (|eta|_F |eta^-1|_F) over the samples.

    The inverse is the symplectic one, exact only as far as eta is
    symplectic.  The defect is measured relative to |eta| |eta^-1|, the
    scale at which rounding enters the product: the absolute defect
    grows with the conditioning of eta as the artanh argument of the
    static map approaches 1.  ``eta`` is the real eta' = D^-1 eta D of
    :func:`dyson_time`: D is an entrywise unit, so every Frobenius norm
    is that of eta."""
    from .algebra import symplectic_inverse
    from .numerics import frobenius

    eta_inv = symplectic_inverse(eta)
    return float((frobenius(eta @ eta_inv - np.eye(4))
                  / (frobenius(eta) * frobenius(eta_inv))).max())


def _run_point_transform(cfg, grid, values, checks):
    from . import crosschecks
    from .algebra import _BLOCK, _real_commutator, _real_coordinates
    from .hamiltonian import build_H_modified
    from .lr_ode import _lr_defect
    from .point_transform import (
        PointTransformParams,
        _transport_coordinates,
        _transport_element,
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
    )

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

    # Every other stage is per sample, and runs in blocks of _BLOCK samples
    # from sample 0, which line up with the blocks of the real conjugation
    # and of the defect kernel, so each value is bitwise that of a
    # whole-grid call.  The run holds the EP state, the output columns (the
    # target coefficients, I_H and I_h, filled a block at a time), the
    # running worst of each row and the count of positive metrics; every
    # other stack lives for one block.  The maximum over the blocks is
    # exact, and np.maximum keeps a NaN, as the whole-grid max did.
    n = grid.size
    a, b, lam = np.empty(n), np.empty(n), np.empty(n)
    inv = np.empty((n, 10), dtype=complex)
    ih = np.empty((n, 10), dtype=complex)
    # the rows of the blocks, in the order of their stages, with their tolerances
    rows = (("invariant_lr_residual", 1e-8), ("dyson_inverse_identity", 1e-12),
            ("hermiticity_leak", 1e-8), ("invariant_image_match", 1e-8),
            ("hermitian_expansion_match", 1e-8), ("tdde_residual", 1e-8))
    worst = dict.fromkeys([name for name, _ in rows] + ["image_variant", "pairing_variant"],
                          -np.inf)

    def keep(row, value):
        worst[row] = np.maximum(worst[row], value)

    positive = 0
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, min(lo + _BLOCK, n))
        epb = ep.take(blk)
        inv[blk] = invariant_IH(params, epb)
        # K = T^-1 dT/dt = -i phi w; in real coordinates, rows contiguous,
        # I_H = phi inv_r moves at the exact rate [I_H, K] = phi R(inv_r, w)
        w = _transport_coordinates(params, epb)
        inv_r = np.ascontiguousarray(_real_coordinates(inv[blk]))
        rate = _real_commutator(inv_r, w)
        a[blk], b[blk], lam[blk] = target_coefficients(params, epb)
        h = build_H_modified(a[blk], b[blk], lam[blk])  # the target Hamiltonian
        keep("invariant_lr_residual",
             _lr_defect(np.ascontiguousarray(_real_coordinates(h)), inv_r, rate).max())
        # the ledger's two variants of the invariant equation
        image_variant, pairing_variant = crosschecks.invariant_equation_variants(
            params, ep, blk, inv_r, rate, h, lam[blk])
        keep("image_variant", image_variant)
        keep("pairing_variant", pairing_variant)
        k = _transport_element(w)
        eta = dyson_time(epb, stat)  # the Dyson map of the block
        keep("dyson_inverse_identity", _inverse_defect(eta))
        ih[blk] = hermitian_invariant_Ih(inv[blk], eta)
        keep("hermiticity_leak", np.abs(ih[blk].imag).max())
        keep("invariant_image_match", np.abs(ih[blk] - pushforward(epb, stat.h0)).max())
        keep("hermitian_expansion_match",
             np.abs(ih[blk] - hermitian_invariant_expansion(params, epb, stat)).max())
        keep("tdde_residual", tdde_residual(params, epb, eta, k, stat, h).max())
        positive += int(np.count_nonzero(metric_is_positive(eta)))

    for name, tolerance in rows:
        checks.add(name, float(worst[name]), tolerance)
    # the adopted residuals of the ledger are two rows of this run
    records = crosschecks.point_transform_records(
        params, ep, (float(worst["image_variant"]), float(worst["pairing_variant"])),
        ep_resid, float(worst["invariant_lr_residual"]))

    samples = rng.uniform(-2.0, 2.0, size=(20, 2))
    idx = rng.choice(grid.size, size=min(20, grid.size), replace=False)
    b0x, b0y, v0 = pde_constraint_residuals(params, ep.take(idx), samples)
    checks.add("pde_b0x", b0x, 1e-8)
    checks.add("pde_b0y", b0y, 1e-8)
    checks.add("pde_potential_match", v0, 1e-8)

    # the mean of the per-sample flags: an integer count over n, exactly
    checks.add("metric_positive_fraction", 1.0 - positive / n, 0.0)

    # per-sample trajectory CSV
    names = ["t", "sigma", "sigma_t", "mu", "mu_t", "tau", "a", "b", "lam"]
    cols = [grid, ep.sigma, ep.r * ep.sigma_tau, ep.mu, ep.r * ep.mu_tau, ep.tau, a, b, lam]
    inames, icols = _complex_columns(["I%d" % k for k in range(10)], inv)
    hnames, hcols = _complex_columns(["Ih%d" % k for k in range(10)], ih)
    return {"point_transform_trajectory.csv": (names + inames + hnames, cols + icols + hcols)}, {
        "dyson": {"kappa1": stat.kappa1, "kappa2": stat.kappa2,
                  "delta": [stat.delta.real, stat.delta.imag]},
        "known_discrepancies": [r.to_dict() for r in records],
    }


# the bound of the spectrum_invariants row, derived in _spectrum_invariants
_SPECTRUM_TOL = 64 * np.finfo(float).eps


def _det4(m):
    """Determinants of 4x4 matrices (..., 4, 4) by the Laplace expansion
    along the first two rows: six products of complementary 2x2 minors."""
    def minor(r, j, k):
        return m[..., r, j] * m[..., r + 1, k] - m[..., r, k] * m[..., r + 1, j]
    return (minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
            + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
            - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1))


def _spectrum_invariants(evs, m):
    """Largest, over the samples, of |sum eps^2 - tr M^2| / ||M||_F^2 and
    |prod eps - det M| / ||M||_F^4, for the sorted spectra ``evs``
    (N, 4) and the complex matrices M = ``m`` (N, 4, 4) of the same H.

    For a spectrum {+-eps1, +-eps2} these two symmetric functions fix the
    spectrum, even at an exceptional point, where the eigenvalues
    themselves are resolved only to about sqrt(eps) but the symmetric
    functions stay well conditioned.  M is the independent route: its
    trace and its determinant (:func:`_det4`, a general expansion) never
    see the closed form of the spectrum; the spectrum never sees M.

    The bound, ``_SPECTRUM_TOL`` = 64 eps, counts rounding in units of
    u = eps/2, to first order, from the profile values a, omega_x,
    omega_y, lam, with rho = ||M||_F = ||c|| (the basis is orthonormal)
    for the exact coefficients c, rho^2 = a^2/2 + omega_x^2 + omega_y^2 +
    2 lam^2.  A perturbation E of M moves tr M^2 by at most 2 rho ||E||_F
    and det M by at most ||adj M||_F ||E||_F <= rho^3/4 ||E||_F
    (Maclaurin's inequality on the singular values).
    * M: c is rounded within 2u rho of exact (Omega+- and the halves of
      J0 and Q2), and each entry of M sums at most four terms c_k/2, so
      ||E||_F <= 8u rho: 16u on the trace and 2u on the determinant.
    * tr M^2 is a sum of 16 complex products: 18u.  The Laplace
      expansion rounds each of its 24 permutation products by at most
      16u (a complex product in each minor, their difference, the
      product of two minors, the sum of six), and their moduli sum to
      the permanent of |M|, at most prod_i ||row_i||_1 <= 16 prod_i
      ||row_i||_2 <= rho^4: 16u.
    * The closed form (``hamiltonian.instantaneous_eigenvalues``) gives
      sum eps^2 = -2 (z1 + z2) and prod eps = z1 z2 for its roots z1, z2
      of mu^2 - tr mu + det.  Let S = (a/2)^2 ((omega_x + omega_y)^2 +
      (omega_x - omega_y)^2 + 4 lam^2) <= rho^4/4 (AM-GM on a^2/2 and
      rho^2 - a^2/2); tr^2, |disc|, 4|det| and |z1|^2 are each at most S.
      ``hamiltonian._bc_invariants`` rounds tr within 2u|tr|, det within
      uS (4u det where omega_x omega_y >= 0) and disc within
      2u (a/2)^2 (omega_x - omega_y)^2 + 5u|disc| <= 7uS; z1 is within
      2u of the larger root of mu^2 - tr mu + det'' for the rounded tr
      and disc, det'' = (tr^2 - disc) / 4.
      Where omega_x omega_y >= 0, z2 = det / z1: the product is the
      exact det within 8u det <= 0.5u rho^4; the sum is off from the
      exact tr by the rounding of tr, 2u sqrt S, by 2u |z1| + 6u |z2|
      (z1 and the division), and by (det - det'') / z1, where the
      rounded det and det'' differ by at most 9u det + 2.75u tr^2
      (|disc| <= tr^2 + 4 det, (a/2)^2 (omega_x - omega_y)^2 <= tr^2)
      and |z1| >= max(|tr|/2, sqrt det): within 20u sqrt S in all, so
      20u rho^2 on sum eps^2.  Elsewhere z2 = tr - z1: the sum is the
      exact tr within 3u sqrt S (3u rho^2 on sum eps^2), and the product
      is det'' within 3u S, det'' within 2.75u S of the exact det:
      1.5u rho^4.
    * The square root, the squares and the products of the row: 16u,
      since sum |eps|^2 <= rho^2 (Schur), and 2u, since
      |prod eps| <= rho^4/16.  The sort zeroes an imaginary part within
      1e-12 of the largest modulus only in a conjugate pair or in a pair
      +-i delta, which moves both sums at second order.
    So the trace term is at most 70u (35 eps) and the determinant term
    21.5u (11 eps); the bound of 64 eps holds both.  A relative change of
    1e-12 in the largest eigenvalue moves the trace term by
    2e-12 |eps1|^2 / rho^2: 4.7e-13 on the shipped regime map, 33 times
    the bound.
    """
    rho2 = (np.abs(m) ** 2).sum(axis=(-2, -1))
    rho2 = np.where(rho2 > 0, rho2, 1.0)  # M = 0 has the spectrum 0: both terms read 0
    trace = np.abs((evs**2).sum(axis=-1) - np.einsum("...ij,...ji->...", m, m)) / rho2
    det = np.abs(np.prod(evs, axis=-1) - _det4(m)) / rho2**2
    return float(max(trace.max(), det.max()))


def _run_regime_map(cfg, grid, values, checks):
    from .algebra import to_matrix
    from .hamiltonian import _REGIME_LABELS, _h_coeffs, _regime_index, instantaneous_eigenvalues

    a, wx, wy, lam = (values[name] for name in _COUPLED)
    evs = instantaneous_eigenvalues(a, wx, wy, lam)
    # spectrum symmetric about zero: the sort lists -eps opposite each eps
    # (0 by construction, as +-i sqrt(mu))
    pairing = float(np.abs(evs + evs[:, ::-1]).max())
    checks.add("eigenvalue_pairing", pairing, 1e-10)
    checks.add("spectrum_invariants",
               _spectrum_invariants(evs, to_matrix(_h_coeffs(a, wx, wy, lam))), _SPECTRUM_TOL)
    regimes = _REGIME_LABELS[_regime_index(wx, wy, lam)]
    names = ["t"] + ["re%d" % (k + 1) for k in range(4)] + ["im%d" % (k + 1) for k in range(4)] + ["regime"]
    cols = [grid] + [evs[:, k].real for k in range(4)] + [evs[:, k].imag for k in range(4)] + [regimes]
    return {"eigenvalue_trajectory.csv": (names, cols)}, {}


_RUNNERS = {
    "algebra-check": _run_algebra_check,
    "lr-closed-form": _run_lr_closed_form,
    "lr-ode": _run_lr_ode,
    "point-transform": _run_point_transform,
    "regime-map": _run_regime_map,
}


def run_scenario(cfg: dict, outdir: str) -> dict:
    """Execute one scenario; return its report.  The runner only computes,
    returning its tables ``{filename: (names, columns)}`` and report keys;
    then ``outdir`` is created, each table written by :func:`emit_plot_data`
    and the report as ``report.json``, so a run that raises leaves no file.
    ``wall_time_s`` spans the runner and the CSV writes."""
    resolved = _resolve_config(cfg)
    grid = np.linspace(resolved["grid"]["t0"], resolved["grid"]["t1"], resolved["grid"]["steps"])
    values = _require_finite_profiles(resolved["params"], grid)
    checks = _Checks()
    start = time.perf_counter()
    tables, extra = _RUNNERS[resolved["mode"]](resolved, grid, values, checks)
    os.makedirs(outdir, exist_ok=True)
    for name, table in tables.items():
        emit_plot_data(table, os.path.join(outdir, name))
    wall = time.perf_counter() - start
    report = {
        "scenario": cfg,
        "checks": checks.rows,
        "all_pass": checks.all_pass,
        "artifacts": list(tables),
        "wall_time_s": wall,
    }
    report.update(extra)
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
