"""Tests for the scenario CLI: modes, exit codes, config loading, CSV and report formats."""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp4lr import cli
from sp4lr._csv17 import _format17
from sp4lr.algebra import GeneratorId, to_matrix
from sp4lr.cli import _resolve_config, describe_schema, emit_plot_data, main, run_scenario
from sp4lr.hamiltonian import CoupledOscillatorParams, build_H_coeffs, classify_regime
from sp4lr.lr_ode import (
    ClosedFormParams,
    assemble_invariant,
    closed_form_on_grid,
    lr_residual,
)
from sp4lr.profiles import ScalarProfile


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_describe_schema():
    schema = json.loads(describe_schema())
    assert "mode" in schema and "params" in schema
    assert main(["run", "--describe"]) == 0


def test_emit_plot_data_rejects_empty(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        emit_plot_data(([], []), str(path))
    with pytest.raises(ValueError):
        emit_plot_data((["t"], [np.array([])]), str(path))
    assert not path.exists()


def test_emit_plot_data_monotone_time(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data((["t", "v"], [np.array([0.0, 0.0]), np.array([1.0, 2.0])]),
                       str(tmp_path / "x.csv"))


def test_emit_plot_data_rejects_a_nan_time_before_creating_the_file(tmp_path):
    # every comparison with NaN is False, so "no step <= 0" alone lets it through
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="strictly increasing"):
        emit_plot_data((["t", "v"], [np.array([0.0, np.nan, 1.0]), np.arange(3.0)]), str(path))
    assert not path.exists()


def test_emit_plot_data_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 1.0, 17))
    v = rng.standard_normal(17) * 1e-7
    path = str(tmp_path / "round.csv")
    emit_plot_data((["t", "v"], [t, v]), path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    back_t = np.array([float(r["t"]) for r in rows])
    back_v = np.array([float(r["v"]) for r in rows])
    np.testing.assert_array_equal(back_t, t)
    np.testing.assert_array_equal(back_v, v)


def test_emit_plot_data_matches_per_cell_format(tmp_path):
    # 1000 rows fill no whole number of blocks; a string column sits
    # between numeric ones, and the edge values keep their 17-digit text
    rng = np.random.default_rng(9)
    n = 1000
    t = np.arange(n) * 0.01
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[:6] = [-0.0, 5e-324, 1e308, -1e308, 3.0, -42.0]
    w = np.round(rng.standard_normal(n) * 1e6)  # integer-valued floats
    label = ["PTSymmetric" if x > 0 else "Broken" for x in rng.standard_normal(n)]
    names, cols = ["t", "v", "regime", "w"], [t, v, label, w]
    path = str(tmp_path / "block.csv")
    emit_plot_data((names, cols), path)
    with open(path) as fh:
        assert fh.read() == _per_cell_csv(names, cols)


def _per_cell_csv(names, cols):
    """The reference text: every cell formatted on its own."""
    return ",".join(names) + "\n" + "".join(
        ",".join(c[k] if isinstance(c[k], str) else "%.17g" % float(c[k]) for c in cols) + "\n"
        for k in range(len(cols[0])))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_emit_plot_data_constant_columns_match_per_cell_format(tmp_path, n):
    # constant columns are formatted once into the row template; -0.0
    # keeps its sign, and a column of mixed +-0 or holding a NaN is not
    # constant, so every cell reads as the per-cell writer has it
    t = np.arange(n) * 0.5
    mixed = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    nan_col = np.full(n, np.nan)
    nan_col[-1] = 1.0 if n > 1 else np.nan
    cols = [t, np.zeros(n), np.full(n, -0.0), mixed, nan_col, np.full(n, np.nan),
            np.full(n, np.inf), np.full(n, -np.inf), np.full(n, 1.0 / 3.0),
            ["Broken"] * n, np.linspace(-1.0, 1.0, n)]
    names = ["t"] + ["c%d" % k for k in range(1, len(cols))]
    path = str(tmp_path / "const.csv")
    emit_plot_data((names, cols), path)
    with open(path) as fh:
        text = fh.read()
    assert text == _per_cell_csv(names, cols)
    assert text.count("\n") == n + 1


def _kernel_text(values):
    """The cells of the vectorised "%.17g" kernel, pad bytes dropped, each
    followed by ","."""
    slots = _format17(np.asarray(values, dtype=float))
    cells = np.concatenate([slots, np.full((len(slots), 1), ord(","), np.uint8)], axis=1)
    return cells[cells != 0].tobytes().decode()


def _assert_kernel_exact(values):
    values = np.asarray(values, dtype=float).ravel()
    want = "".join("%.17g," % x for x in values.tolist())
    got = _kernel_text(values)
    if got != want:
        bad = next(x for x in values.tolist() if _kernel_text([x]) != "%.17g," % x)
        raise AssertionError("%r: kernel %r, %%.17g %r" % (bad, _kernel_text([bad]), "%.17g," % bad))


def test_format17_is_exact_on_random_bit_patterns():
    # every float64 is a bit pattern: NaNs, infinities, subnormals and
    # the whole exponent range, most of them outside the fast range
    bits = np.random.default_rng(20240801).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    _assert_kernel_exact(bits.view(np.float64))


def test_format17_is_exact_in_the_fast_range():
    # random mantissas with binary exponents across 1e-40 <= |v| < 1e40
    rng = np.random.default_rng(7)
    exponent = rng.integers(1023 - 140, 1023 + 140, 200_000).astype(np.uint64)
    bits = rng.integers(0, 2 ** 53, 200_000, dtype=np.uint64) ^ (exponent << np.uint64(52))
    _assert_kernel_exact(bits.view(np.float64))


def _edge_values():
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
           9.9999999999999999e16, 1e17 - 16.0, 1e16 - 1.0, 0.5, 1.5, 2.5, 123456.0,
           1.2345e-5, 1.2345e-4, 1.2345e16, 1.2345e17, 1e-5, 1e-4, 1e16, 1e17]
    for k in range(-330, 310):  # each power of ten and its neighbours, both signs
        p = float("1e%d" % k)
        for q in (p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)):
            out += [float(q), -float(q)]
    for bound in (1e-40, 1e40):  # the edges of the fast range
        q = bound
        for _ in range(3):
            q = np.nextafter(q, 0.0)
            out.append(float(q))
        q = bound
        for _ in range(3):
            q = np.nextafter(q, math.inf)
            out.append(float(q))
    # exact ties: 18 significant digits ending in 5, m 2^(X - 17) with m odd
    rng = np.random.default_rng(3)
    for x in range(-6, 15):
        lo, hi = math.ceil(10.0 ** x * 2.0 ** (17 - x)), math.floor(10.0 ** (x + 1) * 2.0 ** (17 - x))
        out += [(int(m) | 1) * 2.0 ** (x - 17) for m in rng.integers(lo, hi, 20)]
    return out


def test_format17_is_exact_on_the_edge_list():
    values = _edge_values()
    _assert_kernel_exact(values)
    # the ties go to "%.17g", which rounds them half to even
    assert _kernel_text([1.00000762939453125]) == "%.17g," % 1.00000762939453125


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, math.nan, -math.inf, 9.9999999999999999e16])
def test_format17_is_exact_on_hypothesis_floats(values):
    _assert_kernel_exact(values)


def test_emit_plot_data_over_several_blocks_with_a_non_ascii_text_column(tmp_path):
    # three kernel columns: three blocks of _CSV_CELLS cells and a short
    # one; the UTF-8 text sits between numeric columns, and a kernel cell
    # ends each row
    rng = np.random.default_rng(11)
    n = cli._CSV_CELLS + 17
    t = np.arange(n) * 0.25
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-45, 45, n)
    v[:4] = [-0.0, math.nan, math.inf, 1e300]
    label = rng.choice(["PTSymmetric", "gebrochen \u00fc", "\u03bb\u2248\u03c9", ""], n).tolist()
    names = ["t", "v", "label", "zero", "w"]
    cols = [t, v, label, np.zeros(n), rng.uniform(-1.0, 1.0, n)]
    path = tmp_path / "blocks.csv"
    emit_plot_data((names, cols), str(path))
    assert path.read_bytes() == _per_cell_csv(names, cols).encode("utf-8")


def test_emit_plot_data_rejects_a_text_cell_holding_the_pad_byte(tmp_path):
    path = tmp_path / "nul.csv"
    with pytest.raises(ValueError, match="label"):
        emit_plot_data((["t", "label"], [np.arange(3.0), ["a", "b\x00c", "d"]]), str(path))
    assert not path.exists()


def test_algebra_check_mode(tmp_path):
    cfg = {"mode": "algebra-check", "grid": {"t0": 0.0, "t1": 1.0, "steps": 5}}
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"]
    names = {c["name"] for c in report["checks"]}
    assert {"commutator_table", "jacobi_identity", "symplectic_condition",
            "pt_involution", "parity_equals_adjoint"} <= names
    # the ledger of standard_records: every variant flagged against its adjudicator
    ledger = report["known_discrepancies"]
    assert [r["name"] for r in ledger] == [
        "generator_j2_scaling", "ansatz_combination_7_sign", "ode_matrix_equation_form",
        "ode_matrix_tabular_form", "eigenvalue_closed_form", "parity_convention"]
    assert all(r["variant_flagged"] for r in ledger)
    assert json.loads((tmp_path / "report.json").read_text())["known_discrepancies"] == ledger


def test_algebra_check_draws_the_hamiltonians_of_the_per_sample_loop(tmp_path, monkeypatch):
    # one (samples, 4) draw is the stream of one draw of 4 per sample, and
    # the parity row reads build_H_coeffs of each row's constant profiles
    seen = []
    parity_action = cli.parity_action
    monkeypatch.setattr(cli, "parity_action", lambda h: seen.append(h) or parity_action(h))
    cfg = {"mode": "algebra-check", "seed": 5, "grid": {"t0": 0.0, "t1": 1.0, "steps": 5},
           "params": {"samples": 7}}
    assert run_scenario(cfg, str(tmp_path))["all_pass"]
    rng = np.random.default_rng(5)
    want = [build_H_coeffs(CoupledOscillatorParams(*map(ScalarProfile.constant,
                                                        rng.uniform(0.2, 3.0, size=4))), 0.0)
            for _ in range(7)]
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], want)


def test_lr_closed_form_mode(tmp_path):
    cfg = {
        "mode": "lr-closed-form",
        "grid": {"t0": 0.0, "t1": 2.0, "steps": 2001},
        "params": {"alpha": 3.0, "lam": {"kind": "constant", "value": 1.0}},
    }
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"], report["checks"]
    traj = tmp_path / "closed_form_trajectory.csv"
    assert traj.exists()
    header = traj.read_text().splitlines()[0].split(",")
    assert len(header) == 21  # t plus 10 complex pairs
    # t plus the three per-sample defects; the coefficients are in the trajectory file
    with open(tmp_path / "closed_form_residuals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "inv_sq_err", "det_err", "lr_residual"]
    # the lr_residual column is the exact per-sample defect, written with 17 digits
    cf = ClosedFormParams(alpha=3.0, lam=ScalarProfile.constant(1.0))
    grid = np.linspace(0.0, 2.0, 2001)
    traj, rate = closed_form_on_grid(cf, grid)
    _, defect = lr_residual(assemble_invariant(traj), build_H_coeffs(cf.oscillator_params(), grid),
                            grid, didt=assemble_invariant(rate))
    assert [r[3] for r in rows[1:]] == ["%.17g" % v for v in defect]
    assert max(float(r[3]) for r in rows[1:]) <= 1e-13


def test_lr_ode_mode_and_exit_codes(tmp_path):
    cfg = {
        "mode": "lr-ode",
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 501},
        "params": {
            "a": {"kind": "constant", "value": 1.0},
            "omega_x": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0, "offset": 1.3},
            "omega_y": {"kind": "constant", "value": 0.9},
            "lam": {"kind": "constant", "value": 0.5},
        },
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
    # an unreachable tolerance turns the same scenario into a check failure
    cfg["params"]["lr_tol"] = 1e-30
    path2 = write_cfg(tmp_path, cfg, "cfg2.json")
    assert main(["run", "--config", path2, "--out", str(tmp_path)]) == 2


def test_lr_ode_complex_c0_is_row_zero(tmp_path):
    # each [re, im] pair of c0 is one complex coefficient; the trajectory
    # starts at c0 exactly (17 significant digits round-trip a double)
    c0 = [[0.1, -0.2], [0.3, 0.25], [1.0, 0.5], [1.0, -1.0 / 3.0], [0.0, 0.7],
          [-0.4, 0.0], [0.0, 0.0], [2.5, 1e-3], [-1e-5, 0.9], [0.6, -0.6]]
    cfg = {"mode": "lr-ode", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "params": {**{name: _CONST for name in ("a", "omega_x", "omega_y", "lam")},
                      "c0": c0}}
    run_scenario(cfg, str(tmp_path))
    with open(tmp_path / "ode_trajectory.csv") as fh:
        header, row0 = next(csv.reader(fh)), next(csv.reader(fh))
    assert header[1:3] == ["re_c1", "im_c1"]
    assert [float(v) for v in row0[1:]] == [v for pair in c0 for v in pair]


_KNOT_LAM = {"kind": "tabulated", "times": [0.0, 0.305, 2.0], "values": [1.0, 1.6, 0.7]}
_EDGE_ALPHA, _EDGE_BETA = 2.4, 0.5


@pytest.mark.parametrize("cfg", [
    # |omega_x| up to 165: (|H| h)^4 / h is far above 1e-8 at step 0.01
    {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 20.0, "steps": 2001},
     "params": {"alpha": 5.0, "lam": {"kind": "polynomial", "coeffs": [1.0, 0.3, -0.1]}}},
    # a kink in lam (or r) inside the grid
    {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 2.0, "steps": 201},
     "params": {"alpha": 3.0, "lam": _KNOT_LAM}},
    {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 2.0, "steps": 2001},
     "params": {"alpha": 3.0, "lam": _KNOT_LAM}},
    {"mode": "point-transform", "grid": {"t0": 0.0, "t1": 4.0, "steps": 4001},
     "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.2,
                "r": {"kind": "tabulated", "times": [0.0, 0.305, 5.0],
                      "values": [1.0, 1.6, 0.7]}}},
    # artanh argument 1 - 1e-6: the stencil's tdde_residual read 1.6e-6
    {"mode": "point-transform", "grid": {"t0": 0.0, "t1": 4.0, "steps": 4001},
     "params": {"alpha": _EDGE_ALPHA, "beta": _EDGE_BETA, "c2": 0.4, "c3": 0.4,
                "coupling": (1.0 - 1e-6) * (_EDGE_ALPHA**2 - _EDGE_BETA**2)
                / (2.0 * math.sqrt(_EDGE_ALPHA * _EDGE_BETA)),
                "r": {"kind": "sinusoid", "amp": 0.3, "freq": 1.0, "phase": 0.0, "offset": 1.0}}},
], ids=["closed-form-alpha5", "closed-form-lam-knot-201", "closed-form-lam-knot-2001",
        "point-transform-r-knot", "point-transform-arctanh-edge"])
def test_exact_derivatives_certify_where_the_stencil_failed(tmp_path, cfg):
    # each run is correct and exited 2 when these rows differentiated by
    # the 4th-order central stencil; the exact rates pass every row
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == []


def test_config_errors_exit_one(tmp_path):
    bad = write_cfg(tmp_path, {"mode": "no-such-mode"})
    assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 1
    missing_profile = write_cfg(tmp_path, {
        "mode": "lr-ode", "grid": {"t0": 0, "t1": 1, "steps": 11},
        "params": {"a": {"kind": "constant", "value": 1.0}}}, "cfg3.json")
    assert main(["run", "--config", missing_profile, "--out", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "nonexistent.json")]) == 1
    tiny_grid = write_cfg(tmp_path, {"mode": "algebra-check",
                                     "grid": {"t0": 0, "t1": 1, "steps": 2}}, "cfg4.json")
    assert main(["run", "--config", tiny_grid, "--out", str(tmp_path)]) == 1


def test_grid_steps_above_the_memory_bound_fail_before_any_array(tmp_path, capsys):
    # one point over the bound, whose time grid alone would take 2 MB
    steps = cli._MAX_STEPS + 1
    cfg = write_cfg(tmp_path, {"mode": "point-transform",
                               "grid": {"t0": 0.0, "t1": 1.0, "steps": steps},
                               "params": {"alpha": 2.0, "beta": 1.0, "r": _CONST}})
    tracemalloc.start()
    try:
        code = main(["run", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: grid.steps: at most %d" % cli._MAX_STEPS)
    assert peak < 8 * steps // 2
    assert not (tmp_path / "report.json").exists()


_CONST = {"kind": "constant", "value": 1.0}


@pytest.mark.parametrize("mode", ["lr-ode", "regime-map"])
def test_profile_not_finite_on_the_grid_names_its_field(tmp_path, capsys, mode):
    # omega_x overflows on [0, 1e6]; the profile is evaluated once on the
    # grid before any numerics, so no RuntimeWarning is raised and the
    # error names the field instead of a numpy message
    cfg = {"mode": mode, "grid": {"t0": 0.0, "t1": 1e6, "steps": 11},
           "params": {"a": _CONST, "omega_x": {"kind": "polynomial", "coeffs": [1.0, 0.0, 1e300]},
                      "omega_y": _CONST, "lam": {"kind": "constant", "value": 0.5}}}
    path = write_cfg(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert caught == []
    assert capsys.readouterr().err.startswith("error: params.omega_x: not finite on the grid")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode, field", [("regime-map", "omega_x"), ("lr-ode", "lam"),
                                         ("point-transform", "r")])
def test_profile_too_large_on_the_grid_names_its_field(tmp_path, capsys, mode, field):
    # a finite constant of 1e200 used to end a regime map in a traceback
    # ("overflow encountered in square" in _spectrum_invariants under -W
    # error); the bound of _require_finite_profiles stops every mode first,
    # and a value at the bound still runs
    params = ({"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "r": _CONST} if mode == "point-transform"
              else {"a": _CONST, "omega_x": _CONST, "omega_y": _CONST, "lam": _CONST})
    cfg = {"mode": mode, "grid": {"t0": 0.0, "t1": 1.0, "steps": 11}, "params": params}
    for value in (1e200, -cli._PROFILE_BOUND * (1.0 + 1e-15)):
        params[field] = {"kind": "constant", "value": value}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
        assert caught == []
        assert capsys.readouterr().err.startswith("error: params.%s: |value| " % field)
        assert not (tmp_path / "report.json").exists()
    # with every profile at the bound the regime map's fourth powers stay
    # finite, and it passes
    if mode == "regime-map":
        for name, sign in zip(params, (1.0, -1.0, 1.0, 1.0)):
            params[name] = {"kind": "constant", "value": sign * cli._PROFILE_BOUND}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("lam", [1e10, 1e15])
def test_closed_form_run_whose_propagator_overflows_exits_1(tmp_path, capsys, lam):
    # lam passes the profile bound, but the propagator of the cross-solver
    # rows outgrows double precision: at 1e10 in the time-ordered
    # accumulation, at 1e15 in the expm squaring.  Under -W error both
    # ended in a traceback; the run must stop with one error line
    cfg = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "params": {"alpha": 3.0, "lam": {"kind": "constant", "value": lam}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: propagator too large at t = ") and err.count("\n") == 1, err
    assert not (tmp_path / "report.json").exists()
    # the run fails after its tables are formed, and writes none of them
    assert not list(tmp_path.glob("*.csv"))


def test_closed_form_run_whose_trajectory_overflows_names_its_fields(tmp_path, capsys):
    # alpha 2, lam = 1 + 1e4 sin 30t: the profile passes its bound, but the
    # hyperbolic closed form reaches ||c|| ~ 1e138 at t = 0.1, beyond the
    # fourth root of DBL_MAX that the det I and I^2 = 1 checks need.  It
    # once warned from involution_residuals and det and then failed in the
    # cross-solver refinement, naming no field; the run must stop with one
    # error line that names both fields and the first grid time
    cfg = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "params": {"alpha": 2.0, "lam": {"kind": "sinusoid", "amp": 1e4, "freq": 30.0,
                                            "offset": 1.0}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: params.alpha (2) with params.lam: the closed form is too large "
                          "at t = 0.1: ") and err.count("\n") == 1, err
    assert not (tmp_path / "report.json").exists()


def test_closed_form_run_whose_cross_solver_refinement_fails_names_its_fields(tmp_path, capsys):
    # lam = 1 + 1e3 sin 30t keeps the closed form within its bound, but the
    # time-ordered cross-solver cannot refine 11 points of [0, 1] to its
    # tolerance; the error line names grid.steps, params.lam and params.alpha
    cfg = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "params": {"alpha": 2.0, "lam": {"kind": "sinusoid", "amp": 1e3, "freq": 30.0,
                                            "offset": 1.0}}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid.steps (11) or params.lam (|value| up to ") and \
        "with params.alpha (2): refinement cannot reach" in err and err.count("\n") == 1, err
    assert not (tmp_path / "report.json").exists()
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("alpha", [1e40, 1e80])
def test_closed_form_run_whose_chi_plus_vanishes_names_its_fields(tmp_path, capsys, alpha):
    # a constant lam of 1 with a huge alpha keeps the closed form within its
    # bound, but chi_plus = c3 c4 + c5 c6 vanishes at the sampled times, so
    # the involution constraints are undefined; the error line names
    # params.alpha and params.lam, and the run writes no file
    cfg = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "params": {"alpha": alpha, "lam": _CONST}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: params.alpha (%g) with params.lam: chi_plus vanishes; " \
                  "constraints undefined\n" % alpha, err
    assert not out.exists()


@pytest.mark.parametrize("field", ["omega_x", "lam"])
def test_lr_ode_run_whose_refinement_fails_names_the_config_fields(tmp_path, capsys, field):
    # a drive of amplitude 1e20 on 11 points of [0, 1] puts STEP_TOL below
    # the rounding floor of the substeps it would take; the error line names
    # grid.steps and the profile with the largest modulus on the grid, and
    # still gives the worst interval's time and delta
    params = {name: {"kind": "constant", "value": 1.0} for name in ("a", "omega_x", "omega_y")}
    params["lam"] = {"kind": "constant", "value": 0.5}
    params[field] = {"kind": "sinusoid", "amp": 1e20, "freq": 3.0}
    cfg = {"mode": "lr-ode", "grid": {"t0": 0.0, "t1": 1.0, "steps": 11}, "params": params}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid.steps (11) or params.%s (the largest profile" % field), err
    assert err.count("\n") == 1
    assert re.search(r"worst interval starts at t = [0-9.]+ with delta [0-9.e+]+$", err), err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode, params", [
    ("lr-closed-form", {"alpha": 3.0, "lam": _CONST}),
    ("lr-ode", {"a": _CONST, "omega_x": _CONST, "omega_y": _CONST, "lam": _CONST}),
    ("point-transform", {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "r": _CONST}),
    ("algebra-check", {}),
    ("regime-map", {"a": _CONST, "omega_x": _CONST, "omega_y": _CONST, "lam": _CONST}),
])
def test_hbar_other_than_one_rejected(tmp_path, capsys, mode, params):
    # the coefficient solvers work in units with hbar = 1; another value
    # used to reach only the residual formulas and fail them silently
    cfg = {"mode": mode, "grid": {"t0": 0.0, "t1": 1.0, "steps": 11},
           "hbar": 2.0, "params": params}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    assert "hbar:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_point_transform_mode(tmp_path):
    cfg = {
        "mode": "point-transform",
        "grid": {"t0": 0.0, "t1": 2.0, "steps": 2001},
        "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.2,
                   "r": {"kind": "constant", "value": 1.0}},
    }
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"], [c for c in report["checks"] if c["status"] != "pass"]
    assert "known_discrepancies" in report
    flagged = {d["name"]: d["variant_flagged"] for d in report["known_discrepancies"]}
    assert flagged["transformed_invariant_expression"]
    assert flagged["ermakov_pinney_form"]
    assert (tmp_path / "point_transform_trajectory.csv").exists()
    row = [c for c in report["checks"] if c["name"] == "dyson_inverse_identity"]
    assert len(row) == 1 and row[0]["tolerance"] == 1e-12


@pytest.mark.parametrize("alpha,beta", [(2.0, 1.0), (0.6, 1.7)])
def test_point_transform_mode_near_arctanh_edge(tmp_path, alpha, beta):
    # artanh argument 1 - 1e-8: |eta| |eta^-1| ~ 4e4, so eta eta^-1 - 1 is
    # ~3e-12 in absolute terms while rounding-level relative to that scale
    coupling = (1.0 - 1e-8) * (alpha**2 - beta**2) / (2.0 * np.sqrt(alpha * beta))
    cfg = {
        "mode": "point-transform",
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 1001},
        "params": {"alpha": alpha, "beta": beta, "coupling": coupling, "c2": 0.2, "c3": 0.2,
                   "r": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0,
                         "offset": 1.0}},
    }
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"], [c for c in report["checks"] if c["status"] != "pass"]


@pytest.mark.parametrize("coupling", [0.0, 0.2])
def test_point_transform_mode_alpha_below_beta(tmp_path, coupling):
    # Delta = sign(alpha^2 - beta^2) sqrt(...) is negative here
    cfg = {
        "mode": "point-transform",
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 501},
        "params": {"alpha": 0.6, "beta": 1.7, "coupling": coupling, "c2": 0.2, "c3": 0.2,
                   "r": {"kind": "constant", "value": 1.0}},
    }
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"], [c for c in report["checks"] if c["status"] != "pass"]


def test_regime_map_mode(tmp_path):
    cfg = {
        "mode": "regime-map",
        "grid": {"t0": 0.0, "t1": 2.0, "steps": 41},
        "params": {
            "a": {"kind": "constant", "value": 1.0},
            "omega_x": {"kind": "constant", "value": 1.0},
            "omega_y": {"kind": "constant", "value": 1.0},
            "lam": {"kind": "sinusoid", "amp": 1.0, "freq": 1.0, "phase": 0.0, "offset": 0.5},
        },
    }
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"]
    with (tmp_path / "eigenvalue_trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "re1", "re2", "re3", "re4",
                            "im1", "im2", "im3", "im4", "regime"}
    regimes = {r["regime"] for r in rows}
    assert "SpontaneouslyBroken" in regimes  # lam crosses Omega+/2 = 1


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def test_regime_map_real_eigenvalues_carry_no_branch_sign(tmp_path):
    # LAPACK returns the real eigenvalues of the shipped regime map with
    # +-1e-17 imaginary parts of either sign; within the sort's tie
    # tolerance they are written as 0, so im1 never flips sign between
    # neighbouring real rows (42 flips before)
    with open(os.path.join(SCENARIOS, "regime_map.json")) as fh:
        cfg = json.load(fh)
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"]
    with (tmp_path / "eigenvalue_trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    im = np.array([[float(r["im%d" % k]) for k in range(1, 5)] for r in rows])
    real_rows = np.abs(im[:, 0]) < 1e-12
    assert real_rows.sum() > 40
    sign = np.sign(im[:, 0])
    flips = real_rows[1:] & real_rows[:-1] & (sign[1:] != sign[:-1])
    assert flips.sum() == 0
    assert np.all(im[np.abs(im) < 1e-12] == 0.0)
    # the noise is there in the raw spectrum of those rows
    params = _resolve_config(cfg)["params"]
    t = np.array([float(r["t"]) for r in rows])[real_rows]
    raw = np.linalg.eigvals(to_matrix(build_H_coeffs(CoupledOscillatorParams(**params), t))).imag
    assert (raw > 0).any() and (raw < 0).any() and np.abs(raw).max() < 1e-12


def _shipped_regime_map():
    with open(os.path.join(SCENARIOS, "regime_map.json")) as fh:
        return json.load(fh)


def test_regime_map_labels_are_those_of_classify_regime(tmp_path):
    cfg = _shipped_regime_map()
    run_scenario(cfg, str(tmp_path))
    rows = (tmp_path / "eigenvalue_trajectory.csv").read_bytes().split(b"\n")[1:-1]
    resolved = _resolve_config(cfg)
    grid = np.linspace(resolved["grid"]["t0"], resolved["grid"]["t1"], resolved["grid"]["steps"])
    labels = classify_regime(CoupledOscillatorParams(**resolved["params"]), grid)
    assert [row.rpartition(b",")[2] for row in rows] == [r.value.encode() for r in labels]


def _drop_i(evs):
    return evs / 1j


def _largest_times_one_plus_1e_12(evs):
    k = np.argmax(np.abs(evs), axis=-1)
    evs[np.arange(len(evs)), k] *= 1.0 + 1e-12
    return evs


@pytest.mark.parametrize("fault", [_drop_i, _largest_times_one_plus_1e_12])
def test_spectrum_invariants_row_fails_on_a_spectrum_fault(tmp_path, monkeypatch, fault):
    # both faults keep the spectrum symmetric to 1e-12, so the pairing row
    # passes them; the trace and determinant of the complex M(H) do not
    cfg = _shipped_regime_map()
    clean = {c["name"]: c for c in run_scenario(cfg, str(tmp_path / "clean"))["checks"]}
    assert clean["spectrum_invariants"]["residual"] <= 8 * np.finfo(float).eps
    original = cli.instantaneous_eigenvalues
    monkeypatch.setattr(cli, "instantaneous_eigenvalues", lambda *values: fault(original(*values)))
    checks = {c["name"]: c for c in run_scenario(cfg, str(tmp_path / "fault"))["checks"]}
    assert checks["eigenvalue_pairing"]["status"] == "pass"
    assert checks["spectrum_invariants"]["status"] == "fail"


def test_spectrum_invariants_row_fails_on_a_position_momentum_term(tmp_path, monkeypatch):
    # i times a real J2 coefficient is a position-momentum cross term, which
    # the coupled family does not have.  The spectrum is taken from the
    # profile values and never sees it; the complex M(H) of the row does, so
    # the run fails there with exit 2
    original = cli._h_coeffs

    def with_j2(*values):
        h = original(*values)
        h[..., GeneratorId.J2] = 0.25j
        return h

    monkeypatch.setattr(cli, "_h_coeffs", with_j2)
    cfg = write_cfg(tmp_path, _shipped_regime_map())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["spectrum_invariants"]


@pytest.mark.parametrize("amp", [1e-3, 1e-6, 1e-9])
def test_spectrum_invariants_hold_near_the_nilpotent_point(tmp_path, amp):
    # a = 2, omega_x = -omega_y = lam = 1/2 makes BC nilpotent (tr = det =
    # disc = 0).  Around it, with omega_x omega_y < 0, a second root taken
    # as det / z1 would miss tr by up to order sqrt(eps) rho^2, since the
    # rounded det and disc disagree at the scale of rho^4; tr - z1 keeps
    # the row within its derived 64 eps on every sample
    params = {name: {"kind": "sinusoid", "amp": amp, "freq": freq, "phase": 0.3, "offset": value}
              for name, freq, value in (("a", 1.1, 2.0), ("omega_x", 1.7, 0.5),
                                        ("omega_y", 2.3, -0.5), ("lam", 2.9, 0.5))}
    cfg = {"mode": "regime-map", "grid": {"t0": 0.0, "t1": 6.0, "steps": 601}, "params": params}
    checks = {c["name"]: c for c in run_scenario(cfg, str(tmp_path))["checks"]}
    assert checks["spectrum_invariants"]["status"] == "pass", checks


def test_eigenvalue_pairing_row_fails_on_an_unpaired_eigenvalue(tmp_path, monkeypatch):
    # the sorted spectrum must list -eps opposite each eps; one eigenvalue
    # moved by 1e-9 of itself leaves its partner unpaired
    original = cli.instantaneous_eigenvalues

    def unpaired(*values):
        evs = original(*values)
        evs[:, -1] *= 1.0 + 1e-9
        return evs

    monkeypatch.setattr(cli, "instantaneous_eigenvalues", unpaired)
    checks = {c["name"]: c for c in run_scenario(_shipped_regime_map(), str(tmp_path))["checks"]}
    assert checks["eigenvalue_pairing"]["status"] == "fail"


def test_report_deterministic_modulo_walltime(tmp_path):
    cfg = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.0, "steps": 501},
           "params": {"alpha": 2.0, "lam": {"kind": "constant", "value": 1.0}}}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(out1))
    run_scenario(cfg, str(out2))
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    # CSV artifacts are byte-identical
    assert (out1 / "closed_form_trajectory.csv").read_bytes() == \
        (out2 / "closed_form_trajectory.csv").read_bytes()


def test_point_transform_computes_each_adopted_residual_once(tmp_path, monkeypatch):
    # the ledger's adopted EP and invariant-equation residuals are the
    # run's check rows, not a second evaluation
    import sp4lr.crosschecks
    import sp4lr.point_transform

    calls = {"ep": 0, "rate_defect": 0, "lr_exact": 0, "lr_stencil": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counting_lr(fn):
        def wrapped(*args, **kwargs):
            calls["lr_stencil" if kwargs.get("didt") is None else "lr_exact"] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (cli, sp4lr.point_transform):
        monkeypatch.setattr(module, "ep_residual", counting(module.ep_residual, "ep"))
        monkeypatch.setattr(module, "_invariant_rate_defect",
                            counting(module._invariant_rate_defect, "rate_defect"))
    for module in (cli, sp4lr.crosschecks):
        monkeypatch.setattr(module, "lr_residual", counting_lr(module.lr_residual))
    cfg = {"mode": "point-transform", "grid": {"t0": 0.0, "t1": 1.0, "steps": 501},
           "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.2,
                      "r": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0,
                            "offset": 1.0}}}
    report = run_scenario(cfg, str(tmp_path))
    assert report["all_pass"]
    # one EP residual; the real-coordinate exact-rate defect for the row
    # and the pairing variant, the stencil lr_residual for the
    # closed-expression variant, and no complex exact-rate lr_residual
    assert calls == {"ep": 1, "rate_defect": 2, "lr_exact": 0, "lr_stencil": 1}
    rows = {c["name"]: c["residual"] for c in report["checks"]}
    ledger = {r["name"]: r["adopted_residual"] for r in report["known_discrepancies"]}
    assert ledger["ermakov_pinney_form"] == rows["ermakov_pinney_residual"]
    assert ledger["transformed_invariant_expression"] == rows["invariant_lr_residual"]
    assert ledger["target_coefficient_pairing"] == rows["invariant_lr_residual"]


def test_point_transform_builds_each_grid_fact_once(tmp_path, monkeypatch):
    # the substitution T, the target coefficients and the target
    # Hamiltonian of the scenario grid are built once and passed on
    import sp4lr.crosschecks
    import sp4lr.point_transform

    steps = 501
    calls = {"T": 0, "target": 0, "H": 0}

    def counting(key, fn, size_of):
        def wrapped(*args, **kwargs):
            calls[key] += size_of(*args) == steps
            return fn(*args, **kwargs)
        return wrapped

    pt_mod = sp4lr.point_transform
    monkeypatch.setattr(pt_mod, "_substitution_matrices", counting(
        "T", pt_mod._substitution_matrices, lambda p, sigma, *rest: np.size(sigma)))
    target = counting("target", pt_mod.target_coefficients, lambda p, ep: ep.t.size)
    for module in (cli, pt_mod):
        monkeypatch.setattr(module, "target_coefficients", target)
    build_h = counting("H", pt_mod.build_H_modified, lambda a, b, lam: np.size(a))
    for module in (cli, pt_mod, sp4lr.crosschecks):
        monkeypatch.setattr(module, "build_H_modified", build_h)
    cfg = {"mode": "point-transform", "grid": {"t0": 0.0, "t1": 1.0, "steps": steps},
           "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.2,
                      "r": {"kind": "sinusoid", "amp": 0.2, "freq": 1.0, "phase": 0.0,
                            "offset": 1.0}}}
    assert run_scenario(cfg, str(tmp_path))["all_pass"]
    # H twice: the adopted target Hamiltonian and the swapped-pairing variant of the ledger
    assert calls == {"T": 1, "target": 1, "H": 2}


def _sinusoid(offset):
    return {"kind": "sinusoid", "amp": 0.3, "freq": 1.3, "phase": 0.2, "offset": offset}


_COUPLED_PARAMS = {"a": _sinusoid(1.0), "omega_x": _sinusoid(1.3), "omega_y": _sinusoid(0.8),
                   "lam": _sinusoid(0.9)}


@pytest.mark.parametrize("mode, params, grid_calls", [
    # the guard's one evaluation per profile, read by every stage
    ("regime-map", _COUPLED_PARAMS, 4),
    ("lr-ode", _COUPLED_PARAMS, 4),
    # the guard's and the EP state's evaluation of r
    ("point-transform", {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "r": _sinusoid(1.0)}, 2),
    # the guard's lam, read by H as a, omega_y and lam, the closed form's
    # rate, and H's omega_x: alpha lam(t) would round apart from
    # lam.scaled(alpha)(t)
    ("lr-closed-form", {"alpha": 3.0, "lam": _sinusoid(1.0)}, 3),
    ("algebra-check", {}, 0),
], ids=["regime-map", "lr-ode", "point-transform", "lr-closed-form", "algebra-check"])
def test_each_profile_is_evaluated_on_the_grid_once(tmp_path, monkeypatch, mode, params,
                                                     grid_calls):
    steps = 501  # no other array a run passes to a profile has this size
    sizes = []
    call = ScalarProfile.__call__

    def counting(self, t):
        sizes.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(ScalarProfile, "__call__", counting)
    cfg = {"mode": mode, "grid": {"t0": 0.0, "t1": 1.0, "steps": steps}, "params": params}
    assert run_scenario(cfg, str(tmp_path))["all_pass"]
    assert sizes.count(steps) == grid_calls
    if mode == "algebra-check":
        # the parity rows and the ledger records read profile values, and
        # build no profile
        assert sizes == []


def test_seed_env_controls_sampling(tmp_path, monkeypatch):
    cfg = {"mode": "point-transform", "grid": {"t0": 0.0, "t1": 1.0, "steps": 501},
           "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "c2": 0.2, "c3": 0.2,
                      "r": {"kind": "constant", "value": 1.0}}}
    monkeypatch.setenv("SP4_SEED", "7")
    r1 = run_scenario(cfg, str(tmp_path / "s7"))
    monkeypatch.setenv("SP4_SEED", "8")
    r2 = run_scenario(cfg, str(tmp_path / "s8"))
    # different seeds change the sampled residuals but not the outcome
    assert r1["all_pass"] and r2["all_pass"]
    v1 = [c["residual"] for c in r1["checks"] if c["name"] == "pde_potential_match"]
    v2 = [c["residual"] for c in r2["checks"] if c["name"] == "pde_potential_match"]
    assert v1 != v2


def test_tolerances_block_validated(tmp_path, capsys):
    # the block set nothing the solvers read; it is now an unknown field
    for k, block in enumerate(({"quad_tol": -1.0}, {"eig_tol": 1e-10},
                               {"expm_tol": 1e-3, "fd_step": 0.5})):
        bad = write_cfg(tmp_path, {"mode": "algebra-check",
                                   "grid": {"t0": 0, "t1": 1, "steps": 5},
                                   "tolerances": block}, "cfg%d.json" % k)
        assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 1
        assert "error: tolerances: unknown field" in capsys.readouterr().err


_GRID = {"t0": 0.0, "t1": 1.0, "steps": 11}
_PT = {"mode": "point-transform", "grid": _GRID,
       "params": {"alpha": 2.0, "beta": 1.0, "coupling": 0.5, "r": _CONST}}
_COUPLED = {name: _CONST for name in ("a", "omega_x", "omega_y", "lam")}


@pytest.mark.parametrize("cfg, field", [
    ({**_PT, "typo": 3}, "typo"),
    ({**_PT, "params": {**_PT["params"], "r": {**_CONST, "amp": 5}}}, "params.r.amp"),
    ({**_PT, "params": {"alpha": 2.0, "beta": 1.0, "Lambda": 0.5, "r": _CONST}}, "params.Lambda"),
    ({"mode": "lr-closed-form", "grid": _GRID, "params": {"alpha": math.nan, "lam": _CONST}},
     "params.alpha"),
    ({**_PT, "params": {"beta": 1.0, "r": _CONST}}, "params.alpha"),
    ({"mode": "lr-closed-form", "grid": _GRID, "params": {"alpha": 3.0}}, "params.lam"),
    ({"mode": "regime-map"}, "params.a"),
    ({**_PT, "grid": {**_GRID, "steps": 10.5}}, "grid.steps"),
    ({**_PT, "params": {**_PT["params"], "alpha": 0.0}}, "params.alpha"),
    ({**_PT, "params": {**_PT["params"], "beta": 0.0}}, "params.beta"),
    ({"mode": "lr-closed-form", "grid": _GRID, "params": {"alpha": -1.5, "lam": _CONST}},
     "params.alpha"),
    ({**_PT, "params": {**_PT["params"], "beta": 2.0}}, "params.beta"),
    ({**_PT, "params": {**_PT["params"], "alpha": 1.0, "beta": -2.0, "coupling": 0.1}},
     "params.beta"),
    ({"mode": "algebra-check", "grid": _GRID, "params": {"samples": -1}}, "params.samples"),
], ids=["unknown-top-level", "extended-profile", "Lambda", "nan", "alpha-missing",
        "profile-missing", "params-missing", "steps-not-integer", "alpha-zero", "beta-zero",
        "degenerate-alpha", "equal-frequencies", "opposite-signs-coupled", "samples-negative"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invalid_config_names_field(tmp_path, capsys, cfg, field):
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    assert "error: %s:" % field in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


_REQUIRED_ONLY = {
    "algebra-check": {},
    "lr-closed-form": {"lam": _CONST},
    "lr-ode": _COUPLED,
    "point-transform": {"alpha": 2.0, "beta": 1.0, "r": _CONST},
    "regime-map": _COUPLED,
}


@pytest.mark.parametrize("mode", sorted(_REQUIRED_ONLY))
def test_required_fields_resolve_to_described_defaults(monkeypatch, mode):
    monkeypatch.delenv("SP4_SEED", raising=False)
    schema = json.loads(describe_schema())
    given_cfg = {"mode": mode, "params": _REQUIRED_ONLY[mode]}

    def walk(spec, got, given_obj):
        assert set(got) == set(spec)
        leaves = {name: f for name, f in spec.items() if "type" in f}
        assert set(given_obj) <= set(spec)
        assert set(given_obj) & set(leaves) == {n for n, f in leaves.items() if f["required"]}
        for name, f in spec.items():
            if name not in leaves:
                walk(f, got[name], given_obj.get(name, {}))
            elif not f["required"]:
                assert got[name] == f["default"] and type(got[name]) is type(f["default"])

    schema.pop("profiles")
    walk({**schema, "params": schema["params"][mode]}, _resolve_config(given_cfg), given_cfg)


# -- every single-field mutation of a valid config is rejected and named --

_MODES = ("algebra-check", "lr-closed-form", "lr-ode", "point-transform", "regime-map")


@st.composite
def _valid_configs(draw):
    def u(lo, hi):
        return draw(st.floats(lo, hi))

    def profile():
        if draw(st.sampled_from(("constant", "sinusoid"))) == "constant":
            return {"kind": "constant", "value": u(0.6, 1.4)}
        return {"kind": "sinusoid", "amp": u(0.05, 0.3), "freq": u(0.5, 2.0),
                "phase": u(0.0, 6.0), "offset": u(0.8, 1.2)}

    mode = draw(st.sampled_from(_MODES))
    if mode == "algebra-check":
        params = {"samples": draw(st.integers(0, 5))}
    elif mode == "lr-closed-form":
        params = {"alpha": u(0.5, 4.0), "lam": profile()}
    elif mode == "point-transform":
        alpha, beta = u(1.2, 2.4), u(0.5, 1.0)
        params = {"alpha": alpha, "beta": beta,
                  "coupling": u(-0.8, 0.8) * (alpha**2 - beta**2) / (2.0 * math.sqrt(alpha * beta)),
                  "c2": u(0.0, 0.4), "c3": u(0.0, 0.4), "r": profile()}
    else:
        params = {name: profile() for name in ("a", "omega_x", "omega_y", "lam")}
    grid = {"t0": 0.0, "t1": u(0.5, 2.0), "steps": draw(st.integers(11, 41))}
    return {"mode": mode, "grid": grid, "hbar": 1.0, "seed": draw(st.integers(0, 2**31 - 1)),
            "params": params}


def _paths(obj, path=()):
    yield path, obj
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _paths(value, path + (name,))


def _required_paths(cfg, schema):
    """The required fields of ``cfg``, by the table that --describe prints."""
    out = [("mode",)]
    for name, f in schema["params"][cfg["mode"]].items():
        if f["required"]:
            out.append(("params", name))
        if f["type"] == "profile":
            fields = schema["profiles"][cfg["params"][name]["kind"]]
            out += [("params", name, k) for k, g in fields.items() if g["required"]]
            out.append(("params", name, "kind"))
    return out


def _at(cfg, path):
    for name in path:
        cfg = cfg[name]
    return cfg


@st.composite
def _mutated_configs(draw):
    """(config, field path the error must name); the path is None when unmutated."""
    cfg = draw(_valid_configs())
    profiles = [p for p, v in _paths(cfg) if isinstance(v, dict) and "kind" in v]
    kind = draw(st.sampled_from(["none", "unknown", "number", "delete"]
                                + (["profile"] if profiles else [])))
    if kind == "none":
        return cfg, None
    mutated = json.loads(json.dumps(cfg))
    if kind == "unknown":
        path = draw(st.sampled_from([p for p, v in _paths(cfg) if isinstance(v, dict)])) + ("zz",)
        value = draw(st.sampled_from([0.0, "x", None]))
    elif kind == "number":
        path = draw(st.sampled_from([p for p, v in _paths(cfg) if isinstance(v, (int, float))]))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, "1.0", True, False, None]))
    elif kind == "delete":
        path = draw(st.sampled_from(_required_paths(cfg, json.loads(describe_schema()))))
        del _at(mutated, path[:-1])[path[-1]]
        return mutated, path
    else:  # a bad kind, or a field that the profile's kind does not have
        profile = draw(st.sampled_from(profiles))
        name, value = draw(st.sampled_from(
            [("kind", "fractal"), ("amp", 1.0), ("value", 1.0), ("coeffs", [1.0])]).filter(
            lambda nv: nv[0] == "kind" or nv[0] not in _at(cfg, profile)))
        path = profile + (name,)
    _at(mutated, path[:-1])[path[-1]] = value
    return mutated, path


def _run_in_process(cfg):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", path, "--out", out])
        return code, err.getvalue(), os.path.exists(os.path.join(out, "report.json"))


# a driven lam on a coarse grid, once refused by a Simpson error bound
_DRIVEN_LAM = {"mode": "lr-closed-form", "grid": {"t0": 0.0, "t1": 1.25, "steps": 12},
               "params": {"alpha": 2.67, "lam": {"kind": "sinusoid", "amp": 0.3, "freq": 1.92,
                                                 "phase": 2.76, "offset": 1.1}}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(_mutated_configs())
@example((_DRIVEN_LAM, None))
def test_single_mutation_rejected_with_field_path(case):
    cfg, path = case
    code, err, wrote_report = _run_in_process(cfg)
    if path is None:
        assert code in (0, 2) and wrote_report, err
    else:
        assert code == 1 and not wrote_report
        assert "error: %s" % ".".join(path) in err, (err, cfg)
