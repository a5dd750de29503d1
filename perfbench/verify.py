"""Benchmark-side checks of one scenario's outputs.

A scenario passes when its ``report.json`` says ``all_pass`` and every
check's residual is within its tolerance when compared here, when every
CSV artifact has exactly ``grid.steps`` rows of finite numbers, and, for
regime maps, when the CSV eigenvalues at seeded rows match
``numpy.linalg.eigvals`` of the same 4x4 matrix as sets.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from sp4lr.algebra import to_matrix
from sp4lr.hamiltonian import CoupledOscillatorParams, build_H_coeffs
from sp4lr.profiles import ScalarProfile

REGIMES = ("PTSymmetric", "ExceptionalPoint", "SpontaneouslyBroken")
EIG_ROWS = 8  # seeded CSV rows re-diagonalised per regime map
EIG_TOL = 1e-10  # relative to max(1, |eigenvalue|)
_PERMS = np.array(list(itertools.permutations(range(4))))


class Outcome:
    """What the checks of one scenario found."""

    def __init__(self):
        self.problems: list[str] = []
        self.ratios: list[float] = []  # residual / tolerance, tolerance > 0
        self.regime_samples: dict[str, int] = {}  # regime maps only


def set_mismatch(a, b) -> float:
    """Smallest max-abs distance between two 4-sets over all pairings."""
    return float(np.abs(a[_PERMS] - b[None, :]).max(axis=1).min())


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), lines[1:]


def _check_regime(cfg, header, rows, rng, out):
    labels = [r.rpartition(",")[2] for r in rows]
    for name in REGIMES:
        out.regime_samples[name] = out.regime_samples.get(name, 0) + labels.count(name)
    unknown = set(labels) - set(REGIMES)
    if unknown:
        out.problems.append("unknown regime labels %s" % sorted(unknown))
    p = cfg["params"]
    params = CoupledOscillatorParams(*(ScalarProfile.from_config(p[k])
                                       for k in ("a", "omega_x", "omega_y", "lam")))
    col = {name: k for k, name in enumerate(header)}
    worst = 0.0
    for k in rng.choice(len(rows), size=min(EIG_ROWS, len(rows)), replace=False):
        cells = rows[k].split(",")
        t = float(cells[0])
        got = np.array([float(cells[col["re%d" % j]]) + 1j * float(cells[col["im%d" % j]])
                        for j in range(1, 5)])
        want = np.linalg.eigvals(to_matrix(build_H_coeffs(params, t)))
        worst = max(worst, set_mismatch(got, want) / max(1.0, float(np.abs(want).max())))
    out.ratios.append(worst / EIG_TOL)
    if worst > EIG_TOL:
        out.problems.append("eigenvalue set mismatch %.3e > %.1e" % (worst, EIG_TOL))


def check_scenario(cfg: dict, outdir: str, rng) -> Outcome:
    out = Outcome()
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    if report.get("all_pass") is not True:
        out.problems.append("report.json all_pass is not true")
    for row in report["checks"]:
        res, tol = float(row["residual"]), float(row["tolerance"])
        if not res <= tol:
            out.problems.append("check %s: residual %.3e > tolerance %.3e"
                                % (row["name"], res, tol))
        if tol > 0:
            out.ratios.append(res / tol)
    steps = int(cfg["grid"]["steps"])
    for name in report["artifacts"]:
        header, rows = _read_csv(os.path.join(outdir, name))
        if len(rows) != steps:
            out.problems.append("%s: %d data rows, expected %d" % (name, len(rows), steps))
            continue
        regime = header[-1] == "regime"
        ncols = len(header) - 1 if regime else len(header)
        data = np.loadtxt(rows, delimiter=",", usecols=range(ncols), ndmin=2)
        if data.shape != (steps, ncols) or not np.all(np.isfinite(data)):
            out.problems.append("%s: non-finite or ragged data" % name)
        if regime:
            _check_regime(cfg, header, rows, rng, out)
    return out
