"""The golden outputs of the shipped scenarios, and their comparison.

For each ``scenarios/<name>.json`` the directory ``tests/golden/<name>/``
holds the run's ``report.json`` without ``wall_time_s``, and each CSV the
run writes, cut to its header, every ``STRIDE``-th data row and the last
row.  ``tests/test_golden.py`` runs every shipped scenario and compares
its outputs with these files by :func:`compare_run`: keys, labels and
strings exactly, numbers within ``TOL`` (relative for magnitudes above 1).

The golden is test data.  Regenerate it only in a change whose point is a
moved number, and say in CHANGES.md which cells moved and by how much:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
STRIDE = 50  # every STRIDE-th data row is kept, and the last
TOL = 1e-14  # the north star's "unchanged", relative above 1


def scenario_names() -> list:
    return sorted(path.stem for path in SCENARIOS.glob("*.json"))


def run(name: str, outdir) -> None:
    """Run ``scenarios/<name>.json`` into ``outdir``, as ``sp4lr run`` does."""
    from sp4lr.cli import run_scenario

    with open(SCENARIOS / (name + ".json")) as fh:
        run_scenario(json.load(fh), str(outdir))


def sampled_lines(path) -> list:
    """The header, every ``STRIDE``-th data row and the last, as text lines."""
    header, *rows = Path(path).read_text().splitlines()
    keep = rows[::STRIDE]
    if rows and (len(rows) - 1) % STRIDE:
        keep.append(rows[-1])
    return [header] + keep


def report_of(outdir) -> dict:
    report = json.loads((Path(outdir) / "report.json").read_text())
    report.pop("wall_time_s")
    return report


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= TOL * max(1.0, abs(want))


def _compare(got, want, where: str, out: list) -> None:
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        if got != want or type(got) is not type(want):
            out.append("%s: %r, golden %r" % (where, got, want))
    elif isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(got, want):
            out.append("%s: %r, golden %r" % (where, got, want))
    elif isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            out.append("%s: keys %r, golden %r" % (where, sorted(got) if isinstance(got, dict)
                                                   else got, sorted(want)))
            return
        for key in want:
            _compare(got[key], want[key], "%s.%s" % (where, key), out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append("%s: %r items, golden %d" % (where, len(got) if isinstance(got, list)
                                                    else got, len(want)))
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, "%s[%d]" % (where, k), out)
    else:
        raise TypeError("%s: unexpected golden value %r" % (where, want))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:  # a label
        return text


def compare_run(name: str, outdir) -> list:
    """Every difference between a run of ``name`` in ``outdir`` and its
    golden, one line each; empty when the run matches."""
    golden = GOLDEN / name
    out = []
    _compare(report_of(outdir), json.loads((golden / "report.json").read_text()), "report", out)
    csvs = sorted(p.name for p in Path(outdir).glob("*.csv"))
    want_csvs = sorted(p.name for p in golden.glob("*.csv"))
    if csvs != want_csvs:
        out.append("CSV files %r, golden %r" % (csvs, want_csvs))
    for csv in sorted(set(csvs) & set(want_csvs)):
        got = sampled_lines(Path(outdir) / csv)
        want = (golden / csv).read_text().splitlines()
        if len(got) != len(want):
            out.append("%s: %d sampled lines, golden %d" % (csv, len(got), len(want)))
            continue
        if got[0] != want[0]:
            out.append("%s: header %r, golden %r" % (csv, got[0], want[0]))
        for k, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
            gc, wc = g.split(","), w.split(",")
            if len(gc) != len(wc):
                out.append("%s line %d: %d cells, golden %d" % (csv, k, len(gc), len(wc)))
                continue
            _compare([_cell(c) for c in gc], [_cell(c) for c in wc], "%s line %d" % (csv, k), out)
    return out


def main() -> int:
    if "SP4_SEED" in os.environ:
        print("unset SP4_SEED: the golden holds the configs' own seeds", file=sys.stderr)
        return 1
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in scenario_names():
        with tempfile.TemporaryDirectory() as tmp:
            run(name, tmp)
            target = GOLDEN / name
            target.mkdir(parents=True)
            with open(target / "report.json", "w") as fh:
                json.dump(report_of(tmp), fh, indent=1, sort_keys=True)
                fh.write("\n")
            for csv in sorted(Path(tmp).glob("*.csv")):
                (target / csv.name).write_text("\n".join(sampled_lines(csv)) + "\n")
        print("wrote", target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
