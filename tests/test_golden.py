"""Every shipped scenario against its committed golden (tests/make_golden.py)."""

import pytest

from . import make_golden


def test_every_shipped_scenario_has_a_golden():
    assert sorted(p.name for p in make_golden.GOLDEN.iterdir()) == make_golden.scenario_names()


@pytest.mark.parametrize("name", make_golden.scenario_names())
def test_shipped_scenario_matches_its_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SP4_SEED", raising=False)
    make_golden.run(name, tmp_path)
    diffs = make_golden.compare_run(name, tmp_path)
    assert not diffs, "\n".join(diffs[:20])


def test_the_comparison_sees_a_moved_cell_and_a_changed_label(tmp_path, monkeypatch):
    # a cell moved by 1e-13 relative, and a regime label changed, each fail
    monkeypatch.delenv("SP4_SEED", raising=False)
    name = "regime_map"
    make_golden.run(name, tmp_path)
    csv = tmp_path / "eigenvalue_trajectory.csv"
    header, first, *rest = csv.read_text().splitlines()
    cells = first.split(",")
    moved = cells.copy()
    moved[1] = "%.17g" % (float(cells[1]) * (1.0 + 1e-13) + 1e-13)
    relabelled = cells[:-1] + ["not-a-regime"]
    for row in (moved, relabelled):
        csv.write_text("\n".join([header, ",".join(row)] + rest) + "\n")
        assert len(make_golden.compare_run(name, tmp_path)) == 1
    csv.write_text("\n".join([header, first] + rest) + "\n")
    assert make_golden.compare_run(name, tmp_path) == []
