"""Tests for scalar time profiles."""

import numpy as np
import pytest

from sp4lr.errors import ProfileDomain
from sp4lr.profiles import ScalarProfile


def test_constant():
    p = ScalarProfile.constant(2.5)
    assert p(0.3) == 2.5
    np.testing.assert_array_equal(p(np.array([0.0, 1.0])), [2.5, 2.5])
    assert p.derivative(1.0) == 0.0


def test_sinusoid():
    p = ScalarProfile.sinusoid(0.2, 3.0, 0.5, 1.0)
    t = np.linspace(0, 2, 7)
    np.testing.assert_allclose(p(t), 0.2 * np.sin(3 * t + 0.5) + 1.0)
    np.testing.assert_allclose(p.derivative(t), 0.6 * np.cos(3 * t + 0.5))


def test_polynomial():
    p = ScalarProfile.polynomial([1.0, -2.0, 3.0])
    assert p(2.0) == pytest.approx(1 - 4 + 12)
    assert p.derivative(2.0) == pytest.approx(-2 + 12)


def test_tabulated_interpolates_and_refuses_extrapolation():
    p = ScalarProfile.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert p(0.5) == pytest.approx(1.0)
    assert p.derivative(0.5) == pytest.approx(2.0)
    assert p.derivative(1.5) == pytest.approx(-2.0)
    with pytest.raises(ProfileDomain):
        p(2.5)
    with pytest.raises(ProfileDomain):
        p(np.array([-0.1, 0.5]))


def test_antiderivative_cosine():
    p = ScalarProfile.sinusoid(1.0, 1.0, np.pi / 2.0)  # cos(t)
    grid = np.linspace(0.0, np.pi / 2.0, 201)
    np.testing.assert_allclose(p.antiderivative(grid), np.sin(grid), atol=1e-10)


def test_antiderivative_tabulated_exact_for_interpolant():
    p = ScalarProfile.tabulated([0.0, 1.0, 3.0], [1.0, 3.0, -1.0])
    grid = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    # trapezoid of the piecewise-linear interpolant is its exact integral
    np.testing.assert_allclose(p.antiderivative(grid), [0.0, 0.75, 2.0, 4.0, 4.0])


def test_config_roundtrip():
    for p in (ScalarProfile.constant(1.0),
              ScalarProfile.sinusoid(0.2, 1.0, 0.0, 1.0),
              ScalarProfile.polynomial([0.0, 1.0]),
              ScalarProfile.tabulated([0.0, 1.0], [2.0, 2.0])):
        q = ScalarProfile.from_config(p.to_config())
        t = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(p(t), q(t))


def test_from_config_bare_number():
    assert ScalarProfile.from_config(3).kind == "constant"


def test_unknown_kind():
    with pytest.raises(ValueError):
        ScalarProfile.from_config({"kind": "fractal"})


def test_from_config_fills_defaults():
    p = ScalarProfile.from_config({"kind": "sinusoid", "amp": 1, "freq": 2.0})
    assert p.args == {"amp": 1.0, "freq": 2.0, "phase": 0.0, "offset": 0.0}
    assert isinstance(p.args["amp"], float)


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "constant", "value": 1.0, "amp": 5.0}, "amp"),
    ({"kind": "sinusoid", "amp": 1.0}, "freq"),
    ({"kind": "sinusoid", "amp": float("nan"), "freq": 1.0}, "amp"),
    ({"kind": "constant", "value": True}, "value"),
    ({"kind": "polynomial", "coeffs": [1.0, float("inf")]}, "coeffs[1]"),
    ({"kind": "polynomial", "coeffs": []}, "coeffs"),
    ({"kind": "tabulated", "times": [0.0, 1.0], "values": [1.0]}, "values"),
    ({"value": 1.0}, "kind"),
    (True, "value"),
    (float("inf"), "value"),
    ("1.0", "value"),
])
def test_from_config_strict_names_field(cfg, field):
    with pytest.raises(ValueError, match=r"^%s: " % field.replace("[", r"\[").replace("]", r"\]")):
        ScalarProfile.from_config(cfg)
