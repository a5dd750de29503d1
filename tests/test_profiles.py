"""Tests for scalar time profiles."""

import numpy as np
import pytest

from sp4lr.errors import ProfileDomain
from sp4lr.profiles import ScalarProfile


def test_constant():
    p = ScalarProfile.constant(2.5)
    assert p(0.3) == 2.5
    np.testing.assert_array_equal(p(np.array([0.0, 1.0])), [2.5, 2.5])


def test_sinusoid():
    p = ScalarProfile.sinusoid(0.2, 3.0, 0.5, 1.0)
    t = np.linspace(0, 2, 7)
    np.testing.assert_allclose(p(t), 0.2 * np.sin(3 * t + 0.5) + 1.0)


def test_polynomial():
    p = ScalarProfile.polynomial([1.0, -2.0, 3.0])
    assert p(2.0) == pytest.approx(1 - 4 + 12)


def test_tabulated_interpolates_and_refuses_extrapolation():
    p = ScalarProfile.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert p(0.5) == pytest.approx(1.0)
    with pytest.raises(ProfileDomain):
        p(2.5)
    with pytest.raises(ProfileDomain):
        p(np.array([-0.1, 0.5]))
    with pytest.raises(ProfileDomain):
        p.antiderivative(2.5, 0.0)


def test_antiderivative_cosine():
    p = ScalarProfile.sinusoid(1.0, 1.0, np.pi / 2.0)  # cos(t)
    grid = np.linspace(0.0, np.pi / 2.0, 201)
    np.testing.assert_allclose(p.antiderivative(grid, 0.0), np.sin(grid), atol=1e-10)


def test_antiderivative_tabulated_exact_for_interpolant():
    p = ScalarProfile.tabulated([0.0, 1.0, 3.0], [1.0, 3.0, -1.0])
    # the knot at 1 lies inside the [0, 2] step: a trapezoid over the
    # samples alone would give 2.0
    for grid, want in (([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.75, 2.0, 4.0, 4.0]),
                       ([0.0, 2.0], [0.0, 4.0])):
        np.testing.assert_allclose(p.antiderivative(np.array(grid), 0.0), want)


def _interpolant_integral(t):
    # int_0^t of the interpolant of ([0, 1, 3], [1, 3, -1]), by segment
    return np.where(t <= 1.0, t + t**2, 2.0 + 3.0 * (t - 1.0) - (t - 1.0) ** 2)


@pytest.mark.parametrize("profile, integral", [
    (ScalarProfile.constant(2.5), lambda t: 2.5 * t),
    (ScalarProfile.sinusoid(0.7, 3.0, 0.4, 1.2),
     lambda t: -0.7 / 3.0 * np.cos(3.0 * t + 0.4) + 1.2 * t),
    (ScalarProfile.sinusoid(0.7, 0.0, 0.4, 1.2), lambda t: (0.7 * np.sin(0.4) + 1.2) * t),
    (ScalarProfile.polynomial([1.0, -2.0, 3.0]), lambda t: t - t**2 + t**3),
    (ScalarProfile.tabulated([0.0, 1.0, 3.0], [1.0, 3.0, -1.0]), _interpolant_integral),
], ids=["constant", "sinusoid", "sinusoid-freq-0", "polynomial", "tabulated"])
def test_antiderivative_exact_per_kind(profile, integral):
    start = 0.6
    t = np.array([1.7, 0.2, 2.9, 0.0, 1.0, 0.6])  # unsorted, one sample at start
    np.testing.assert_allclose(profile.antiderivative(t, start), integral(t) - integral(start),
                               rtol=0, atol=1e-14)
    assert abs(profile.antiderivative(2.3, start) - (integral(2.3) - integral(start))) <= 1e-14


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


@pytest.mark.parametrize("profile", [
    ScalarProfile.constant(2.5),
    ScalarProfile.sinusoid(0.7, 3.0, 0.4, 1.2),
    ScalarProfile.polynomial([1.0, -2.0, 3.0]),
    ScalarProfile.tabulated([0.0, 1.0, 3.0], [1.0, 3.0, -1.0]),
], ids=["constant", "sinusoid", "polynomial", "tabulated"])
def test_scaled_profile_is_the_multiple(profile):
    alpha = -1.7
    scaled = profile.scaled(alpha)
    assert scaled.kind == profile.kind
    t = np.array([1.7, 0.2, 2.9, 0.0, 1.0, 0.6])
    np.testing.assert_allclose(scaled(t), alpha * profile(t), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(scaled.antiderivative(t, 0.6), alpha * profile.antiderivative(t, 0.6),
                               rtol=1e-15, atol=1e-15)
