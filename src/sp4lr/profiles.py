"""Real-valued time profiles for the oscillator coefficient functions.

A :class:`ScalarProfile` is one of four kinds: constant, sinusoid
``amp*sin(freq*t + phase) + offset``, polynomial, or a linearly
interpolated table.  Tabulated profiles refuse extrapolation.  Every
kind integrates in closed form, so the antiderivative is exact at any
times (for a table, the exact integral of its interpolant).
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, ProfileDomain

__all__ = ["Field", "PROFILE_KINDS", "REQUIRED", "ScalarProfile"]

REQUIRED = "required"


class Field(NamedTuple):
    """One config value: its type, its default (REQUIRED if it has none)
    and, for a choice or a pinned number, the values it may take."""

    type: str  # a key of _EXPECTED, "choice" or "profile" (ScalarProfile.from_config)
    default: object = REQUIRED
    one_of: tuple = ()

    def pick(self, mapping, name, path):
        """``mapping[name]`` checked, or the default when it is absent."""
        if name in mapping:
            return self.check(mapping[name], path)
        if self.default is REQUIRED:
            raise ConfigInvalid("%s: missing" % path)
        return self.default

    def check(self, value, path):
        """``value`` in this field's type; ConfigInvalid("<path>: ...") if it is not."""
        if self.type == "profile":
            try:
                return ScalarProfile.from_config(value)
            except ValueError as exc:
                raise ConfigInvalid("%s.%s" % (path, exc)) from None
        if self.type == "numbers":
            ok, item = isinstance(value, list) and len(value) > 0, Field("number")
        elif self.type == "pairs":
            ok = isinstance(value, list) and len(value) == 10 and all(
                isinstance(v, list) and len(v) == 2 for v in value)
            item = Field("numbers")
        elif self.type == "choice":
            ok = value in self.one_of
        else:  # abs() <= max rules out NaN, inf and ints past the float range
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and abs(value) <= sys.float_info.max
                  and (self.type != "integer" or value == int(value))
                  and (not self.one_of or value in self.one_of))
        if not ok:
            expected = "one of %s" % (list(self.one_of),) if self.one_of else _EXPECTED[self.type]
            raise ConfigInvalid("%s: expected %s, got %r" % (path, expected, value))
        if self.type in ("numbers", "pairs"):
            return [item.check(v, "%s[%d]" % (path, k)) for k, v in enumerate(value)]
        if self.type == "choice":
            return value
        return int(value) if self.type == "integer" else float(value)

    def describe(self):
        """This field as ``sp4lr run --describe`` prints it."""
        out = {k: v for k, v in self._asdict().items() if v is not REQUIRED and v != ()}
        return {**out, "required": self.default is REQUIRED}


_EXPECTED = {"number": "a finite number", "integer": "an integer",
             "numbers": "a non-empty list of numbers", "pairs": "a list of 10 [re, im] pairs"}


# The fields of each profile kind.  A bare number in a config is a constant.
PROFILE_KINDS = {
    "constant": {"value": Field("number")},
    "sinusoid": {"amp": Field("number"), "freq": Field("number"),
                 "phase": Field("number", 0.0), "offset": Field("number", 0.0)},
    "polynomial": {"coeffs": Field("numbers")},  # coeffs[k] multiplies t**k
    "tabulated": {"times": Field("numbers"), "values": Field("numbers")},
}


class ScalarProfile:
    """Real function of time with an exact antiderivative."""

    def __init__(self, kind: str, **args):
        if kind not in PROFILE_KINDS:
            raise ValueError("kind: unknown profile kind %r" % kind)
        self.kind = kind
        self.args = args
        if kind == "tabulated":
            t = np.asarray(args["times"], dtype=float)
            v = np.asarray(args["values"], dtype=float)
            if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
                raise ValueError("values: need as many as times, and at least 2")
            if np.any(np.diff(t) <= 0):
                raise ValueError("times: must be strictly increasing")
            self._t, self._v = t, v
            self._slopes = np.diff(v) / np.diff(t)
            # integral of the interpolant from the first knot to each knot
            self._at_knots = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])

    # -- constructors ------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "ScalarProfile":
        return cls("constant", value=float(value))

    @classmethod
    def sinusoid(cls, amp: float, freq: float, phase: float = 0.0,
                 offset: float = 0.0) -> "ScalarProfile":
        return cls("sinusoid", amp=float(amp), freq=float(freq),
                   phase=float(phase), offset=float(offset))

    @classmethod
    def polynomial(cls, coeffs) -> "ScalarProfile":
        # coeffs[k] multiplies t**k
        return cls("polynomial", coeffs=[float(c) for c in coeffs])

    @classmethod
    def tabulated(cls, times, values) -> "ScalarProfile":
        return cls("tabulated", times=list(map(float, times)),
                   values=list(map(float, values)))

    @classmethod
    def from_config(cls, cfg) -> "ScalarProfile":
        """Build from a bare number (a constant) or a mapping {"kind": ..., ...}.

        The fields of each kind are those of ``PROFILE_KINDS``.  An unknown
        kind or field, a missing field, a bool or a non-finite number raise
        ConfigInvalid (a ValueError) whose message starts with the field
        ("amp: ...").
        """
        if not isinstance(cfg, dict):
            return cls.constant(Field("number").check(cfg, "value"))
        kind = Field("choice", one_of=tuple(PROFILE_KINDS)).check(cfg.get("kind"), "kind")
        fields = PROFILE_KINDS[kind]
        unknown = sorted(set(cfg) - set(fields) - {"kind"})
        if unknown:
            raise ConfigInvalid("%s: unknown field of a %s profile" % (unknown[0], kind))
        return cls(kind, **{name: f.pick(cfg, name, name) for name, f in fields.items()})

    def to_config(self):
        return {"kind": self.kind, **self.args}

    def scaled(self, factor: float) -> "ScalarProfile":
        """factor * self, of the same kind: the fields it is linear in are multiplied."""
        linear = {"constant": ("value",), "sinusoid": ("amp", "offset"),
                  "polynomial": ("coeffs",), "tabulated": ("values",)}[self.kind]
        args = {name: np.multiply(factor, v).tolist() if name in linear else v
                for name, v in self.args.items()}
        return ScalarProfile(self.kind, **args)

    # -- evaluation --------------------------------------------------
    def _check_domain(self, t):
        if self.kind != "tabulated":
            return
        t = np.asarray(t, dtype=float)
        eps = 1e-12 * max(1.0, abs(self._t[0]), abs(self._t[-1]))
        if np.any(t < self._t[0] - eps) or np.any(t > self._t[-1] + eps):
            raise ProfileDomain(
                "t outside tabulated window [%g, %g]" % (self._t[0], self._t[-1])
            )

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.args["value"], dtype=float) if t.ndim else float(self.args["value"])
        if self.kind == "sinusoid":
            s = self.args
            return s["amp"] * np.sin(s["freq"] * t + s["phase"]) + s["offset"]
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(t, self.args["coeffs"])
        self._check_domain(t)
        return np.interp(t, self._t, self._v)

    def _segment(self, t):
        """Index of the table segment holding each ``t``."""
        self._check_domain(t)
        return np.clip(np.searchsorted(self._t, t, side="right") - 1, 0, self._slopes.size - 1)

    def antiderivative(self, t, start):
        """Exact integral from ``start`` to each of the times ``t``.

        ``t`` may be a scalar or an array in any order; ``start`` is a scalar.
        """
        t = np.asarray(t, dtype=float)
        h = t - start
        if self.kind == "constant":
            return self.args["value"] * h
        if self.kind == "sinusoid":
            # amp/f (cos(f s + phase) - cos(f t + phase)), written without
            # the cancellation at small f h and finite at f = 0
            s = self.args
            return (s["amp"] * h * np.sinc(s["freq"] * h / (2.0 * np.pi))
                    * np.sin(s["freq"] * (t + start) / 2.0 + s["phase"]) + s["offset"] * h)
        if self.kind == "polynomial":
            return np.polynomial.Polynomial(self.args["coeffs"]).integ(lbnd=start)(t)
        return self._table_integral(t) - self._table_integral(start)

    def _table_integral(self, t):
        """Integral of the interpolant from the first knot to ``t``."""
        idx = self._segment(t)
        d = t - self._t[idx]
        return self._at_knots[idx] + d * (self._v[idx] + 0.5 * self._slopes[idx] * d)
