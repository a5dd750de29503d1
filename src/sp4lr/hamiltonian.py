"""Time-dependent PT-symmetric coupled-oscillator Hamiltonians.

Two families are built as coefficient arrays over the sp(4) basis:

* the spatially coupled pair with common kinetic coefficient,
  expanded as  (a/2)(J0+Q2) + (Omega+/2)(J0-Q2) + (Omega-/2)(J3-K1)
  + i lambda (J1+K3)  with Omega+- = omega_x +- omega_y;
* the modified pair  a (J3+J0) + b (J0-J3) + i lambda (J1+K3)  used as
  the target of the point-transformation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import GeneratorId, to_matrix
from .numerics import _sort_real_imag, eig4
from .profiles import ScalarProfile

__all__ = [
    "CoupledOscillatorParams",
    "Regime",
    "build_H_coeffs",
    "build_H_modified",
    "instantaneous_eigenvalues",
    "eigenvalue_formula",
    "classify_regime",
]


@dataclass(frozen=True)
class CoupledOscillatorParams:
    """Profiles (a, omega_x, omega_y, lam) of the coupled-oscillator family."""

    a: ScalarProfile
    omega_x: ScalarProfile
    omega_y: ScalarProfile
    lam: ScalarProfile

    @classmethod
    def proportional(cls, alpha: float, lam: ScalarProfile) -> "CoupledOscillatorParams":
        """a = lam, omega_x = alpha*lam, omega_y = lam (commuting family)."""
        if lam.kind == "constant":
            ax = ScalarProfile.constant(alpha * lam.args["value"])
        elif lam.kind == "sinusoid":
            s = lam.args
            if s["offset"] != 0.0:
                ax = ScalarProfile.sinusoid(alpha * s["amp"], s["freq"], s["phase"], alpha * s["offset"])
            else:
                ax = ScalarProfile.sinusoid(alpha * s["amp"], s["freq"], s["phase"])
        elif lam.kind == "polynomial":
            ax = ScalarProfile.polynomial([alpha * c for c in lam.args["coeffs"]])
        else:
            ax = ScalarProfile.tabulated(lam.args["times"], [alpha * v for v in lam.args["values"]])
        return cls(a=lam, omega_x=ax, omega_y=lam, lam=lam)


class Regime(Enum):
    PT_SYMMETRIC = "PTSymmetric"
    EXCEPTIONAL_POINT = "ExceptionalPoint"
    SPONTANEOUSLY_BROKEN = "SpontaneouslyBroken"


def _h_coeffs(a, wx, wy, lam):
    """Coefficient stack for scalar or array profile values."""
    a, wx, wy, lam = np.broadcast_arrays(a, wx, wy, lam)
    op, om = wx + wy, wx - wy
    c = np.zeros(np.shape(a) + (10,), dtype=complex)
    c[..., GeneratorId.J0] = a / 2.0 + op / 2.0
    c[..., GeneratorId.Q2] = a / 2.0 - op / 2.0
    c[..., GeneratorId.J3] = om / 2.0
    c[..., GeneratorId.K1] = -om / 2.0
    c[..., GeneratorId.J1] = 1j * lam
    c[..., GeneratorId.K3] = 1j * lam
    return c


def build_H_coeffs(p: CoupledOscillatorParams, t) -> np.ndarray:
    """Coupled-oscillator Hamiltonian at time(s) ``t``, shape ``t.shape + (10,)``."""
    t = np.asarray(t, dtype=float)
    return _h_coeffs(p.a(t), p.omega_x(t), p.omega_y(t), p.lam(t))


def build_H_modified(a, b, lam) -> np.ndarray:
    """Modified pair a (J3+J0) + b (J0-J3) + i lam (J1+K3).

    ``a``, ``b``, ``lam`` are numbers or arrays (profile values already
    evaluated); the result has their broadcast shape + (10,).
    """
    a, b, lam = np.broadcast_arrays(a, b, lam)
    c = np.zeros(np.shape(a) + (10,), dtype=complex)
    c[..., GeneratorId.J0] = a + np.asarray(b, dtype=float)
    c[..., GeneratorId.J3] = np.asarray(a, dtype=float) - b
    c[..., GeneratorId.J1] = 1j * lam
    c[..., GeneratorId.K3] = 1j * lam
    return c


def eigenvalue_formula(a, omega_plus, lam) -> np.ndarray:
    """Closed-form instantaneous eigenvalues, evaluated verbatim.

    epsilon(+-,+-) = +-(1/2) [a*Omega+^2 +- a*sqrt(Omega+^2 - 4 lam^2)]^(1/2)
    on principal complex branches, sorted by (real, imag) along the last
    axis.  Kept verbatim as the published form; the numeric spectrum
    (:func:`sp4lr.numerics.eig4`, LAPACK through numpy) is the trusted
    oracle and the deviation between the two is reported by the
    cross-check suite, not asserted.
    """
    csqrt = np.lib.scimath.sqrt
    inner = csqrt(omega_plus**2 - 4.0 * lam**2)
    eps = []
    for outer in (+1.0, -1.0):
        for sign in (+1.0, -1.0):
            eps.append(outer * 0.5 * csqrt(a * omega_plus**2 + sign * a * inner))
    return _sort_real_imag(np.stack(eps, axis=-1))


def instantaneous_eigenvalues(p: CoupledOscillatorParams, t,
                              method: str = "numeric") -> np.ndarray:
    """Four instantaneous eigenvalues, sorted by (real, imag).

    ``t`` is a scalar (shape (4,) result) or an array of times (shape
    ``t.shape + (4,)``).  ``numeric`` diagonalizes the 4x4 matrix
    representation with LAPACK through numpy, one batched call for the
    whole grid (the trusted route); ``formula`` evaluates
    :func:`eigenvalue_formula`.
    """
    if method == "numeric":
        return eig4(to_matrix(build_H_coeffs(p, t)))
    if method == "formula":
        return eigenvalue_formula(p.a(t), p.omega_x(t) + p.omega_y(t), p.lam(t))
    raise ValueError("method must be 'numeric' or 'formula'")


def classify_regime(p: CoupledOscillatorParams, t, tol: float = 1e-9):
    """Regime by the sign of the discriminant Omega+^2 - 4 lam^2.

    Values within ``tol`` of zero classify as the exceptional point; the
    boundary is measure-zero so callers get a configurable band.  A
    scalar ``t`` gives a :class:`Regime`, an array of times an object
    array of them with the shape of ``t``.
    """
    disc = (p.omega_x(t) + p.omega_y(t)) ** 2 - 4.0 * p.lam(t) ** 2
    regimes = np.array([Regime.PT_SYMMETRIC, Regime.EXCEPTIONAL_POINT,
                        Regime.SPONTANEOUSLY_BROKEN], dtype=object)
    return regimes[np.where(np.abs(disc) <= tol, 1, np.where(disc > 0, 0, 2))]
