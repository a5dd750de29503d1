"""Time-dependent PT-symmetric coupled-oscillator Hamiltonians.

Two families are built as algebra elements:

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

from .algebra import AlgebraElement, GeneratorId, to_matrix
from .numerics import _sort_real_imag, eig4
from .profiles import ScalarProfile

__all__ = [
    "CoupledOscillatorParams",
    "Regime",
    "build_H",
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


def build_H(p: CoupledOscillatorParams, t: float) -> AlgebraElement:
    """Coupled-oscillator Hamiltonian at time ``t`` as an algebra element."""
    return AlgebraElement(_h_coeffs(p.a(t), p.omega_x(t), p.omega_y(t), p.lam(t)))


def build_H_coeffs(p: CoupledOscillatorParams, tgrid) -> np.ndarray:
    """Vectorized coefficients of :func:`build_H` over a time grid, shape (N, 10)."""
    t = np.asarray(tgrid, dtype=float)
    return _h_coeffs(p.a(t), p.omega_x(t), p.omega_y(t), p.lam(t))


def build_H_modified(a, b, lam, t=None) -> AlgebraElement | np.ndarray:
    """Modified pair a (J3+J0) + b (J0-J3) + i lam (J1+K3).

    ``a``, ``b``, ``lam`` may be profiles (then ``t`` is required) or
    plain numbers/arrays (then ``t`` is ignored).  Array inputs return a
    coefficient stack.
    """
    if isinstance(a, ScalarProfile):
        a, b, lam = a(t), b(t), lam(t)
    a, b, lam = np.broadcast_arrays(a, b, lam)
    c = np.zeros(np.shape(a) + (10,), dtype=complex)
    c[..., GeneratorId.J0] = a + np.asarray(b, dtype=float)
    c[..., GeneratorId.J3] = np.asarray(a, dtype=float) - b
    c[..., GeneratorId.J1] = 1j * lam
    c[..., GeneratorId.K3] = 1j * lam
    if c.ndim == 1:
        return AlgebraElement(c)
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


def classify_regime(p: CoupledOscillatorParams, t: float,
                    tol: float = 1e-9) -> Regime:
    """Regime by the sign of the discriminant Omega+^2 - 4 lam^2.

    Values within ``tol`` of zero classify as the exceptional point; the
    boundary is measure-zero so callers get a configurable band.
    """
    disc = (p.omega_x(t) + p.omega_y(t)) ** 2 - 4.0 * p.lam(t) ** 2
    if abs(disc) <= tol:
        return Regime.EXCEPTIONAL_POINT
    return Regime.PT_SYMMETRIC if disc > 0 else Regime.SPONTANEOUSLY_BROKEN
