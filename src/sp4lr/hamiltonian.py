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

from .algebra import _REAL_PHASES, GeneratorId, _real_coordinates, _real_matrix
from .numerics import _sort_real_imag, eig4
from .profiles import ScalarProfile

__all__ = [
    "CoupledOscillatorParams",
    "REGIME_TOL",
    "Regime",
    "build_H_coeffs",
    "build_H_modified",
    "instantaneous_eigenvalues",
    "eigenvalue_formula",
    "classify_regime",
]

REGIME_TOL = 1e-9  # |Omega+^2 - 4 lam^2| at or below this is the exceptional point


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
        return cls(a=lam, omega_x=lam.scaled(alpha), omega_y=lam, lam=lam)


class Regime(Enum):
    PT_SYMMETRIC = "PTSymmetric"
    EXCEPTIONAL_POINT = "ExceptionalPoint"
    SPONTANEOUSLY_BROKEN = "SpontaneouslyBroken"


def _h_real(a, wx, wy, lam):
    """Real coordinates r = h conj(phi) of the coupled family's coefficients
    h (see ``algebra._REAL_BASIS``), written from the profile values: a
    float64 stack (10,) + their broadcast shape, coefficient-major.

    J0 and Q2 take a/2 +- Omega+/2, J3 and K1 +-Omega-/2, and J1 and K3
    lam, since (i lam)(-i) = lam exactly; every other coordinate is 0.
    Each written coordinate is the value plus 0.0, as the product with
    conj(phi) leaves it, so a zero reads +0.0 and the stack is bitwise
    what ``algebra._real_coordinates`` reads from the complex
    coefficients.  Raises ValueError where a coordinate is not finite.
    """
    r = np.zeros((10,) + np.broadcast(a, wx, wy, lam).shape)
    half_a, half_op, half_om = np.divide(a, 2.0), np.add(wx, wy) / 2.0, np.subtract(wx, wy) / 2.0
    for k, v in ((GeneratorId.J0, half_a + half_op), (GeneratorId.Q2, half_a - half_op),
                 (GeneratorId.J3, half_om), (GeneratorId.K1, -half_om),
                 (GeneratorId.J1, lam), (GeneratorId.K3, lam)):
        np.add(v, 0.0, out=r[k, ...])  # broadcast into the row
    if not np.isfinite(r).all():
        raise ValueError("the Hamiltonian coefficients on the grid are not finite")
    return r


def _h_coeffs(a, wx, wy, lam):
    """Coefficient stack (..., 10) for scalar or array profile values: phi r
    for the real coordinates r of :func:`_h_real`."""
    r = _h_real(a, wx, wy, lam)
    return np.multiply(_REAL_PHASES, r.transpose(tuple(range(1, r.ndim)) + (0,)), order="C")


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
    (:func:`instantaneous_eigenvalues`, from LAPACK on the 2x2 block
    product of the real form) is the trusted route, checked against the
    trace and determinant of the complex 4x4 M(H) by the regime map's
    ``spectrum_invariants`` row, and the deviation between the two is
    reported by the cross-check suite, not asserted.
    """
    csqrt = np.lib.scimath.sqrt
    inner = csqrt(omega_plus**2 - 4.0 * lam**2)
    eps = []
    for outer in (+1.0, -1.0):
        for sign in (+1.0, -1.0):
            eps.append(outer * 0.5 * csqrt(a * omega_plus**2 + sign * a * inner))
    return _sort_real_imag(np.stack(eps, axis=-1))


def instantaneous_eigenvalues(p: CoupledOscillatorParams, t) -> np.ndarray:
    """Four instantaneous eigenvalues of M(H), sorted by (real, imag).

    ``t`` is a scalar (shape (4,) result) or an array of times (shape
    ``t.shape + (4,)``).  The spectrum comes from the real form
    A = D^-1 (-i M(H)) D = sum_k r_k R_k of the real coordinates r of H
    (``algebra._real_coordinates``, which raises ValueError where an
    imaginary part would be dropped).  The family has no
    position-momentum cross terms, so A = [[0, B], [C, 0]] in 2x2 blocks;
    a diagonal block that is not exactly 0 raises ValueError.  Then
    A^2 = diag(BC, CB) (Van Loan's square-reduced form of a Hamiltonian
    matrix, Linear Algebra Appl. 61 (1984) 233, here an exact 2x2 block),
    so spec(A) = +-sqrt(spec(BC)) and spec(M) = i spec(A): one batched
    LAPACK call (:func:`sp4lr.numerics.eig4`) on the real (..., 2, 2)
    stack BC gives mu, and the eigenvalues are +-i sqrt(mu).
    :func:`eigenvalue_formula` is the published closed form.
    """
    a = _real_matrix(_real_coordinates(build_H_coeffs(p, t)))
    if np.any(a[..., :2, :2] != 0) or np.any(a[..., 2:, 2:] != 0):
        raise ValueError("the Hamiltonian has position-momentum cross terms: "
                         "-i M(H) is not block off-diagonal in the real form")
    root = np.sqrt(eig4(a[..., :2, 2:] @ a[..., 2:, :2]).astype(complex))
    eps = 1j * root
    # + 0.0: negating an exactly zero part leaves -0.0
    return _sort_real_imag(np.concatenate([eps, -eps], axis=-1) + 0.0)


def _regime_index(p: CoupledOscillatorParams, t):
    """Index into ``Regime`` (0 PT-symmetric, 1 exceptional point, 2 broken)
    by the sign of the discriminant Omega+^2 - 4 lam^2, an int array with
    the shape of ``t``."""
    disc = (p.omega_x(t) + p.omega_y(t)) ** 2 - 4.0 * p.lam(t) ** 2
    return np.where(np.abs(disc) <= REGIME_TOL, 1, np.where(disc > 0, 0, 2))


_REGIMES = np.array(list(Regime), dtype=object)


def classify_regime(p: CoupledOscillatorParams, t):
    """Regime by the sign of the discriminant Omega+^2 - 4 lam^2.

    Values within ``REGIME_TOL`` of zero classify as the exceptional point:
    the boundary is measure-zero, so it gets a band.  A scalar ``t``
    gives a :class:`Regime`, an array of times an object array of them
    with the shape of ``t``.  The thresholds are those of the published
    discriminant; the numeric spectrum breaks where the discriminant of
    BC (see :func:`instantaneous_eigenvalues`) changes sign instead.
    """
    return _REGIMES[_regime_index(p, t)]
