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

from .algebra import _REAL_PHASES, GeneratorId
from .numerics import _sort_real_imag
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
    """Coupled-oscillator Hamiltonian at time(s) ``t``, shape ``t.shape + (10,)``.
    No run calls it (runners call :func:`_h_coeffs` on profile values);
    ``perfbench/verify.py`` and CI's regime-map check keep it."""
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
    axis.  Kept verbatim as the published form; the trusted spectrum is
    :func:`instantaneous_eigenvalues`, the roots of the characteristic
    polynomial of the 2x2 block product BC, whose discriminant is
    a^2 ((omega_x - omega_y)^2 - 4 lam^2) / 4, not a multiple of
    Omega+^2 - 4 lam^2.  It is checked against the trace and determinant
    of the complex 4x4 M(H) by the regime map's ``spectrum_invariants``
    row, and the deviation between the two is reported by the cross-check
    suite, not asserted.
    """
    csqrt = np.lib.scimath.sqrt
    inner = csqrt(omega_plus**2 - 4.0 * lam**2)
    eps = []
    for outer in (+1.0, -1.0):
        for sign in (+1.0, -1.0):
            eps.append(outer * 0.5 * csqrt(a * omega_plus**2 + sign * a * inner))
    return _sort_real_imag(np.stack(eps, axis=-1))


def _bc_invariants(a, wx, wy, lam):
    """Trace, determinant and discriminant of the 2x2 block product BC
    (see :func:`instantaneous_eigenvalues`), from the profile values:

        tr BC   = -(a/2) (omega_x + omega_y),
        det BC  = (a/2)^2 (lam^2 + omega_x omega_y),
        disc    = tr^2 - 4 det = (a/2)^2 (d - 2 lam) (d + 2 lam),

    with d = omega_x - omega_y.  The discriminant is taken in that
    factored form, so its sign, which decides whether mu is real, is
    read from d -+ 2 lam and not from a difference of squares; it is 0
    exactly where d = +-2 lam.  Their rounding is counted in
    ``cli._spectrum_invariants``.
    """
    half_a = np.divide(a, 2.0)
    d = np.subtract(wx, wy)
    tr = -half_a * np.add(wx, wy)
    scale = np.multiply(half_a, half_a)  # not **: a numpy scalar's power rounds apart from the array's
    det = scale * (np.multiply(lam, lam) + np.multiply(wx, wy))
    disc = scale * ((d - 2.0 * lam) * (d + 2.0 * lam))
    return tr, det, disc


def instantaneous_eigenvalues(a, omega_x, omega_y, lam) -> np.ndarray:
    """Four instantaneous eigenvalues of M(H), sorted by (real, imag).

    The arguments are profile values, numbers or arrays of one shape (a
    scalar gives shape (4,), arrays their shape + (4,)); ValueError where
    one is not finite.
    In the real form A = D^-1 (-i M(H)) D the family has no
    position-momentum cross terms, so A = [[0, B], [C, 0]] in 2x2 blocks
    and A^2 = diag(BC, CB) (Van Loan's square-reduced form of a
    Hamiltonian matrix, Linear Algebra Appl. 61 (1984) 233, here an exact
    2x2 block): spec(M) = i spec(A) = +-i sqrt(mu) for the two roots mu of
    mu^2 - tr mu + det = 0, whose coefficients :func:`_bc_invariants`
    writes from the four profile values.  No matrix is formed and no
    eigensolver is called; every step is elementwise.

    The larger root is z1 = (tr + sgn(tr) sqrt(disc)) / 2, a sum without
    cancellation (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 1.8).  The other is z2 = det / z1 where
    omega_x omega_y >= 0: there det is a sum of two nonnegative terms,
    accurate relative to itself, and so is z2, however small.  Elsewhere
    det may cancel, and its rounding need not agree with that of disc:
    near the nilpotent point (omega_y = -omega_x, lam = |omega_x|, where
    tr = det = disc = 0) det / z1 would put an error of up to order
    sqrt(eps) rho^2 into z1 + z2 = tr.  There z2 = tr - z1, which keeps
    the sum of the roots to one rounding, their product to rounding of
    rho^4, and a complex pair exact conjugates.  Where det = 0, z2 = 0
    with no division: |z1|^2 >= |det|, so only there may z1 be 0, or so
    small (a = 1e-310, say) that 1/z1 overflows.  The error of both
    symmetric functions is derived in ``cli._spectrum_invariants``.
    :func:`eigenvalue_formula` is the published closed form.
    """
    if not all(np.isfinite(v).all() for v in (a, omega_x, omega_y, lam)):
        raise ValueError("a profile value on the grid is not finite")
    tr, det, disc = _bc_invariants(a, omega_x, omega_y, lam)
    z1 = (tr + np.copysign(1.0, tr) * np.sqrt(disc + 0j)) / 2.0
    z2 = np.where(np.multiply(omega_x, omega_y) >= 0, det / np.where(det == 0, 1.0, z1), tr - z1)
    eps = 1j * np.sqrt(np.stack([z1, z2], axis=-1))
    # + 0.0: negating an exactly zero part leaves -0.0
    return _sort_real_imag(np.concatenate([eps, -eps], axis=-1) + 0.0)


def _regime_index(omega_x, omega_y, lam):
    """Index into ``Regime`` (0 PT-symmetric, 1 exceptional point, 2 broken)
    by the sign of the discriminant Omega+^2 - 4 lam^2, from the profile
    values: an int array of their shape."""
    disc = (omega_x + omega_y) ** 2 - 4.0 * lam ** 2
    return np.where(np.abs(disc) <= REGIME_TOL, 1, np.where(disc > 0, 0, 2))


_REGIMES = np.array(list(Regime), dtype=object)
# their labels, a text column of the regime-map CSV
_REGIME_LABELS = np.array([r.value for r in Regime])


def classify_regime(p: CoupledOscillatorParams, t):
    """Regime by the sign of the discriminant Omega+^2 - 4 lam^2.

    Values within ``REGIME_TOL`` of zero classify as the exceptional point:
    the boundary is measure-zero, so it gets a band.  A scalar ``t``
    gives a :class:`Regime`, an array of times an object array of them
    with the shape of ``t``.  The thresholds are those of the published
    discriminant; the spectrum of :func:`instantaneous_eigenvalues`
    breaks where the discriminant of BC, a^2 ((omega_x - omega_y)^2 -
    4 lam^2) / 4 (:func:`_bc_invariants`), changes sign instead.
    """
    return _REGIMES[_regime_index(p.omega_x(t), p.omega_y(t), p.lam(t))]
