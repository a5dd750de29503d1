"""The symplectic sp(4) Lie algebra used throughout the package.

Ten generators J0, J1, J2, J3, Q1, Q2, Q3, K1, K2, K3 in a frozen order,
with three faces kept in exact correspondence:

* the 4x4 defining representation (matrices M with Omega M + M^T Omega = 0),
* the coordinate representation as quadratic operators in (x, y, px, py),
* structure constants generated from the matrices, never hand-typed.

An algebra element is its complex coefficient array over that basis,
shape (10,), or a stack of them, shape (..., 10); ``GeneratorId`` is an
``IntEnum`` and indexes the last axis (``h[..., GeneratorId.J1]``).
Every function here takes and returns such arrays.

The bridge between the first two is ``M = i Omega S`` where S is the
symmetric (Weyl-ordered) quadratic-form matrix of the operator over
z = (x, y, px, py).  Because (i Omega)^2 = 1 the same formula inverts
itself: ``S = i Omega M``.

Two entries of the published generator set fail the adjudicating
identities and are corrected here (see ``REJECTED_VARIANTS``): the J2
matrix must be Hermitian, (1/2) diag(sigma2, sigma2), for the
commutation table to close, and the K1 quadratic must carry +y^2 for
[K1, Q1] = i J0 to hold.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import ProjectionLeak
from .numerics import PROJ_TOL, expm, frobenius

__all__ = [
    "GeneratorId",
    "GENERATOR_NAMES",
    "OMEGA",
    "matrix_of",
    "generator_matrices",
    "quadratic_form_of",
    "structure_constants",
    "commutator",
    "to_matrix",
    "from_matrix",
    "quadratic_form",
    "from_quadratic_form",
    "adjoint",
    "pt_map",
    "conjugate_by",
    "group_conjugate",
    "symplectic_inverse",
    "parity_matrix",
    "parity_action",
    "REJECTED_VARIANTS",
]


class GeneratorId(IntEnum):
    J0 = 0
    J1 = 1
    J2 = 2
    J3 = 3
    Q1 = 4
    Q2 = 5
    Q3 = 6
    K1 = 7
    K2 = 8
    K3 = 9


GENERATOR_NAMES = tuple(g.name for g in GeneratorId)

_I2 = np.eye(2, dtype=complex)
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)


def _blk(a, b, c, d):
    return np.block([[a, b], [c, d]])


OMEGA = _blk(_Z2, _I2, -_I2, _Z2)

_GEN = np.stack([
    0.5j * _blk(_Z2, _I2, -_I2, _Z2),     # J0
    0.5j * _blk(_Z2, _S1, -_S1, _Z2),     # J1
    0.5 * _blk(_S2, _Z2, _Z2, _S2),       # J2 (Hermitian; see REJECTED_VARIANTS)
    0.5j * _blk(_Z2, _S3, -_S3, _Z2),     # J3
    0.5j * _blk(-_S3, _Z2, _Z2, _S3),     # Q1
    0.5j * _blk(_Z2, _I2, _I2, _Z2),      # Q2
    0.5j * _blk(_S1, _Z2, _Z2, -_S1),     # Q3
    0.5j * _blk(_Z2, _S3, _S3, _Z2),      # K1
    0.5j * _blk(_I2, _Z2, _Z2, -_I2),     # K2
    -0.5j * _blk(_Z2, _S1, _S1, _Z2),     # K3
])
_GEN.setflags(write=False)

# Candidate generator forms that fail the adjudicating identities.  They
# are kept only so the cross-check suite can demonstrate that the
# adjudication machinery flags them; nothing else uses them.
REJECTED_VARIANTS = {
    # anti-Hermitian scaling of J2: breaks [J1, J2] = i J3 (and 44 others)
    "J2_antihermitian": 0.5j * _blk(_S2, _Z2, _Z2, _S2),
}

_GENF = _GEN.reshape(10, 16)
_GRAM = _GENF.conj() @ _GENF.T  # Hilbert-Schmidt Gram matrix of the basis
_GRAM_INV = np.linalg.inv(_GRAM)

# sign tables of the antilinear algebra symmetries (applied with
# coefficient conjugation): order J0 J1 J2 J3 Q1 Q2 Q3 K1 K2 K3
_PT_SIGNS = np.array([1, -1, 1, 1, -1, 1, 1, 1, -1, -1], dtype=float)
_PT_TILDE_SIGNS = np.array([-1, 1, 1, -1, -1, -1, 1, -1, -1, 1], dtype=float)

# phase-space reflection (y, py) -> (-y, -py); the parity consistent
# with the PT sign table above and with P H P = H^dagger for the
# oscillator Hamiltonians built in this package
_PARITY_REFLECTION = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


def matrix_of(g) -> np.ndarray:
    """4x4 defining-representation matrix of a generator."""
    return _GEN[int(GeneratorId[g] if isinstance(g, str) else GeneratorId(g))].copy()


def generator_matrices() -> np.ndarray:
    """All ten generator matrices as a read-only (10, 4, 4) stack."""
    return _GEN


def quadratic_form_of(g) -> np.ndarray:
    """Symmetric quadratic-form matrix S of a generator over z = (x, y, px, py).

    Defined through the bridge S = i Omega M, so the coordinate
    representation is generated from the matrices rather than typed in.
    """
    return (1j * OMEGA @ matrix_of(g)).real.copy()


def to_matrix(e) -> np.ndarray:
    """Linear combination of the generator matrices; accepts stacks (..., 10)."""
    return np.tensordot(np.asarray(e, dtype=complex), _GEN, axes=(-1, 0))


def from_matrix(m, return_residual: bool = True):
    """Least-squares projection onto the generator span.

    Uses the precomputed Hilbert-Schmidt Gram matrix of the basis.
    Accepts stacks (..., 4, 4).  Returns ``(coeffs, residual)`` where the
    residual is the Frobenius norm of the unrepresentable remainder; pass
    ``return_residual=False`` to get the coefficients only.
    """
    a = np.asarray(m, dtype=complex)
    flat = a.reshape(a.shape[:-2] + (16,))
    rhs = flat @ _GENF.conj().T
    coeffs = rhs @ _GRAM_INV.T
    if not return_residual:
        return coeffs
    recon = np.tensordot(coeffs, _GEN, axes=(-1, 0))
    resid = frobenius(a - recon)
    return coeffs, resid


def quadratic_form(e) -> np.ndarray:
    """Symmetric quadratic-form matrix S with element = (1/2) z^T S z."""
    return 1j * OMEGA @ to_matrix(e)


def from_quadratic_form(s, return_residual: bool = True):
    """Inverse of :func:`quadratic_form` (same +i Omega bridge both ways)."""
    m = 1j * np.einsum("ij,...jk->...ik", OMEGA, np.asarray(s, dtype=complex))
    return from_matrix(m, return_residual=return_residual)


_STRUCTURE = None


def structure_constants() -> np.ndarray:
    """Structure tensor f with [X_i, X_j] = sum_k f[i, j, k] X_k.

    Generated once from the matrix representation; the matrices are the
    ground truth and the published commutation table is enforced in the
    test suite instead of being typed in here.
    """
    global _STRUCTURE
    if _STRUCTURE is None:
        f = np.zeros((10, 10, 10), dtype=complex)
        for i in range(10):
            for j in range(10):
                c, r = from_matrix(_GEN[i] @ _GEN[j] - _GEN[j] @ _GEN[i])
                if r > 1e-12:
                    raise ProjectionLeak("generator commutator left the algebra span")
                f[i, j] = c
        f.setflags(write=False)
        _STRUCTURE = f
    return _STRUCTURE


def commutator(a, b) -> np.ndarray:
    """Lie bracket by bilinear expansion over the structure constants.

    ``a`` and ``b`` are coefficient arrays (..., 10); their leading axes
    broadcast sample-wise against each other.
    """
    ca, cb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.einsum("...i,...j,ijk->...k", ca, cb, structure_constants())


def adjoint(e) -> np.ndarray:
    """Operator adjoint in the coordinate representation: conjugate coefficients.

    An element is Hermitian as an operator when its coefficients are
    real; that is not Hermiticity of its 4x4 matrix (the Q and K
    matrices are anti-Hermitian).
    """
    return np.asarray(e, dtype=complex).conj()


def pt_map(e, variant: str = "PT") -> np.ndarray:
    """Antilinear PT (or PT-tilde) symmetry: per-generator sign flip plus conjugation."""
    signs = {"PT": _PT_SIGNS, "PT_tilde": _PT_TILDE_SIGNS}[variant]
    return np.asarray(e, dtype=complex).conj() * signs


def pt_signs(variant: str = "PT") -> np.ndarray:
    return {"PT": _PT_SIGNS, "PT_tilde": _PT_TILDE_SIGNS}[variant].copy()


def symplectic_inverse(g) -> np.ndarray:
    """Inverse of a group element g in Sp(4, C), or of a stack (..., 4, 4).

    g^T Omega g = Omega gives g^-1 = -Omega g^T Omega exactly; no solve
    and no second exponential.  For a matrix that is only approximately
    symplectic (an ``expm`` of an algebra element, say) the deviation of
    g @ symplectic_inverse(g) from the identity measures that defect.
    """
    return -OMEGA @ np.swapaxes(np.asarray(g), -1, -2) @ OMEGA


def conjugate_by(g, e, proj_tol: float = PROJ_TOL) -> np.ndarray:
    """Adjoint action g e g^-1 of a group element g in Sp(4, C).

    ``g`` is a 4x4 matrix or a stack (N, 4, 4) paired with one element
    or with one element per sample; g^-1 is :func:`symplectic_inverse`.
    Raises :class:`ProjectionLeak` if the result does not project back
    onto the algebra within ``proj_tol`` (signals a non-symplectic ``g``
    or a numerical defect; the adjoint action itself preserves the span).
    """
    coeffs, resid = from_matrix(g @ to_matrix(e) @ symplectic_inverse(g))
    if np.max(resid) > proj_tol:
        raise ProjectionLeak("conjugation residual %.3e exceeds %.3e" % (float(np.max(resid)), proj_tol))
    return coeffs


def group_conjugate(exponent, e, proj_tol: float = PROJ_TOL) -> np.ndarray:
    """Adjoint action exp(X) e exp(-X) computed in the 4x4 representation.

    X lies in the algebra, so exp(X) lies in Sp(4, C) and exp(-X) is its
    symplectic inverse: one exponential per call, then
    :func:`conjugate_by`, whose :class:`ProjectionLeak` check applies.
    """
    return conjugate_by(expm(to_matrix(exponent)), e, proj_tol)


def parity_matrix(convention: str = "reflection") -> np.ndarray:
    """4x4 matrix implementing parity under each supported convention.

    ``reflection``
        The phase-space reflection diag(1, -1, 1, -1), i.e. (y, py) ->
        (-y, -py).  This is the convention whose adjoint action matches
        the PT sign table and satisfies P H P = H^dagger for the
        coupled-oscillator Hamiltonians; it is the default.
    ``two_j3``
        The matrix 2*J3 (an involution, (2 J3)^2 = 1).
    ``exp_j3``
        exp(i pi J3); equals i times ``two_j3``, so its adjoint action
        coincides with ``two_j3``.

    The three candidates do not all act alike; the cross-check report
    records their per-generator sign tables.
    """
    if convention == "reflection":
        return _PARITY_REFLECTION.copy()
    if convention == "two_j3":
        return 2.0 * matrix_of("J3")
    if convention == "exp_j3":
        return expm(1j * np.pi * matrix_of("J3"))
    raise ValueError("unknown parity convention %r" % convention)


def parity_action(e, convention: str = "reflection") -> np.ndarray:
    """Conjugate by the parity matrix and project back onto the algebra.

    ``e`` is one element (10,) or a stack (..., 10); raises
    :class:`ProjectionLeak` if an image leaves the span by more than
    ``PROJ_TOL``.
    """
    p = parity_matrix(convention)
    pinv = np.linalg.inv(p)
    coeffs, resid = from_matrix(p @ to_matrix(e) @ pinv)
    if np.max(resid) > PROJ_TOL:
        raise ProjectionLeak("parity conjugation residual %.3e exceeds %.3e"
                             % (float(np.max(resid)), PROJ_TOL))
    return coeffs
