"""The symplectic sp(4) Lie algebra used throughout the package.

Ten generators J0, J1, J2, J3, Q1, Q2, Q3, K1, K2, K3 in a frozen order,
with three faces kept in exact correspondence:

* the 4x4 defining representation (matrices M with Omega M + M^T Omega = 0),
* the coordinate representation as quadratic operators in (x, y, px, py),
* structure constants generated from the matrices, never hand-typed.

The basis is orthonormal in the Hilbert-Schmidt inner product, so a 4x4
matrix is read back by its inner products with it, in one projection
helper with one leak check on the remainder; the structure tensor and
its bracket tables are built once, at import.

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
from .numerics import PROJ_TOL

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

# Omega is a signed permutation, Omega @ x = _SIGNS[:, None] * x[_SWAP, :]:
# it swaps the two row blocks of x and negates the new lower one, so the
# products with it are index moves and sign flips, exact and without a
# matrix product
_SWAP = np.array([2, 3, 0, 1])
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_TABLE = np.outer(_SIGNS, _SIGNS)  # real, so a real stack stays real

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

# rows orthonormal in the Hilbert-Schmidt inner product: _GENF.conj() @ _GENF.T
# is the identity, exactly
_GENF = _GEN.reshape(10, 16)

# sign tables of the antilinear algebra symmetries (applied with
# coefficient conjugation): order J0 J1 J2 J3 Q1 Q2 Q3 K1 K2 K3
_PT_SIGNS = {
    "PT": np.array([1, -1, 1, 1, -1, 1, 1, 1, -1, -1], dtype=float),
    "PT_tilde": np.array([-1, 1, 1, -1, -1, -1, 1, -1, -1, 1], dtype=float),
}

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
    return _i_omega(matrix_of(g)).real.copy()


def to_matrix(e) -> np.ndarray:
    """Linear combination of the generator matrices; accepts stacks (..., 10)."""
    return np.tensordot(np.asarray(e, dtype=complex), _GEN, axes=(-1, 0))


def _project(flat, basis):
    """Coordinates (..., 10) of flattened 4x4 matrices ``flat`` (..., 16) over an
    orthonormal ``basis`` (10, 16), and the Frobenius norm of each remainder.

    Many matrices per sample go in as one 2-D (rows, 16) stack: numpy's
    stacked (n, m, 16) product is slower.
    """
    coords = flat @ basis.conj().T
    rem = flat - coords @ basis
    return coords, np.sqrt(np.einsum("...i,...i->...", rem, rem.conj()).real)


def _check_leak(resid, what: str) -> None:
    """Raise :class:`ProjectionLeak` unless every remainder is at most ``PROJ_TOL`` (so finite)."""
    worst = np.max(resid)
    if not worst <= PROJ_TOL:
        raise ProjectionLeak("%s residual %.3e exceeds %.3e" % (what, float(worst), PROJ_TOL))


def from_matrix(m, return_residual: bool = True):
    """Orthogonal projection onto the generator span: inner products with
    the orthonormal generator basis.  Accepts stacks (..., 4, 4).  Returns
    ``(coeffs, residual)`` where the residual is the Frobenius norm of the
    unrepresentable remainder; pass ``return_residual=False`` to get the
    coefficients only.
    """
    a = np.asarray(m, dtype=complex)
    flat = a.reshape(a.shape[:-2] + (16,))
    if not return_residual:
        return flat @ _GENF.conj().T
    return _project(flat, _GENF)


def quadratic_form(e) -> np.ndarray:
    """Symmetric quadratic-form matrix S with element = (1/2) z^T S z."""
    return _i_omega(to_matrix(e))


def _i_omega(m) -> np.ndarray:
    """i Omega @ m for a stack (..., 4, k): the bridge between matrices and quadratic forms."""
    return m[..., _SWAP, :] * (1j * _SIGNS[:, None])


def from_quadratic_form(s, return_residual: bool = True):
    """Inverse of :func:`quadratic_form` (same +i Omega bridge both ways)."""
    return from_matrix(_i_omega(np.asarray(s, dtype=complex)), return_residual=return_residual)


def _structure_tensor() -> np.ndarray:
    """f[i, j] = from_matrix([X_i, X_j]) for all 100 generator pairs in one batched projection."""
    f, resid = from_matrix(_GEN[:, None] @ _GEN[None] - _GEN[None] @ _GEN[:, None])
    if resid.max() > 1e-12:
        raise ProjectionLeak("generator commutator left the algebra span")
    f += 0.0  # the batched product leaves -0.0 in nine zeros; one pair at a time gives +0.0
    f.setflags(write=False)
    return f


_STRUCTURE = _structure_tensor()

# The nonzero (i < j, k, f[i, j, k]) entries of the structure tensor: its
# 60 nonzeros (all +-i) pair up by antisymmetry into 30 terms, three per
# output generator.
_BRACKET_TERMS = tuple((int(i), int(j), int(k), complex(_STRUCTURE[i, j, k]))
                       for i, j, k in np.argwhere(_STRUCTURE != 0) if i < j)


def structure_constants() -> np.ndarray:
    """Read-only structure tensor f with [X_i, X_j] = sum_k f[i, j, k] X_k.

    Generated at import by one batched projection of the generator
    commutators; the matrices are the ground truth and the published
    commutation table is enforced in the test suite, not typed in here.
    """
    return _STRUCTURE


def commutator(a, b) -> np.ndarray:
    """Lie bracket by the sparse bilinear form of the structure constants.

    ``a`` and ``b`` are coefficient arrays (..., 10); their leading axes
    broadcast sample-wise against each other.  Each output generator k
    sums f[i, j, k] (a_i b_j - a_j b_i) over its three (i < j) terms of
    ``_BRACKET_TERMS``, read from :func:`structure_constants`, so no
    temporary is larger than one broadcast coefficient column.
    """
    ca, cb = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    out = np.zeros(ca.shape, dtype=complex)
    for i, j, k, f in _BRACKET_TERMS:
        out[..., k] += f * (ca[..., i] * cb[..., j] - ca[..., j] * cb[..., i])
    return out


# The real form.  The canonical map y -> i y, py -> -i py, z = D z' with
# D = diag(1, i, 1, -i), takes a matrix m to D^-1 m D, entrywise
# m[j, k] d_k / d_j: a product by units, exact in floating point.  D is
# unitary and D^T Omega D = Omega, so a symplectic matrix stays symplectic.
# Under it each -i M(G_k) is either real or imaginary; the phase phi_k
# (1 or i) that makes it real gives the real basis
# R_k = D^-1 (-i phi_k M(G_k)) D, orthonormal (its Hilbert-Schmidt Gram
# matrix is the identity, exactly).  An element c = phi r with r real,
# the real coordinates of c, has -i M(c) = D (sum_k r_k R_k) D^-1, and
# c = phi r with r complex has M(c) = D (i sum_k r_k R_k) D^-1.  The
# phases, the basis and the bracket in real coordinates are generated
# from the matrices here.
_REAL_D = np.array([1.0, 1j, 1.0, -1j])
_UNIT_FORMS = -1j * _GEN * (_REAL_D / _REAL_D[:, None])
_REAL_PHASES = np.where([np.all(m.imag == 0) for m in _UNIT_FORMS], 1.0 + 0j, 1j)
_REAL_BASIS = (_REAL_PHASES[:, None, None] * _UNIT_FORMS).real
_REAL_BASIS_FLAT = _REAL_BASIS.reshape(10, 16)


def _real_bracket_term(i, j, k, f):
    """A term (i, j, k, f) of ``_BRACKET_TERMS`` in real coordinates: (i, j, k, g)
    with g = -i f phi_i phi_j / phi_k, which must be exactly +1 or -1."""
    g = -1j * f * _REAL_PHASES[i] * _REAL_PHASES[j] / _REAL_PHASES[k]
    if g not in (1.0, -1.0):
        raise ValueError("bracket term (%d, %d, %d) is %r in real coordinates" % (i, j, k, g))
    return i, j, k, g.real


# the 30 terms of the bracket in real coordinates, in the same order
_REAL_BRACKET_TERMS = tuple(_real_bracket_term(*term) for term in _BRACKET_TERMS)


def _real_commutator(a, b) -> np.ndarray:
    """The bracket of exponents in real coordinates, coefficient-major.

    ``a`` and ``b`` are real arrays (10, ...) of the exponents
    -i phi a and -i phi b; the result holds those of their matrix
    commutator, so phi * result equals -1j * commutator(phi a, phi b)
    (there with the coefficients on the last axis).  Each of the 30
    terms of ``_REAL_BRACKET_TERMS`` reads four whole coefficient
    rows, contiguous in this layout.
    """
    out = np.zeros(np.broadcast(a, b).shape)
    for i, j, k, g in _REAL_BRACKET_TERMS:
        term = a[i] * b[j] - a[j] * b[i]
        if g > 0:
            out[k] += term
        else:
            out[k] -= term
    return out


def _real_matrix(r) -> np.ndarray:
    """sum_k r_k R_k for real coordinates ``r`` of shape (10, ...), as a real stack (..., 4, 4)."""
    return np.tensordot(r, _REAL_BASIS_FLAT, axes=(0, 0)).reshape(np.shape(r)[1:] + (4, 4))


def _real_conjugate_by(u, r) -> np.ndarray:
    """Real coordinates of u X u^-1 with X = sum_k r_k R_k, shape (N, m, 10).

    ``u`` is a real group stack (N, 4, 4) in the basis z = D z', and
    ``r`` holds m real coordinate rows (m, 10).  This is
    :func:`conjugate_by` in the real form, with its inverse and its leak
    check; the images are projected onto the orthonormal basis R, and the
    remainder checked is, per sample, the Frobenius norm over all m
    images (for the real and imaginary halves of one complex element,
    the residual :func:`conjugate_by` reads, since D is unitary).
    """
    x = (np.asarray(r, dtype=float) @ _REAL_BASIS_FLAT).reshape(-1, 4, 4)
    n, m = len(u), len(x)
    # u X for every X in one (4N, 4) @ (4, 4m) product; numpy's stacked
    # matmul is slow on 4x4 blocks, so only the second product is stacked
    ux = (u.reshape(-1, 4) @ x.transpose(1, 0, 2).reshape(4, -1)).reshape(n, 4, m, 4)
    images = (ux.transpose(0, 2, 1, 3) @ symplectic_inverse(u)[:, None]).reshape(-1, 16)
    coords, resid = _project(images, _REAL_BASIS_FLAT)
    _check_leak(np.linalg.norm(resid.reshape(n, m), axis=1), "conjugation")
    return coords.reshape(n, m, 10)


def adjoint(e) -> np.ndarray:
    """Operator adjoint in the coordinate representation: conjugate coefficients.

    An element is Hermitian as an operator when its coefficients are
    real; that is not Hermiticity of its 4x4 matrix (the Q and K
    matrices are anti-Hermitian).
    """
    return np.asarray(e, dtype=complex).conj()


def pt_map(e, variant: str = "PT") -> np.ndarray:
    """Antilinear PT (or PT-tilde) symmetry: per-generator sign flip plus conjugation."""
    return np.asarray(e, dtype=complex).conj() * pt_signs(variant)


def pt_signs(variant: str = "PT") -> np.ndarray:
    """Per-generator sign table of the PT (or PT-tilde) symmetry."""
    if variant not in _PT_SIGNS:
        raise ValueError("unknown PT variant %r (expected one of %s)" % (variant, ", ".join(_PT_SIGNS)))
    return _PT_SIGNS[variant].copy()


def symplectic_inverse(g) -> np.ndarray:
    """Inverse of a group element g in Sp(4, C), or of a stack (..., 4, 4).

    g^T Omega g = Omega gives g^-1 = -Omega g^T Omega exactly; no solve
    and no second exponential.  For a matrix that is only approximately
    symplectic (an ``expm`` of an algebra element, say) the deviation of
    g @ symplectic_inverse(g) from the identity measures that defect.
    Omega is applied as the signed permutation it is, so the result
    holds the entries of g^T moved and sign-flipped, exactly, in the
    dtype of g: a real stack stays real.
    """
    return np.swapaxes(np.asarray(g)[..., _SWAP[:, None], _SWAP], -1, -2) * _SIGN_TABLE


def conjugate_by(g, e) -> np.ndarray:
    """Adjoint action g e g^-1 of a group element g in Sp(4, C).

    ``g`` is a 4x4 matrix or a stack (N, 4, 4) paired with one element
    or with one element per sample; g^-1 is :func:`symplectic_inverse`.
    With it g X g^-1 lies in the algebra for every g, symplectic or not,
    so the projection's remainder is rounding; :class:`ProjectionLeak`
    is raised where it is not finite or exceeds ``PROJ_TOL``, read at
    call time.  A non-symplectic g is not detected.
    """
    coeffs, resid = from_matrix(g @ to_matrix(e) @ symplectic_inverse(g))
    _check_leak(resid, "conjugation")
    return coeffs


def parity_matrix(convention: str = "reflection") -> np.ndarray:
    """4x4 matrix implementing parity under each supported convention.

    ``reflection``
        The phase-space reflection diag(1, -1, 1, -1), i.e. (y, py) ->
        (-y, -py).  This is the convention whose adjoint action matches
        the PT sign table and satisfies P H P = H^dagger for the
        coupled-oscillator Hamiltonians; it is the default.
    ``two_j3``
        The matrix 2*J3 (an involution, (2 J3)^2 = 1).  exp(i pi J3)
        equals i times it, so conjugation by that group element acts
        exactly as this convention does.

    The two conventions do not act alike; the cross-check report
    records their per-generator sign tables.
    """
    if convention == "reflection":
        return _PARITY_REFLECTION.copy()
    if convention == "two_j3":
        return 2.0 * matrix_of("J3")
    raise ValueError("unknown parity convention %r" % convention)


def parity_action(e, convention: str = "reflection") -> np.ndarray:
    """Conjugate by the parity matrix and project back onto the algebra.

    ``e`` is one element (10,) or a stack (..., 10); raises
    :class:`ProjectionLeak` if an image leaves the span by more than
    ``PROJ_TOL`` or is not finite.  Every convention is an involution,
    so P^-1 = P.
    """
    p = parity_matrix(convention)
    coeffs, resid = from_matrix(p @ to_matrix(e) @ p)
    _check_leak(resid, "parity conjugation")
    return coeffs
