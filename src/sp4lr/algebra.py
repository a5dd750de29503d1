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
itself: ``S = i Omega M``.  No runtime path needs the quadratic forms;
the test suite carries the bridge as the oracle of the coordinate face.

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
from .numerics import PROJ_TOL, frobenius

__all__ = [
    "GeneratorId",
    "GENERATOR_NAMES",
    "OMEGA",
    "matrix_of",
    "generator_matrices",
    "structure_constants",
    "commutator",
    "to_matrix",
    "from_matrix",
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


def _squared_norms(x) -> np.ndarray:
    """Squared Frobenius norms of a real array over its last two axes."""
    return np.einsum("...ij,...ij->...", x, x)


def _check_leak(resid, scale, what: str) -> None:
    """Raise :class:`ProjectionLeak` unless every remainder ``resid`` is finite
    and at most ``PROJ_TOL`` times its ``scale``, the product of the
    Frobenius norms of the factors whose product was projected.

    The remainder of an image that lies in the algebra is the rounding of
    its product, and that rounding is relative to the factors: entrywise,
    |fl(X Y Z) - X Y Z| <= gamma_8 |X| |Y| |Z| (two products of four-term
    sums; gamma_8 ~ 8u = 4 eps), and ||(|X| |Y| |Z|)||_F <= ||X||_F
    ||Y||_F ||Z||_F, which also bounds the image and so the rounding of
    its projection.  A correct image thus leaves a remainder of a few eps
    of ``scale``, some 1e-15, whatever the size of the operands: a large
    time density r (|K| ~ r) or a long-run Dyson map moves both sides
    alike.  ``PROJ_TOL`` = 1e-10 of ``scale`` sits more than four orders
    above that floor, so a remainder beyond it is a leak, not rounding.
    ``resid`` and ``scale`` broadcast against each other.
    """
    bad = ~(resid <= PROJ_TOL * scale) | (resid == np.inf)  # a NaN compares False
    if np.any(bad):
        resid, scale = np.broadcast_arrays(resid, scale)
        k = np.argmax(bad)  # the first
        raise ProjectionLeak("%s residual %.3e exceeds %.1e times the operand size %.3e"
                             % (what, resid.flat[k], PROJ_TOL, scale.flat[k]))


def from_matrix(m):
    """Orthogonal projection onto the generator span: inner products with
    the orthonormal generator basis.  Accepts stacks (..., 4, 4).  Returns
    ``(coeffs, residual)`` where the residual is the Frobenius norm of the
    unrepresentable remainder.
    """
    a = np.asarray(m, dtype=complex)
    return _project(a.reshape(a.shape[:-2] + (16,)), _GENF)


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
_TO_REAL = _REAL_D / _REAL_D[:, None]  # the units d_k / d_j of m -> D^-1 m D
_UNIT_FORMS = -1j * _GEN * _TO_REAL
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


def _real_coordinates(h) -> np.ndarray:
    """Real coordinates r = h conj(phi) of Hamiltonian coefficients ``h``
    (..., 10), or of an image of them such as the invariant I_H, moved to
    the front: shape (10, ...), a strided view of the real parts.

    -i M(H) = D (sum_k r_k R_k) D^-1 (see ``algebra._REAL_BASIS``).  Raises
    ValueError, never dropping an imaginary part, where a coefficient of
    r is not exactly real.
    """
    r = np.asarray(h) * _REAL_PHASES.conj()
    if np.any(r.imag != 0):
        if not np.all(np.isfinite(r)):
            raise ValueError("the Hamiltonian coefficients on the grid are not finite")
        raise ValueError("the Hamiltonian coefficients are outside the real-form family: "
                         "-i M(H) is not real in the basis z = diag(1, i, 1, -i) z'")
    return np.moveaxis(r.real, -1, 0)


def _real_matrix(r) -> np.ndarray:
    """sum_k r_k R_k for real coordinates ``r`` of shape (10, ...), as a real stack (..., 4, 4)."""
    return np.tensordot(r, _REAL_BASIS_FLAT, axes=(0, 0)).reshape(np.shape(r)[1:] + (4, 4))


def _to_real_form(m) -> np.ndarray:
    """The real stack D^-1 m D of complex 4x4 matrices ``m`` (..., 4, 4) in
    the real form (the static Dyson map of a point transformation, say).

    Raises ValueError, never dropping an imaginary part, where a finite
    entry of D^-1 m D is not exactly real; a non-finite entry is passed
    on, as NaN, to the leak check of the conjugation that reads it.
    """
    p = np.asarray(m, dtype=complex) * _TO_REAL
    if np.any((p.imag != 0) & np.isfinite(p.imag)):
        raise ValueError("the matrices are outside the real form: "
                         "D^-1 m D is not real for D = diag(1, i, 1, -i)")
    return np.ascontiguousarray(p.real)


def _nonzero_halves(e) -> tuple:
    """The halves of the real coordinates r = e conj(phi) of the complex
    coefficients ``e`` (..., 10) that are not exactly 0: a tuple of 0 (the
    real half) and 1 (the imaginary half), in that order, and (0,) where
    both are 0.  A NaN counts as nonzero.

    The real half is Re e_k where phi_k = 1 and Im e_k where phi_k = i,
    the imaginary half Im e_k and -Re e_k; each coefficient column is read
    as a view, so no temporary the size of ``e`` is made.
    """
    parts = [(e.real, e.imag) if phase == 1 else (e.imag, e.real) for phase in _REAL_PHASES]
    return tuple(h for h in (0, 1)
                 if any(np.any(part[h][..., k]) for k, part in enumerate(parts))) or (0,)


# samples per block of a real conjugation: a block's temporaries stay
# below a megabyte on any grid; whole-grid ones cost page faults and
# peak memory
_BLOCK = 1024


def _real_conjugate_by(u, e, u_inv=None) -> np.ndarray:
    """:func:`conjugate_by` in the real form: coefficients of g M(e) g^-1
    for g = D u D^-1.

    ``u`` is a real stack (N, 4, 4), the group elements in the basis
    z = D z', and ``u_inv`` its inverse, by default
    ``symplectic_inverse(u)``.  That default is -u^-1 for an
    anti-symplectic u (u^T Omega u = -Omega), so such a u needs its
    inverse passed.  A complex ``u`` raises ValueError: it is g itself,
    not its real form, and no imaginary part is ever dropped.  ``e``
    holds complex coefficients whose leading axes broadcast against the
    N samples, as in :func:`conjugate_by`: one
    element (10,), or a stack (..., 1, 10), is shared by every sample,
    and (..., N, 10) holds one element per sample; the result has the
    broadcast shape.

    The real and imaginary halves of the real coordinates r = e conj(phi)
    are conjugated as the real matrices sum_k r_k R_k, projected onto
    the orthonormal basis R, and read back as phi (y_re + i y_im).  A half
    that is exactly 0 in every element (:func:`_nonzero_halves`, read from
    the data once per call) is not conjugated: its image is 0.  So an
    element phi r with r real (a Hamiltonian, an image of one, or H + i K
    of the point transform) costs one matrix per element and sample, as
    does one with r imaginary (2 J2, the invariant of the closed form's
    seed c = (0, 0, 1, 1, 0, ..., 0)), and the result is bitwise that of
    conjugating both halves.  The remainder checked is, per element and
    sample, the Frobenius norm over the halves conjugated: the residual
    :func:`conjugate_by` reads, since D is unitary, against ``PROJ_TOL``
    times ||u||_F ||e|| ||u^-1||_F, where ||u^-1||_F = ||u||_F for the
    (anti-)symplectic u this takes.  Both norms sum the halves' squares
    in order, so a half that is 0 adds exactly 0 to each.  The samples go
    in blocks of ``_BLOCK``, so no temporary grows with the grid.
    """
    if np.iscomplexobj(u):
        raise ValueError("the group elements are complex, not in the real form "
                         "D^-1 g D for D = diag(1, i, 1, -i)")
    e = np.asarray(e, dtype=complex)
    if u_inv is None:
        u_inv = symplectic_inverse(u)
    n = len(u)
    shared = e.ndim == 1 or e.shape[-2] == 1
    if not shared and e.shape[-2] != n:
        raise ValueError("elements of shape %r do not broadcast against %d samples" % (e.shape, n))
    lead = e.shape[:-2]
    # (1 or N, P, 10): the P elements of every sample, or of each one
    e = e.reshape(1, -1, 10) if shared else np.moveaxis(e, -2, 0).reshape(n, -1, 10)
    which = _nonzero_halves(e)  # the halves conjugated
    nh = len(which)
    m = nh * e.shape[1]  # matrices per sample
    out = np.empty((n, e.shape[1], 10), dtype=complex)
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        r = (e if shared else e[blk]) * _REAL_PHASES.conj()
        halves = np.stack([(r.real, r.imag)[h] for h in which], axis=-2)
        # a sample's m matrices side by side, (4, 4m): numpy's stacked
        # matmul is slow on 4x4 blocks, so each product takes them all,
        # and shared ones take every sample's u in one (4k, 4) @ (4, 4m)
        x = (halves.reshape(-1, 10) @ _REAL_BASIS_FLAT).reshape(len(r), m, 4, 4)
        x = x.swapaxes(1, 2).reshape(len(r), 4, 4 * m)
        ub = u[blk]
        k = len(ub)
        ux = (ub.reshape(-1, 4) @ x[0]).reshape(k, 4, 4 * m) if shared else ub @ x
        # [u X_1; ...; u X_m] u^-1, the blocks stacked, (4m, 4)
        images = ux.reshape(k, 4, m, 4).swapaxes(1, 2).reshape(k, 4 * m, 4) @ u_inv[blk]
        coords, resid = _project(images.reshape(-1, 16), _REAL_BASIS_FLAT)
        # the operand sizes: ||u||_F ||u^-1||_F = ||u||_F^2 per sample (the
        # inverse is a signed permutation of u^T) times ||X||_F per element,
        # over the halves conjugated, as the remainder
        scale = (_squared_norms(ub)[:, None]
                 * np.sqrt(np.einsum("...i,...i->...", halves, halves).sum(axis=-1)))
        _check_leak(np.linalg.norm(resid.reshape(-1, nh), axis=1), scale.ravel(), "conjugation")
        y = coords.reshape(k, m // nh, nh, 10)
        # + 0.0: the product with phi = i leaves -0.0 in an exactly zero
        # real part where the imaginary one is negative; the complex
        # projection reads +0.0 there.  The same sum makes a part that
        # is 0 read +0.0 whether its half was conjugated or not.
        if nh == 2:
            y = y[..., 0, :] + 1j * y[..., 1, :]
        else:
            y = y[..., 0, :] if which == (0,) else 1j * y[..., 0, :]
        out[blk] = _REAL_PHASES * y + 0.0
    return np.moveaxis(out.reshape((n,) + lead + (10,)), 0, -2)


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
    is raised where it is not finite or exceeds ``PROJ_TOL`` (read at
    call time) times ||g||_F ||e|| ||g^-1||_F.  A non-symplectic g is not
    detected.
    """
    g_inv = symplectic_inverse(g)
    coeffs, resid = from_matrix(g @ to_matrix(e) @ g_inv)
    _check_leak(resid, frobenius(g) * np.linalg.norm(e, axis=-1) * frobenius(g_inv), "conjugation")
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
    ``PROJ_TOL`` times ||P||_F^2 ||e|| or is not finite.  Every
    convention is an involution, so P^-1 = P.
    """
    p = parity_matrix(convention)
    coeffs, resid = from_matrix(p @ to_matrix(e) @ p)
    _check_leak(resid, frobenius(p) ** 2 * np.linalg.norm(e, axis=-1), "parity conjugation")
    return coeffs
