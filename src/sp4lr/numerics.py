"""Shared numerical kernels: matrix exponential, batched eigenvalues
(LAPACK through numpy), quadrature, finite differences and norms.

``cumulative_simpson`` integrates an arbitrary callable; the solvers'
profile integrals are exact (:meth:`sp4lr.profiles.ScalarProfile.antiderivative`).

Everything here is sized for the fixed shapes of this problem (stacks
of 4x4 real or complex matrices, 1-d time grids); there are no sparse
or large-scale paths.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridTooCoarse

__all__ = [
    "EXPM_TOL",
    "PROJ_TOL",
    "QUAD_TOL",
    "TIE_TOL",
    "expm",
    "eig4",
    "cumulative_simpson",
    "central_diff",
    "frobenius",
]


EXPM_TOL = 1e-13  # truncation bound of expm's Taylor series
PROJ_TOL = 1e-10  # projection residual allowed when a matrix is read back into the algebra
QUAD_TOL = 1e-10  # per-interval error bound of the Simpson quadrature
TIE_TOL = 1e-12  # relative gap below which the eigenvalue sort treats real parts as tied

_EXPM_THETA = 0.5  # each matrix is scaled until its 1-norm is at most this


def expm(m):
    """Matrix exponential by scaling and squaring of a truncated Taylor series.

    Parameters
    ----------
    m : array_like, shape (..., n, n)
        Square real or complex matrix or stack of matrices.

    Returns
    -------
    numpy.ndarray, shape (..., n, n)
        Of dtype ``result_type(m, float)``: a real input stays real and
        every product is taken in real arithmetic.

    Each matrix is scaled by its own 2**-s_i, the least power of two
    that brings its 1-norm to at most 0.5.  The Taylor order k is the
    smallest with theta**(k+1)/(k+1)! / (1 - theta/(k+2)) * 2**max(s)
    below ``EXPM_TOL``, where theta is the largest scaled 1-norm of the
    stack: the first factor bounds the truncation error of the scaled
    series, and the squarings amplify it by up to 2**s_i.  The degree-k
    Taylor polynomial is evaluated by Paterson-Stockmeyer: with
    q = ceil(sqrt(k)), the powers A .. A**q, then Horner in A**q over
    blocks of degree below q (the top block reaches A**q), so
    q - 1 + ceil(k/q) - 1 matrix products replace k (3 for k = 5).
    In squaring round j only the matrices with s_i > j are squared, so
    a small-norm matrix is neither scaled nor squared by a large one
    beside it.
    """
    a = np.asarray(m)
    a = a.astype(np.result_type(a, float), copy=False)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("expm expects square matrices, got shape %r" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("expm requires finite entries")
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm per matrix
    s = np.ceil(np.log2(np.maximum(norm, _EXPM_THETA) / _EXPM_THETA)).astype(int)
    smax = int(np.max(s, initial=0))
    if smax:
        scale = 2.0**s
        a = a / scale[..., None, None]
        norm = norm / scale
    theta = float(np.max(norm, initial=0.0))

    # truncation order from the remainder bound at theta, amplified by the squarings
    k, fact = 1, 2.0
    while theta ** (k + 1) / fact / (1.0 - theta / (k + 2)) * 2.0**smax >= EXPM_TOL and k <= 40:
        k += 1
        fact *= k + 1

    coef = [1.0 / math.factorial(j) for j in range(k + 1)]
    q = math.isqrt(k - 1) + 1  # ceil(sqrt(k))
    powers = [a]  # powers[j - 1] = A**j
    for _ in range(q - 1):
        powers.append(powers[-1] @ a)
    top = (k - 1) // q * q  # the top block spans degrees top .. k
    result = _taylor_block(powers, coef, top, k)
    for lo in range(top - q, -1, -q):
        result = result @ powers[-1]
        result += _taylor_block(powers, coef, lo, lo + q - 1)
    for j in range(smax):
        sq = s > j
        result[sq] = result[sq] @ result[sq]
    return result


def _taylor_block(powers, coef, lo: int, hi: int) -> np.ndarray:
    """sum_{j=lo}^{hi} coef[j] A**(j - lo), for hi > lo; ``powers[i]`` holds A**(i + 1)."""
    out = coef[lo + 1] * powers[0]
    for j in range(lo + 2, hi + 1):
        out += coef[j] * powers[j - lo - 1]
    diagonal = np.einsum("...ii->...i", out)  # a writeable view, whatever the layout of out
    diagonal += coef[lo]
    return out


def _sort_real_imag(vals) -> np.ndarray:
    """Sort along the last axis by (real, imag), real parts compared with a tolerance.

    Real parts within ``TIE_TOL * max|vals|`` of the row of their sorted
    neighbour count as equal, and such a run is ordered by imag.  A
    complex-conjugate pair, whose real parts tie only up to rounding,
    thus always lists its negative-imag member first, whatever the last
    bits of the eigensolver's output.  After the sort, imaginary parts
    within the same tolerance are set to 0, so a real eigenvalue never
    carries a +-1e-17 branch sign; the map is monotone, so the order
    holds.
    """
    re = vals.real
    by_re = np.argsort(re, axis=-1, kind="stable")
    re_sorted = np.take_along_axis(re, by_re, axis=-1)
    tol = TIE_TOL * np.abs(vals).max(axis=-1, keepdims=True)
    jumps = np.diff(re_sorted, axis=-1) > tol
    runs_sorted = np.concatenate(
        [np.zeros(jumps.shape[:-1] + (1,), dtype=int), np.cumsum(jumps, axis=-1)], axis=-1)
    runs = np.empty_like(runs_sorted)
    np.put_along_axis(runs, by_re, runs_sorted, axis=-1)
    order = np.lexsort((vals.imag, runs), axis=-1)
    out = np.take_along_axis(vals, order, axis=-1)
    return np.where(np.abs(out.imag) <= tol, out.real, out)


def eig4(m) -> np.ndarray:
    """Eigenvalues of a square matrix or a stack (..., n, n).

    One batched LAPACK call (``numpy.linalg.eigvals``) for the whole
    stack; the values are sorted by (real, imag) along the last axis.
    """
    return _sort_real_imag(np.linalg.eigvals(m))


def cumulative_simpson(f, grid, tol: float = QUAD_TOL,
                       error_estimate: bool = True):
    """Cumulative integral of ``f`` on ``grid`` by per-interval Simpson rule.

    Parameters
    ----------
    f : callable
        Vectorized real function of time.
    grid : array_like, strictly increasing
    tol : float
        Bound on the Richardson error estimate of each interval.
    error_estimate : bool
        When True, each interval is also integrated with two half-width
        Simpson panels and ``GridTooCoarse`` is raised if the estimated
        error exceeds ``tol``.

    Returns
    -------
    numpy.ndarray, same length as ``grid``; first entry is 0.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GridTooCoarse("quadrature grid needs at least 2 points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("grid must be strictly increasing")
    h = np.diff(t)
    f0 = np.asarray(f(t[:-1]), dtype=float)
    f1 = np.asarray(f(t[1:]), dtype=float)
    fm = np.asarray(f(t[:-1] + h / 2.0), dtype=float)
    coarse = h / 6.0 * (f0 + 4.0 * fm + f1)
    if error_estimate:
        fq = np.asarray(f(t[:-1] + h / 4.0), dtype=float)
        f3q = np.asarray(f(t[:-1] + 3.0 * h / 4.0), dtype=float)
        fine = h / 12.0 * (f0 + 4.0 * fq + 2.0 * fm + 4.0 * f3q + f1)
        est = np.abs(fine - coarse) / 15.0
        if np.any(est > tol):
            raise GridTooCoarse(
                "Simpson per-interval error estimate %.3e exceeds %.3e"
                % (float(est.max()), tol)
            )
        intervals = fine + (fine - coarse) / 15.0  # one Richardson sweep
    else:
        intervals = coarse
    out = np.empty(t.size, dtype=float)
    out[0] = 0.0
    np.cumsum(intervals, out=out[1:])
    return out


_ONESIDED4 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


def central_diff(samples, step: float):
    """Differentiate uniformly spaced samples with a 4th-order stencil.

    Interior points use the 5-point central stencil; the two points at
    each end fall back to one-sided 4th-order stencils so the output has
    the same length as the input.  Residual maxima downstream are taken
    over interior points only.

    ``samples`` may have arbitrary trailing dimensions (time on axis 0).
    """
    y = np.asarray(samples)
    n = y.shape[0]
    if n < 5:
        raise GridTooCoarse("need at least 5 samples for the 4th-order stencil")
    if step <= 0:
        raise ValueError("step must be positive")
    d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * step)
    for k in (0, 1):
        d[k] = np.tensordot(_ONESIDED4, y[k : k + 5], axes=(0, 0)) / step
        d[n - 1 - k] = -np.tensordot(_ONESIDED4, y[n - 5 - k : n - k][::-1], axes=(0, 0)) / step
    return d


def frobenius(m):
    """Frobenius norm over the last two axes."""
    a = np.asarray(m)
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))
