"""Shared numerical kernels: matrix exponential, batched eigenvalues
(LAPACK through numpy), quadrature, finite differences and norms.

``cumulative_simpson`` integrates an arbitrary callable; the solvers'
profile integrals are exact (:meth:`sp4lr.profiles.ScalarProfile.antiderivative`).

Everything here is sized for the fixed shapes of this problem (4x4 and
10x10 complex matrices, 1-d time grids); there are no sparse or
large-scale paths.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooCoarse

__all__ = [
    "EXPM_TOL",
    "PROJ_TOL",
    "QUAD_TOL",
    "expm",
    "eig4",
    "cumulative_simpson",
    "central_diff",
    "frobenius",
]


EXPM_TOL = 1e-13  # truncation bound of expm's Taylor series
PROJ_TOL = 1e-10  # projection residual allowed when a matrix is read back into the algebra
QUAD_TOL = 1e-10  # per-interval error bound of the Simpson quadrature

_EXPM_THETA = 0.5  # series evaluated only after scaling the 1-norm below this


def expm(m, tol: float = EXPM_TOL):
    """Matrix exponential by scaling and squaring of a truncated Taylor series.

    Parameters
    ----------
    m : array_like, shape (..., n, n)
        Square complex matrix or stack of matrices.
    tol : float
        Bound on the series truncation error of the scaled matrix.

    Returns
    -------
    numpy.ndarray, shape (..., n, n)

    The input is scaled by 2**-s so its 1-norm drops below 0.5, the
    series is summed until the a-priori remainder bound
    theta**(k+1)/(k+1)! / (1 - theta/(k+2)) falls below ``tol``, and the
    result is squared s times.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("expm expects square matrices, got shape %r" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("expm requires finite entries")
    n = a.shape[-1]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm per matrix
    nmax = float(np.max(norm)) if norm.size else 0.0
    s = max(0, int(np.ceil(np.log2(nmax / _EXPM_THETA))) if nmax > _EXPM_THETA else 0)
    a = a / (2.0**s)

    # truncation order from the remainder bound at theta
    k, bound, fact = 1, _EXPM_THETA, 1.0
    while True:
        fact *= k + 1
        bound = _EXPM_THETA ** (k + 1) / fact / (1.0 - _EXPM_THETA / (k + 2))
        if bound < tol or k > 40:
            break
        k += 1
    order = k

    eye = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
    result = eye.copy()
    term = eye
    for j in range(1, order + 1):
        term = term @ a / j
        result += term
    for _ in range(s):
        result = result @ result
    return result


def _sort_real_imag(vals, rel_tol: float = 1e-12) -> np.ndarray:
    """Sort along the last axis by (real, imag), real parts compared with a tolerance.

    Real parts within ``rel_tol * max|vals|`` of the row of their sorted
    neighbour count as equal, and such a run is ordered by imag.  A
    complex-conjugate pair, whose real parts tie only up to rounding,
    thus always lists its negative-imag member first, whatever the last
    bits of the eigensolver's output.
    """
    re = vals.real
    by_re = np.argsort(re, axis=-1, kind="stable")
    re_sorted = np.take_along_axis(re, by_re, axis=-1)
    tol = rel_tol * np.abs(vals).max(axis=-1, keepdims=True)
    jumps = np.diff(re_sorted, axis=-1) > tol
    runs_sorted = np.concatenate(
        [np.zeros(jumps.shape[:-1] + (1,), dtype=int), np.cumsum(jumps, axis=-1)], axis=-1)
    runs = np.empty_like(runs_sorted)
    np.put_along_axis(runs, by_re, runs_sorted, axis=-1)
    order = np.lexsort((vals.imag, runs), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


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
