"""Lewis-Riesenfeld invariants from the Lie-algebraic Ansatz.

The invariant is expanded over ten fixed generator combinations
c1..c10 (the elementary quadratics -x*px-sym, y*py-sym, x*py, -y*px,
x*y, px*py, y^2, x^2, px^2, py^2 in disguise).  Substituting into the
invariant equation  i dI/dt = [H, I]  (hbar = 1) turns the coefficients into a
linear ODE  dc/dt = M(t) c.  Its 10x10 matrix M is generated from the
structure constants in :mod:`sp4lr.crosschecks`, beside the two
published hand-written forms, which disagree with each other in two
entries, for the adjudication report.

The solvers do not integrate that 10-dimensional system.  ``to_matrix``
is a Lie-algebra homomorphism, so I(t) = U I(0) U^-1 with the 4x4
propagator  dU/dt = -i H(t) U,  and conjugation keeps I^2 = 1 and
det I = 1 by construction.  U comes from 4th-order two-point
Gauss-Legendre Magnus steps, refined per interval (time-ordered), or
from the exponential of the exact integral of H (commuting
families).  The closed form covers the proportional profiles a = lam,
omega_x = alpha*lam, omega_y = lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GeneratorId, commutator, conjugate_by, to_matrix
from .errors import ChiPlusZero, DegenerateAlpha, GridTooCoarse, NonCommuting, StepNotConverged
from .hamiltonian import CoupledOscillatorParams, _h_coeffs, build_H_coeffs
from .numerics import central_diff, expm, frobenius
from .profiles import ScalarProfile

__all__ = [
    "ANSATZ_COMBINATIONS",
    "COMM_TOL",
    "ClosedFormParams",
    "assemble_invariant",
    "coefficients_of_element",
    "evolve",
    "closed_form_c",
    "closed_form_on_grid",
    "involution_residuals",
    "invariant_matrix",
    "lr_residual",
]

_G = GeneratorId

# rows: combination vectors v1..v10 over the frozen generator basis;
# v7 carries -Q2 so that v7..v10 are exactly y^2, x^2, px^2, py^2
ANSATZ_COMBINATIONS = np.zeros((10, 10))
for _i, _terms in enumerate([
    {_G.Q1: 1, _G.K2: -1},
    {_G.Q1: 1, _G.K2: 1},
    {_G.J2: 1, _G.Q3: 1},
    {_G.J2: 1, _G.Q3: -1},
    {_G.J1: 1, _G.K3: 1},
    {_G.J1: 1, _G.K3: -1},
    {_G.J0: 1, _G.J3: -1, _G.K1: 1, _G.Q2: -1},
    {_G.J0: 1, _G.J3: 1, _G.K1: -1, _G.Q2: -1},
    {_G.J0: 1, _G.J3: 1, _G.K1: 1, _G.Q2: 1},
    {_G.J0: 1, _G.J3: -1, _G.K1: -1, _G.Q2: 1},
]):
    for _g, _v in _terms.items():
        ANSATZ_COMBINATIONS[_i, _g] = _v
ANSATZ_COMBINATIONS.setflags(write=False)

_COMB_INV = np.linalg.inv(ANSATZ_COMBINATIONS)


def assemble_invariant(c) -> np.ndarray:
    """Map coefficients c1..c10, shape (..., 10), through the combination matrix onto the basis."""
    return np.asarray(c, dtype=complex) @ ANSATZ_COMBINATIONS


def coefficients_of_element(e) -> np.ndarray:
    """Inverse of :func:`assemble_invariant` (the combinations form a basis)."""
    return np.asarray(e, dtype=complex) @ _COMB_INV


# bound on the relative commutativity probe: about 4500 eps, far below
# the O(0.1)-O(1) reading of a generic drive
COMM_TOL = 1e-12


def _commutativity_probe(p, grid) -> float:
    """Largest coefficient of [H(t_i), H(t_j)] over 12 times of ``grid``,
    relative to max|H|^2 over the same times.

    The coefficient matrix M(t) is the adjoint action -i ad H(t) in the
    ansatz basis, so it commutes across times exactly when H does; the
    probe reads the brackets of H directly.  A commuting family reads at
    the rounding floor of the bracket, about eps max|H|^2, so the
    relative probe sits near eps (0.4-1.3 eps on the closed-form
    families) whatever the size of the coefficients; a generic drive
    reads O(1) (0.082 on the rejected case of the test suite).
    """
    h = build_H_coeffs(p, np.linspace(grid[0], grid[-1], 12))
    scale = float(np.abs(h).max()) ** 2 or 1.0  # H = 0 commutes: its bracket is 0
    return float(np.abs(commutator(h[:, None], h[None])).max()) / scale


_EPS = np.finfo(float).eps
# two-point Gauss-Legendre nodes on the unit interval
_GL_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0


def _ordered_product(steps) -> np.ndarray:
    """steps[..., n-1, :, :] @ ... @ steps[..., 0, :, :] by pairwise reduction."""
    while steps.shape[-3] > 1:
        paired = steps[..., 1::2, :, :] @ steps[..., 0:-1:2, :, :]
        if steps.shape[-3] % 2:
            paired = np.concatenate([paired, steps[..., -1:, :, :]], axis=-3)
        steps = paired
    return steps[..., 0, :, :]


def _magnus_propagators(p, t0, h, n: int) -> np.ndarray:
    """4x4 propagators of the intervals [t0, t0 + h], each split into ``n``
    two-point Gauss-Legendre Magnus substeps; one ``expm`` for the stack.

    With A = -i H(t) at the nodes t1 < t2 of a substep of length s,
    Omega = (s/2)(A1 + A2) + (sqrt(3) s^2 / 12)[A2, A1] (4th order).
    """
    s = (h / n)[:, None, None]
    nodes = t0[:, None, None] + (np.arange(n)[:, None] + _GL_NODES) * s
    a = -1j * to_matrix(build_H_coeffs(p, nodes))
    a1, a2 = a[..., 0, :, :], a[..., 1, :, :]
    s = s[..., None]
    omega = 0.5 * s * (a1 + a2) + (np.sqrt(3.0) / 12.0) * s**2 * (a2 @ a1 - a1 @ a2)
    return _ordered_product(expm(omega))


def _prefix_products(props) -> np.ndarray:
    """U[0] = 1 and U[k+1] = props[k] @ U[k], accumulated in time order."""
    u = np.empty((len(props) + 1, 4, 4), dtype=complex)
    u[0] = np.eye(4)
    for k, step in enumerate(props):
        u[k + 1] = step @ u[k]
    return u


def _not_converged(why, t0, worst, delta):
    k = int(np.argmax(delta))
    return StepNotConverged("%s: worst interval starts at t = %.6g with delta %.3e"
                            % (why, t0[worst[k]], delta[k]))


def _refined_propagators(p, t, step_tol: float, max_halvings: int) -> np.ndarray:
    """Interval propagators, each halved until two refinements agree below step_tol."""
    if not step_tol > 0:
        raise ValueError("step_tol must be positive")
    t0, h = t[:-1], np.diff(t)
    props = _magnus_propagators(p, t0, h, 1)
    active = np.arange(h.size)  # intervals still being refined
    last = np.full(h.size, np.inf)  # their delta one halving earlier
    n = 1
    for _ in range(max_halvings):
        n *= 2
        finer = _magnus_propagators(p, t0[active], h[active], n)
        delta = frobenius(finer - props[active])
        props[active] = finer
        open_ = delta >= step_tol
        # delta falls 16x per halving (4th order), so step_tol takes about
        # n (delta / step_tol)^(1/4) substeps, each adding about one rounding
        # unit of the propagator to the delta: refuse at once where that
        # floor lies above step_tol, or where delta has stopped falling
        floor = n * (delta / step_tol) ** 0.25 * _EPS * frobenius(finer)
        stuck = open_ & ((delta >= last[active]) | (floor >= step_tol))
        if np.any(stuck):
            raise _not_converged("refinement cannot reach %.1e above the rounding floor"
                                 % step_tol, t0, active[stuck], delta[stuck])
        last[active] = delta
        active = active[open_]
        if active.size == 0:
            return props
    raise _not_converged("interval refinement stalled above %.1e after %d halvings"
                         % (step_tol, max_halvings), t0, active, last[active])


def evolve(c0, grid, p: CoupledOscillatorParams, mode: str = "time_ordered",
           step_tol: float = 1e-11,
           substeps: int | None = None, max_halvings: int = 12) -> np.ndarray:
    """Propagate the coefficient vector over ``grid``; returns shape (N, 10).

    ``to_matrix`` is a Lie-algebra homomorphism, so the invariant is
    I(t) = U(t) I(0) U(t)^-1 with the 4x4 propagator dU/dt = -i H(t) U;
    the coefficients are read back from that conjugation
    (:func:`sp4lr.algebra.conjugate_by`, which raises ProjectionLeak if
    the result leaves the algebra).

    ``time_ordered``
        U is the product of per-interval propagators, each a product of
        4th-order two-point Gauss-Legendre Magnus steps.  With
        ``substeps`` None, every interval starts with one substep and the
        intervals whose two last refinements still differ by ``step_tol``
        or more (Frobenius norm) are halved again; converged intervals
        are kept.  StepNotConverged, naming the worst interval and its
        delta, is raised when the ``max_halvings`` cap is hit, when an
        interval's delta stops falling between halvings, or as soon as
        the 4th-order rate puts ``step_tol`` below the rounding floor of
        the substeps it would take.  A fixed ``substeps`` disables the
        adaptivity (used for order-of-convergence studies).
    ``commuting``
        U(t) = expm(-i int_{t0}^t H ds), valid when H commutes with itself
        across times; a sampled commutativity probe of H guards the
        assumption (NonCommuting when it exceeds ``COMM_TOL``).
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("grid must be 1-d and strictly increasing")
    c0 = np.asarray(c0, dtype=complex)

    if mode == "commuting":
        if _commutativity_probe(p, t) > COMM_TOL:
            raise NonCommuting("sampled |[H(t), H(t')]| / max|H|^2 exceeds %.1e" % COMM_TOL)
        integral = _h_coeffs(*(f.antiderivative(t, t[0])
                               for f in (p.a, p.omega_x, p.omega_y, p.lam)))
        u = expm(-1j * to_matrix(integral))
    elif mode == "time_ordered":
        if substeps is not None:
            props = _magnus_propagators(p, t[:-1], np.diff(t), substeps)
        else:
            props = _refined_propagators(p, t, step_tol, max_halvings)
        u = _prefix_products(props)
    else:
        raise ValueError("mode must be 'time_ordered' or 'commuting'")

    traj = coefficients_of_element(conjugate_by(u, assemble_invariant(c0)))
    traj[0] = c0
    return traj


@dataclass(frozen=True)
class ClosedFormParams:
    """Proportional-profile family a = lam, omega_x = alpha*lam, omega_y = lam."""

    alpha: float
    lam: ScalarProfile

    def __post_init__(self):
        if self.alpha <= -1.0:
            raise DegenerateAlpha("params.alpha: must exceed -1 (sqrt(1+alpha) real)")

    def oscillator_params(self) -> CoupledOscillatorParams:
        return CoupledOscillatorParams.proportional(self.alpha, self.lam)

    def mode_frequencies(self):
        """a_plus, a_minus = sqrt(2)*sqrt(1 + alpha +- 2 sqrt(1+alpha)).

        a_minus is imaginary for alpha < 3 (hyperbolic regime) and
        vanishes at alpha = 3, where the solution acquires a secular
        term handled by the sin(x)/x limit.
        """
        sq = np.sqrt(1.0 + self.alpha)
        ap = np.sqrt(2.0) * np.lib.scimath.sqrt(1.0 + self.alpha + 2.0 * sq)
        am = np.sqrt(2.0) * np.lib.scimath.sqrt(1.0 + self.alpha - 2.0 * sq)
        return complex(ap), complex(am)


def _sin_ratio(a, theta):
    """sin(a*theta/2)/a, continuous through a = 0 (limit theta/2)."""
    a = complex(a)
    theta = np.asarray(theta, dtype=float)
    if abs(a) > 1e-7:
        return np.sin(a * theta / 2.0) / a
    x = a * theta / 2.0
    return (theta / 2.0) * (1.0 - x**2 / 6.0 + x**4 / 120.0)


def closed_form_c(params: ClosedFormParams, theta) -> np.ndarray:
    """Closed-form coefficients at the phase theta = int_{t0}^t lam.

    Scalar theta gives shape (10,); arrays give (..., 10).  At theta = 0
    the result is exactly (0, 0, 1, 1, 0, ..., 0).
    """
    alpha = params.alpha
    sq = np.sqrt(1.0 + alpha)
    ap, am = params.mode_frequencies()
    theta = np.asarray(theta, dtype=float)
    cp, cm = np.cos(ap * theta / 2.0), np.cos(am * theta / 2.0)
    rp, rm = _sin_ratio(ap, theta), _sin_ratio(am, theta)
    # complementary weights written as (w, 1 - w) so each pair sums to
    # exactly 1 and the seed value at theta = 0 is exact
    w3 = (sq + alpha) / (2.0 * sq)
    w4 = (sq + 1.0) / (2.0 * sq)
    c = np.zeros(theta.shape + (10,), dtype=complex)
    c[..., 0] = c[..., 1] = 1j / (2.0 * sq) * (cm - cp)
    c[..., 2] = w3 * cm + (1.0 - w3) * cp
    c[..., 3] = w4 * cm + (1.0 - w4) * cp
    c[..., 4] = (1.0 - alpha) * rp + (1.0 - alpha) * rm
    c[..., 5] = (alpha - 1.0) / (2.0 * sq) * rp + (1.0 - alpha) / (2.0 * sq) * rm
    c[..., 7] = 1j * rp + 1j * rm
    c[..., 6] = -c[..., 7]
    c[..., 8] = 1j * rm / (2.0 * sq) - 1j * rp / (2.0 * sq)
    c[..., 9] = -c[..., 8]
    return c


def closed_form_on_grid(params: ClosedFormParams, grid) -> np.ndarray:
    """Closed form evaluated along a grid, with theta = int_{grid[0]}^t lam exact."""
    t = np.asarray(grid, dtype=float)
    theta = params.lam.antiderivative(t, t[0])
    return closed_form_c(params, theta)


def involution_residuals(c, tol: float = 1e-12):
    """Residuals (r1, r2, r7, r10) of the involution constraints.

    Each residual is the constraint expression minus the coefficient it
    determines, so perturbing e.g. c1 upward by eps from a satisfying
    point gives r1 = -eps.  The square root uses the principal branch
    but is sign-matched against c1 so satisfying points on either branch
    report a vanishing r1.
    """
    c = np.asarray(c, dtype=complex)
    c1, c2, c3, c4 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    c5, c6, c7, c8 = c[..., 4], c[..., 5], c[..., 6], c[..., 7]
    c9, c10 = c[..., 8], c[..., 9]
    chi_p = c3 * c4 + c5 * c6
    chi_m = c3 * c4 - c5 * c6
    if np.any(np.abs(chi_p) < tol):
        raise ChiPlusZero("chi_plus vanishes; constraints undefined")
    # (c3*c4 - 1) is exact near the seed (Sterbenz); keep it grouped
    arg = 4.0 * c8 * c9 + (c3 * c4 - 1.0) + c5 * c6
    root = np.lib.scimath.sqrt(arg)
    # branch continuity: pick the root sign closer to the coefficient
    root = np.where(np.abs(root - c1) <= np.abs(-root - c1), root, -root)
    # rationalized quotient (arg - c1^2)/(root + c1) equals root - c1 but
    # avoids the square-root cancellation where |c1| is small; the plain
    # difference covers the exactly-degenerate point root = -c1
    denom = root + c1
    safe = np.abs(denom) > 0
    quot = (arg - c1 * c1) / np.where(safe, denom, 1.0)
    r1 = np.where(safe, quot, root - c1)
    r2 = 2.0 * (c4 * c6 * c8 - c3 * c5 * c9) / chi_p + chi_m / chi_p * c1 - c2
    r7 = c1 * c4 * c5 / chi_p - (c8 * c4**2 + c9 * c5**2) / chi_p - c7
    r10 = -c1 * c3 * c6 / chi_p - (c9 * c3**2 + c8 * c6**2) / chi_p - c10
    return r1, r2, r7, r10


def invariant_matrix(c) -> np.ndarray:
    """4x4 matrix of the invariant, written directly in its display form.

    Equals ``to_matrix(assemble_invariant(c))`` entrywise (tested), and
    squares to the identity with unit determinant when the involution
    constraints hold.
    """
    c = np.asarray(c, dtype=complex)
    c1, c2, c3, c4 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    c5, c6, c7, c8 = c[..., 4], c[..., 5], c[..., 6], c[..., 7]
    c9, c10 = c[..., 8], c[..., 9]
    z = np.zeros_like(c1)
    rows = [
        [-c1, -c4, 2.0 * c9, c6],
        [c3, c2, c6, 2.0 * c10],
        [-2.0 * c8, -c5, c1, -c3],
        [-c5, -2.0 * c7, c4, -c2],
    ]
    m = np.stack([np.stack([np.broadcast_to(e, z.shape) for e in row], axis=-1)
                  for row in rows], axis=-2)
    return 1j * m


def lr_residual(invariant, hamiltonian, grid, return_samples: bool = False):
    """Max-norm defect of  i dI/dt - [H, I]  (hbar = 1) over interior grid points.

    ``invariant`` and ``hamiltonian`` are coefficient stacks of shape
    (N, 10) on ``grid``.  The time derivative uses the 4th-order central
    stencil; the two points at each end are excluded from the maximum.  With ``return_samples`` the
    result is ``(worst, per_sample)``, ``per_sample`` holding the defect
    at every grid point, ends included.
    """
    t = np.asarray(grid, dtype=float)
    if t.size < 5:
        raise GridTooCoarse("need at least 5 grid points for the 4th-order stencil")
    step = t[1] - t[0]
    if not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-15):
        raise ValueError("lr_residual expects a uniform grid")
    icoef = np.asarray(invariant, dtype=complex)
    hcoef = np.asarray(hamiltonian, dtype=complex)
    didt = central_diff(icoef, step)
    bracket = commutator(hcoef, icoef)
    per_sample = np.abs(1j * didt - bracket).max(axis=1)
    worst = float(per_sample[2:-2].max())
    return (worst, per_sample) if return_samples else worst
