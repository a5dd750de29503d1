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
det I = 1 by construction.  U comes from one 6th-order three-node
Gauss-Legendre Magnus step per interval (time-ordered), whose gap to
the 4th-order two-node exponent is the error estimate that decides
which intervals are split into substeps, or from the exponential of
the exact integral of H (commuting families), split at anchors so that
no large-norm stack is scaled and squared.

The whole path is real.  In the basis z = D z' with D = diag(1, i, 1, -i)
over z = (x, y, px, py), -i M(H) of both Hamiltonian families is exactly
real, and so is every bracket, integral and exponential of such
matrices.  H enters once, as its real coordinates r over
``algebra._REAL_BASIS`` (c = phi r, phi = (1, i, i, 1, 1, 1, i, 1, 1, i)
over J0..K3), written as float64 straight from the profile values
(``hamiltonian._h_real``): no complex H is formed, so there is no
imaginary part to drop, and a coordinate that is not finite raises
ValueError.  The Magnus exponents are formed from r through the real
bracket and mapped to real 4x4 stacks once, so the only 4x4 products
are those of ``expm``, of the ordered product of the steps and of the
conjugation, all real; the invariant goes back to complex coefficients
once, as c = phi r.  The closed form covers the proportional profiles
a = lam, omega_x = alpha*lam, omega_y = lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (_BLOCK, _REAL_PHASES, GeneratorId, _nonzero_halves, _real_commutator,
                      _real_conjugate_by, _real_matrix, _squared_norms)
from .errors import (ChiPlusZero, DegenerateAlpha, GridTooCoarse, NonCommuting, Sp4lrError,
                     StepNotConverged)
from .hamiltonian import CoupledOscillatorParams, _h_real
from .numerics import central_diff, expm, frobenius
from .profiles import ScalarProfile

__all__ = [
    "ANSATZ_COMBINATIONS",
    "CHI_TOL",
    "COMM_TOL",
    "MAX_HALVINGS",
    "STEP_TOL",
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
STEP_TOL = 1e-11  # Frobenius gap at which two refinements of an interval agree
MAX_HALVINGS = 12  # refinements of one interval before StepNotConverged
CHI_TOL = 1e-12  # |chi_plus| below which the involution constraints are undefined


def _commutativity_probe(p, grid) -> float:
    """Largest coefficient of [H(t_i), H(t_j)] over 12 times of ``grid``,
    relative to max|H|^2 over the same times.

    The coefficient matrix M(t) is the adjoint action -i ad H(t) in the
    ansatz basis, so it commutes across times exactly when H does; the
    probe reads the brackets of H directly.  A commuting family reads at
    the rounding floor of the bracket, about eps max|H|^2, so the
    relative probe sits near eps (0.4-1.3 eps on the closed-form
    families) whatever the size of the coefficients; a generic drive
    reads O(1) (0.082 on the rejected case of the test suite).  Both are
    read in real coordinates r (H = phi r): |H_k| = |r_k|, and the
    bracket's coefficients have the moduli of the real bracket's
    (``algebra._real_commutator``), exactly.
    """
    t = np.linspace(grid[0], grid[-1], 12)
    r = _h_real(p.a(t), p.omega_x(t), p.omega_y(t), p.lam(t))
    scale = float(np.abs(r).max()) ** 2 or 1.0  # H = 0 commutes: its bracket is 0
    return float(np.abs(_real_commutator(r[:, :, None], r[:, None])).max()) / scale


_EPS = np.finfo(float).eps
# Gauss-Legendre nodes on the unit interval: three for the 6th-order
# step, then two for the 4th-order exponent of its error estimate
_GL_NODES = 0.5 + np.array([-np.sqrt(15.0) / 10.0, 0.0, np.sqrt(15.0) / 10.0,
                            -np.sqrt(3.0) / 6.0, np.sqrt(3.0) / 6.0])
_ANCHOR_STRIDE = 32  # samples per anchor of the split commuting exponential
# The largest ||U||_F^2 max(1, ||I(0)||) that evolve conjugates by: every
# entry and partial sum of U X U^-1 is at most ||U||_F^2 ||I(0)||
# (Cauchy-Schwarz, with ||U^-1||_F = ||U||_F and ||X||_F = ||I(0)||), and
# the leak check sums 16 squares of entries of X and of remainders: at
# sqrt(DBL_MAX / 16) none of them overflows.
_U_BOUND = np.sqrt(np.finfo(float).max / 16.0)


def _ordered_product(steps) -> np.ndarray:
    """steps[..., n-1, :, :] @ ... @ steps[..., 0, :, :] by pairwise reduction."""
    while steps.shape[-3] > 1:
        paired = steps[..., 1::2, :, :] @ steps[..., 0:-1:2, :, :]
        if steps.shape[-3] % 2:
            paired = np.concatenate([paired, steps[..., -1:, :, :]], axis=-3)
        steps = paired
    return steps[..., 0, :, :]


def _magnus_exponents(p, t0, h, n: int):
    """6th- and 4th-order Magnus exponents, in real coordinates, of the
    ``n`` substeps that split each interval [t0, t0 + h]; shape (10, m, n)
    each, coefficient-major.  An exponent with coordinates w is
    -i phi w, its real form sum_k w_k R_k (``algebra._real_matrix``).

    With A = -i H at the three Gauss-Legendre nodes of a substep of
    length s (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, §4),
    alpha1 = s A2, alpha2 = (sqrt(15)/3) s (A3 - A1),
    alpha3 = (10/3) s (A3 - 2 A2 + A1), C1 = [alpha1, alpha2],
    C2 = -(1/60)[alpha1, 2 alpha3 + C1] and
    Omega6 = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2].
    Omega4 = (s/2)(B1 + B2) + (sqrt(3) s^2 / 12)[B2, B1] takes B = -i H at
    the two nodes of the 4th-order rule, so that Omega6 - Omega4 sees
    quadrature error even where every bracket vanishes.  H enters once,
    as its real coordinates r (``hamiltonian._h_real``): the coordinates
    of s A are s r, and every bracket is the real one of
    ``algebra._real_commutator``, so each exponent equals its matrix form
    with matrix commutators.
    """
    s = h / n
    # nodes (5, m, n): Gauss-Legendre node, interval, substep
    nodes = t0[:, None] + (np.arange(n) + _GL_NODES[:, None, None]) * s[:, None]
    sa = _h_real(p.a(nodes), p.omega_x(nodes), p.omega_y(nodes), p.lam(nodes))
    sa *= s[:, None]
    a1, a2, a3, b1, b2 = np.moveaxis(sa, 1, 0)  # s A and s B at the nodes, (10, m, n) each
    alpha1 = a2
    alpha2 = (np.sqrt(15.0) / 3.0) * (a3 - a1)
    alpha3 = (10.0 / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = _real_commutator(alpha1, alpha2)
    c2 = (-1.0 / 60.0) * _real_commutator(alpha1, 2.0 * alpha3 + c1)
    omega6 = (alpha1 + alpha3 / 12.0
              + _real_commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
    omega4 = 0.5 * (b1 + b2) + (np.sqrt(3.0) / 12.0) * _real_commutator(b2, b1)
    return omega6, omega4


def _magnus_propagators(p, t0, h, n: int):
    """Real-form 4x4 propagators D^-1 U D of the intervals [t0, t0 + h],
    each the ordered product of ``n`` 6th-order Magnus substeps, one
    ``expm`` for the stack, and each interval's error estimate: the sum
    over its substeps of ||to_matrix(Omega6 - Omega4)||_F, which costs no
    ``expm``.  D is unitary and the real basis orthonormal, so that norm
    is the Euclidean norm of the gap in real coordinates."""
    omega6, omega4 = _magnus_exponents(p, t0, h, n)
    delta = np.sqrt(((omega6 - omega4) ** 2).sum(axis=0)).sum(axis=-1)
    return _ordered_product(expm(_real_matrix(omega6))), delta


def _prefix_products(props) -> np.ndarray:
    """U[0] = 1 and U[k+1] = props[k] @ U[k], accumulated in time order,
    in the dtype of ``props``.

    Kept sequential for reproducibility: the error against the closed
    form is rounding-dominated (``cross_solver_time_ordered`` reads
    5.85e-13 on ``lr_closed_form_alpha3.json``), so any reassociation
    moves it either way.  A two-level blocked scan (blocks of 32-71
    steps) lowered that row to 4.1-4.4e-13 but was worse in 19-21 of 31
    closed-form configs (the shipped one and 30 lr-sweep draws).
    """
    u = np.empty((len(props) + 1, 4, 4), dtype=props.dtype)
    u[0] = np.eye(4)
    views = list(u)
    for step, prev, nxt in zip(props, views, views[1:]):
        np.dot(step, prev, out=nxt)
    return u


def _not_converged(why, t0, worst, delta):
    k = int(np.argmax(delta))
    return StepNotConverged("%s: worst interval starts at t = %.6g with delta %.3e"
                            % (why, t0[worst[k]], delta[k]))


def _refined_propagators(p, t) -> np.ndarray:
    """Interval propagators of one 6th-order step each; the intervals whose
    error estimate is ``STEP_TOL`` or more are split into twice as many
    substeps and taken again."""
    t0, h = t[:-1], np.diff(t)
    props = np.empty((h.size, 4, 4))
    active = np.arange(h.size)  # intervals still being refined
    last = np.full(h.size, np.inf)  # their delta at half as many substeps
    n = 1
    for _ in range(MAX_HALVINGS + 1):
        props[active], delta = _magnus_propagators(p, t0[active], h[active], n)
        open_ = delta >= STEP_TOL
        active, delta = active[open_], delta[open_]
        if active.size == 0:
            return props
        # the estimate falls 16x per halving (n substeps of local gap
        # O(s^5) sum to O(h^5 / n^4); the step's own error falls 64x),
        # so STEP_TOL takes about n (delta / STEP_TOL)^(1/4)
        # substeps, each adding about one rounding unit of the propagator:
        # refuse at once where that floor lies above STEP_TOL, or where
        # delta has stopped falling
        floor = n * (delta / STEP_TOL) ** 0.25 * _EPS * frobenius(props[active])
        stuck = (delta >= last[active]) | (floor >= STEP_TOL)
        if np.any(stuck):
            raise _not_converged("refinement cannot reach %.1e above the rounding floor"
                                 % STEP_TOL, t0, active[stuck], delta[stuck])
        last[active] = delta
        n *= 2
    raise _not_converged("interval refinement stalled above %.1e after %d halvings"
                         % (STEP_TOL, MAX_HALVINGS), t0, active, last[active])


def _commuting_propagators(p, t) -> np.ndarray:
    """Real forms D^-1 U_k D of U_k = expm(-i M(Theta_k)) with
    Theta_k = int_{t0}^{t_k} H, split at every ``_ANCHOR_STRIDE``-th
    sample a into expm(-i M(Theta_k - Theta_a)) expm(-i M(Theta_a)), exact
    when H commutes across times.  Only the anchors' stack carries the
    norm of the whole integral; the full stack carries that of at most
    ``_ANCHOR_STRIDE`` - 1 intervals, so it is neither scaled nor squared
    by the largest norm."""
    theta = _real_matrix(_h_real(*(f.antiderivative(t, t[0])
                                   for f in (p.a, p.omega_x, p.omega_y, p.lam))))
    k = np.arange(t.size) // _ANCHOR_STRIDE  # the anchor of each sample
    anchors = theta[::_ANCHOR_STRIDE]
    return expm(theta - anchors[k]) @ expm(anchors)[k]


def evolve(c0, grid, p: CoupledOscillatorParams, mode: str = "time_ordered") -> np.ndarray:
    """Propagate the coefficient vector over ``grid``; returns shape (N, 10).

    ``to_matrix`` is a Lie-algebra homomorphism, so the invariant is
    I(t) = U(t) I(0) U(t)^-1 with the 4x4 propagator dU/dt = -i H(t) U.
    Everything between H and the invariant is real: U is formed as the
    real U' = D^-1 U D in the basis z = D z' with D = diag(1, i, 1, -i),
    where -i M(H) is exactly real, from the real coordinates of H,
    written from the profile values (ValueError where one is not
    finite).  ``c0`` may be any complex vector: the real and imaginary
    halves of the real coordinates r0 of ``assemble_invariant(c0)`` are
    each conjugated by U' and projected back onto the real basis
    (``algebra._real_conjugate_by``, which raises ProjectionLeak where
    the remainder exceeds ``PROJ_TOL`` of the operand sizes or is not
    finite), and the coefficients are read back from phi (y_re + i y_im).
    A half that is exactly 0 is not conjugated: the closed form's seed
    c0 = (0, 0, 1, 1, 0, ..., 0) is 2 J2, whose real half is 0.

    ``time_ordered``
        U is the product of per-interval propagators, each one 6th-order
        three-node Gauss-Legendre Magnus step, one ``expm`` per interval.
        The error estimate of each interval, the Frobenius norm of the gap
        between its 6th-order exponent and the 4th-order two-node one,
        summed over its substeps, is compared with
        ``STEP_TOL``; the intervals at or above it are split into twice
        as many substeps and taken again, the others are kept.
        StepNotConverged, naming the worst interval and its estimate
        (delta), is raised after ``MAX_HALVINGS`` halvings, when an
        interval's delta stops falling between halvings, or as soon as
        the estimate's rate (16x per halving) puts ``STEP_TOL`` below the
        rounding floor of the substeps it would take (both constants are
        read at call time).
    ``commuting``
        U(t) = expm(-i int_{t0}^t H ds), valid when H commutes with itself
        across times, taken split at an anchor every ``_ANCHOR_STRIDE``
        samples; a sampled commutativity probe of H guards the
        assumption (NonCommuting when it exceeds ``COMM_TOL``).

    A propagator that overflows, or is too large to conjugate
    (``_U_BOUND``), raises :class:`Sp4lrError` naming the first such grid
    time; the overflow is not warned on.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
        raise ValueError("grid must be finite, 1-d and strictly increasing, with at least 2 points")
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (10,) or not np.all(np.isfinite(c0)):
        raise ValueError("c0 must be a finite coefficient vector of shape (10,), got shape %r"
                         % (c0.shape,))

    if mode == "commuting":
        if _commutativity_probe(p, t) > COMM_TOL:
            raise NonCommuting("sampled |[H(t), H(t')]| / max|H|^2 exceeds %.1e" % COMM_TOL)
    elif mode != "time_ordered":
        raise ValueError("mode must be 'time_ordered' or 'commuting'")
    x0 = assemble_invariant(c0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = (_commuting_propagators(p, t) if mode == "commuting"
             else _prefix_products(_refined_propagators(p, t)))
        size = _squared_norms(u) * max(1.0, float(np.linalg.norm(x0)))
    bad = ~(size <= _U_BOUND)  # a NaN compares False
    if np.any(bad):
        k = int(np.argmax(bad))
        raise Sp4lrError("propagator too large at t = %.6g: ||U||_F^2 max(1, ||I(0)||) = %.3e "
                         "exceeds %.3e" % (t[k], size[k], _U_BOUND))

    traj = coefficients_of_element(_real_conjugate_by(u, x0))
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


def _closed_form_combination(params: ClosedFormParams, cp, cm, rp, rm) -> np.ndarray:
    """The ten coefficients as one linear combination of the mode terms
    cos(a theta/2) (``cp``, ``cm``) and ``_sin_ratio(a, theta)`` (``rp``,
    ``rm``) of a_plus and a_minus; applied to their theta-derivatives it
    gives dc/dtheta."""
    alpha = params.alpha
    sq = np.sqrt(1.0 + alpha)
    # complementary weights written as (w, 1 - w) so each pair sums to
    # exactly 1 and the seed value at theta = 0 is exact
    w3 = (sq + alpha) / (2.0 * sq)
    w4 = (sq + 1.0) / (2.0 * sq)
    c = np.zeros(np.shape(cp) + (10,), dtype=complex)
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


def _mode_terms(params: ClosedFormParams, theta):
    """a_plus, a_minus, then cos(a theta/2) and _sin_ratio(a, theta) of each."""
    ap, am = params.mode_frequencies()
    theta = np.asarray(theta, dtype=float)
    return (ap, am, np.cos(ap * theta / 2.0), np.cos(am * theta / 2.0),
            _sin_ratio(ap, theta), _sin_ratio(am, theta))


def closed_form_c(params: ClosedFormParams, theta) -> np.ndarray:
    """Closed-form coefficients at the phase theta = int_{t0}^t lam.

    Scalar theta gives shape (10,); arrays give (..., 10).  At theta = 0
    the result is exactly (0, 0, 1, 1, 0, ..., 0).
    """
    _, _, cp, cm, rp, rm = _mode_terms(params, theta)
    return _closed_form_combination(params, cp, cm, rp, rm)


def closed_form_on_grid(params: ClosedFormParams, grid, lam):
    """Closed form along a grid and its rate, ``(c, dc/dt)``, each (N, 10),
    from one theta = int_{grid[0]}^t lam, exact, and one set of mode terms.
    ``lam`` holds the caller's values of ``params.lam`` on the grid.

    The combination is linear in its mode terms, so dc/dtheta is the same
    combination of their derivatives d cos(a theta/2)/dtheta =
    -(a^2/2) _sin_ratio(a, theta) and d _sin_ratio(a, theta)/dtheta =
    cos(a theta/2)/2, both continuous through a = 0, and
    dc/dt = lam(t) dc/dtheta, exact at every sample.
    """
    t = np.asarray(grid, dtype=float)
    ap, am, cp, cm, rp, rm = _mode_terms(params, params.lam.antiderivative(t, t[0]))
    c = _closed_form_combination(params, cp, cm, rp, rm)
    dc = _closed_form_combination(params, -0.5 * ap**2 * rp, -0.5 * am**2 * rm,
                                  0.5 * cp, 0.5 * cm)
    return c, lam[:, None] * dc


def involution_residuals(c):
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
    if np.any(np.abs(chi_p) < CHI_TOL):
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


def _lr_defect(h, x, y) -> np.ndarray:
    """|i dI/dt - [H, I]| per sample (n,) in real coordinates H = phi h,
    I = phi x, dI/dt = phi y: ``h`` real (10, n), ``x`` and ``y`` real (one
    half) or C-contiguous complex (both halves), read by the real bracket R
    as interleaved (re, im).  [phi a, phi b] = i phi R(a, b), so the defect
    is i phi (y - R(h, x)), |phi_k| = 1: the products, sums and moduli of
    ``abs(1j * didt - commutator(H, I))`` up to sign, bitwise."""
    both = np.iscomplexobj(x)
    if both:
        h, x, y = np.repeat(h, 2, axis=1), x.view(float), y.view(float)
    d = y - _real_commutator(h, x)
    return np.abs(d.view(complex) if both else d).max(axis=0)


def lr_residual(invariant, hamiltonian, grid, didt=None):
    """Max-norm defect of  i dI/dt - [H, I]  (hbar = 1) on ``grid``, and
    the defect at every sample: ``(worst, per_sample)``.

    ``invariant`` and ``hamiltonian`` are coefficient stacks of shape
    (N, 10) on ``grid``.  ``didt``, when given, is the exact rate of
    ``invariant`` on the grid (the closed form's lam dc/dtheta mapped onto
    the basis); then every sample counts and the grid is not read.
    Without it the derivative is taken by the 4th-order central stencil
    on a uniform grid of at least 5 points, and the two points at each
    end are excluded from the maximum.  ``per_sample`` holds the defect at
    every grid point, ends included.  It is taken by :func:`_lr_defect`
    in blocks of ``algebra._BLOCK`` samples, with H through the real-form
    guard ``algebra._real_coordinates`` (ValueError, never a dropped
    imaginary part) and, exactly, the halves of the real coordinates of I
    and dI/dt that are not 0 on the grid.
    """
    icoef = np.asarray(invariant, dtype=complex)
    if didt is None:
        t = np.asarray(grid, dtype=float)
        if t.size < 5:
            raise GridTooCoarse("need at least 5 grid points for the 4th-order stencil")
        step = t[1] - t[0]
        if not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-15):
            raise ValueError("lr_residual expects a uniform grid")
        didt, counted = central_diff(icoef, step), slice(2, -2)
    else:
        didt, counted = np.asarray(didt, dtype=complex), slice(None)
    h = np.asarray(hamiltonian)
    which = sorted(set(_nonzero_halves(icoef) + _nonzero_halves(didt)))
    per_sample = np.empty(len(icoef))
    for lo in range(0, len(icoef), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        x, y = (np.ascontiguousarray((e[blk] * _REAL_PHASES.conj()).T) for e in (icoef, didt))
        if len(which) == 1:  # the one half that is not 0
            x, y = (np.ascontiguousarray((e.real, e.imag)[which[0]]) for e in (x, y))
        per_sample[blk] = _lr_defect(np.ascontiguousarray(algebra._real_coordinates(h[blk])), x, y)
    return float(per_sample[counted].max()), per_sample
