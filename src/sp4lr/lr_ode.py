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
no large-norm stack is scaled and squared.  Each Magnus exponent is
formed from the coefficients of H at the nodes through the bracket and
mapped by ``to_matrix`` once, so the only 4x4 products are those of
``expm`` and of the ordered product of the steps.  They are real 4x4
products: in the basis z = D z' with D = diag(1, i, 1, -i) over
z = (x, y, px, py) every exponent -i M(...) of both Hamiltonian
families is exactly real, and U goes back to complex once, before the
conjugation.  The closed form covers the proportional profiles
a = lam, omega_x = alpha*lam, omega_y = lam.
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
    "closed_form_rate_on_grid",
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
    reads O(1) (0.082 on the rejected case of the test suite).
    """
    h = build_H_coeffs(p, np.linspace(grid[0], grid[-1], 12))
    scale = float(np.abs(h).max()) ** 2 or 1.0  # H = 0 commutes: its bracket is 0
    return float(np.abs(commutator(h[:, None], h[None])).max()) / scale


_EPS = np.finfo(float).eps
# Gauss-Legendre nodes on the unit interval: three for the 6th-order
# step, then two for the 4th-order exponent of its error estimate
_GL_NODES = 0.5 + np.array([-np.sqrt(15.0) / 10.0, 0.0, np.sqrt(15.0) / 10.0,
                            -np.sqrt(3.0) / 6.0, np.sqrt(3.0) / 6.0])
_ANCHOR_STRIDE = 32  # samples per anchor of the split commuting exponential

# The canonical map y -> i y, py -> -i py, z = D z' with D = diag(1, i, 1, -i),
# takes a matrix to D^-1 M D = M * _PHI, _PHI[j, k] = d_k / d_j, and back by
# * _PHI.conj().  Both are entrywise products by units, exact in floating
# point, and D^T Omega D = Omega, so a propagator stays symplectic.  The only
# complex part of -i M(H) is that of the coupling i lam (J1 + K3), and in
# this basis -i M(H) and every bracket, integral and exponential of such
# matrices are real.
_D = np.array([1.0, 1j, 1.0, -1j])
_PHI = _D / _D[:, None]


def _real_form(m) -> np.ndarray:
    """D^-1 m D of a stack of exponents -i M(...), as a float array.

    Raises ValueError, never dropping an imaginary part, where an entry
    of D^-1 m D is not exactly real.
    """
    r = m * _PHI
    if np.any(r.imag != 0):
        if not np.all(np.isfinite(r)):
            raise ValueError("the Hamiltonian coefficients on the grid are not finite")
        raise ValueError("the Hamiltonian coefficients are outside the real-form family: "
                         "-i M(H) is not real in the basis z = diag(1, i, 1, -i) z'")
    return r.real


def _complex_form(u) -> np.ndarray:
    """D u D^-1: real-form propagators back in the basis z = (x, y, px, py)."""
    return u * _PHI.conj()


def _ordered_product(steps) -> np.ndarray:
    """steps[..., n-1, :, :] @ ... @ steps[..., 0, :, :] by pairwise reduction."""
    while steps.shape[-3] > 1:
        paired = steps[..., 1::2, :, :] @ steps[..., 0:-1:2, :, :]
        if steps.shape[-3] % 2:
            paired = np.concatenate([paired, steps[..., -1:, :, :]], axis=-3)
        steps = paired
    return steps[..., 0, :, :]


def _magnus_exponents(p, t0, h, n: int):
    """6th- and 4th-order Magnus exponents, in coefficients, of the ``n``
    substeps that split each interval [t0, t0 + h]; shape (m, n, 10) each.

    With A = -i H at the three Gauss-Legendre nodes of a substep of
    length s (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151, §4),
    alpha1 = s A2, alpha2 = (sqrt(15)/3) s (A3 - A1),
    alpha3 = (10/3) s (A3 - 2 A2 + A1), C1 = [alpha1, alpha2],
    C2 = -(1/60)[alpha1, 2 alpha3 + C1] and
    Omega6 = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2].
    Omega4 = (s/2)(B1 + B2) + (sqrt(3) s^2 / 12)[B2, B1] takes B = -i H at
    the two nodes of the 4th-order rule, so that Omega6 - Omega4 sees
    quadrature error even where every bracket vanishes.  ``to_matrix``
    is a homomorphism, so each exponent equals its matrix form with
    matrix commutators.
    """
    s = (h / n)[:, None, None]
    nodes = t0[:, None, None] + (np.arange(n)[:, None] + _GL_NODES) * s
    sa = (-1j * s)[..., None] * build_H_coeffs(p, nodes)
    a1, a2, a3, b1, b2 = np.moveaxis(sa, -2, 0)  # s A and s B at the nodes
    alpha1 = a2
    alpha2 = (np.sqrt(15.0) / 3.0) * (a3 - a1)
    alpha3 = (10.0 / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = commutator(alpha1, alpha2)
    c2 = (-1.0 / 60.0) * commutator(alpha1, 2.0 * alpha3 + c1)
    omega6 = (alpha1 + alpha3 / 12.0
              + commutator(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
    omega4 = 0.5 * (b1 + b2) + (np.sqrt(3.0) / 12.0) * commutator(b2, b1)
    return omega6, omega4


def _magnus_propagators(p, t0, h, n: int):
    """Real-form 4x4 propagators (see ``_real_form``) of the intervals
    [t0, t0 + h], each the ordered product of ``n`` 6th-order Magnus
    substeps, one ``expm`` for the stack, and each interval's error
    estimate: the sum over its substeps of ||to_matrix(Omega6 - Omega4)||_F,
    which costs no ``expm``."""
    omega6, omega4 = _magnus_exponents(p, t0, h, n)
    delta = frobenius(to_matrix(omega6 - omega4)).sum(axis=-1)
    return _ordered_product(expm(_real_form(to_matrix(omega6)))), delta


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
    """Real forms (see ``_real_form``) of U_k = expm(-i M(Theta_k)) with
    Theta_k = int_{t0}^{t_k} H, split at every ``_ANCHOR_STRIDE``-th
    sample a into expm(-i M(Theta_k - Theta_a)) expm(-i M(Theta_a)), exact
    when H commutes across times.  Only the anchors' stack carries the
    norm of the whole integral; the full stack carries that of at most
    ``_ANCHOR_STRIDE`` - 1 intervals, so it is neither scaled nor squared
    by the largest norm."""
    theta = _real_form(-1j * to_matrix(_h_coeffs(*(f.antiderivative(t, t[0])
                                                   for f in (p.a, p.omega_x, p.omega_y, p.lam)))))
    k = np.arange(t.size) // _ANCHOR_STRIDE  # the anchor of each sample
    anchors = theta[::_ANCHOR_STRIDE]
    return expm(theta - anchors[k]) @ expm(anchors)[k]


def evolve(c0, grid, p: CoupledOscillatorParams, mode: str = "time_ordered",
           substeps: int | None = None) -> np.ndarray:
    """Propagate the coefficient vector over ``grid``; returns shape (N, 10).

    ``to_matrix`` is a Lie-algebra homomorphism, so the invariant is
    I(t) = U(t) I(0) U(t)^-1 with the 4x4 propagator dU/dt = -i H(t) U;
    the coefficients are read back from that conjugation
    (:func:`sp4lr.algebra.conjugate_by`, which raises ProjectionLeak if
    the result leaves the algebra).  Every 4x4 product of the propagator
    path is real: U is formed in the basis z = D z' with
    D = diag(1, i, 1, -i), where -i M(H) is exactly real, and mapped back
    by the exact similarity before the conjugation.  A Hamiltonian whose
    coefficients leave that real-form family raises ValueError.

    ``time_ordered``
        U is the product of per-interval propagators, each one 6th-order
        three-node Gauss-Legendre Magnus step, one ``expm`` per interval.
        With ``substeps`` None, the error estimate of each interval, the
        Frobenius norm of the gap between its 6th-order exponent and the
        4th-order two-node one, summed over its substeps, is compared with
        ``STEP_TOL``; the intervals at or above it are split into twice
        as many substeps and taken again, the others are kept.
        StepNotConverged, naming the worst interval and its estimate
        (delta), is raised after ``MAX_HALVINGS`` halvings, when an
        interval's delta stops falling between halvings, or as soon as
        the estimate's rate (16x per halving) puts ``STEP_TOL`` below the
        rounding floor of the substeps it would take (both constants are
        read at call time).  A fixed ``substeps``, an int of at least 1,
        disables the adaptivity (used for order-of-convergence studies).
    ``commuting``
        U(t) = expm(-i int_{t0}^t H ds), valid when H commutes with itself
        across times, taken split at an anchor every ``_ANCHOR_STRIDE``
        samples; a sampled commutativity probe of H guards the
        assumption (NonCommuting when it exceeds ``COMM_TOL``).
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
        raise ValueError("grid must be finite, 1-d and strictly increasing, with at least 2 points")
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (10,) or not np.all(np.isfinite(c0)):
        raise ValueError("c0 must be a finite coefficient vector of shape (10,), got shape %r"
                         % (c0.shape,))
    if substeps is not None and not (isinstance(substeps, (int, np.integer)) and substeps >= 1):
        raise ValueError("substeps must be an int >= 1 or None, got %r" % (substeps,))

    if mode == "commuting":
        if _commutativity_probe(p, t) > COMM_TOL:
            raise NonCommuting("sampled |[H(t), H(t')]| / max|H|^2 exceeds %.1e" % COMM_TOL)
        u = _commuting_propagators(p, t)
    elif mode == "time_ordered":
        if substeps is not None:
            props = _magnus_propagators(p, t[:-1], np.diff(t), substeps)[0]
        else:
            props = _refined_propagators(p, t)
        u = _prefix_products(props)
    else:
        raise ValueError("mode must be 'time_ordered' or 'commuting'")

    traj = coefficients_of_element(conjugate_by(_complex_form(u), assemble_invariant(c0)))
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


def closed_form_on_grid(params: ClosedFormParams, grid) -> np.ndarray:
    """Closed form evaluated along a grid, with theta = int_{grid[0]}^t lam exact."""
    t = np.asarray(grid, dtype=float)
    theta = params.lam.antiderivative(t, t[0])
    return closed_form_c(params, theta)


def closed_form_rate_on_grid(params: ClosedFormParams, grid) -> np.ndarray:
    """dc/dt = lam(t) dc/dtheta of :func:`closed_form_on_grid`, exact at every sample.

    The combination is linear in its mode terms, so dc/dtheta is the same
    combination of their derivatives d cos(a theta/2)/dtheta =
    -(a^2/2) _sin_ratio(a, theta) and d _sin_ratio(a, theta)/dtheta =
    cos(a theta/2)/2, both continuous through a = 0.
    """
    t = np.asarray(grid, dtype=float)
    ap, am, cp, cm, rp, rm = _mode_terms(params, params.lam.antiderivative(t, t[0]))
    dc = _closed_form_combination(params, -0.5 * ap**2 * rp, -0.5 * am**2 * rm,
                                  0.5 * cp, 0.5 * cm)
    return params.lam(t)[:, None] * dc


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


def lr_residual(invariant, hamiltonian, grid, return_samples: bool = False, didt=None):
    """Max-norm defect of  i dI/dt - [H, I]  (hbar = 1) on ``grid``.

    ``invariant`` and ``hamiltonian`` are coefficient stacks of shape
    (N, 10) on ``grid``.  ``didt``, when given, is the exact rate of
    ``invariant`` on the grid (the point transform's [I_H, K], the closed
    form's lam dc/dtheta mapped onto the basis); then every sample counts
    and the grid is not read.  Without it the derivative is taken by the
    4th-order central stencil on a uniform grid of at least 5 points,
    and the two points at each end are excluded from the maximum.  With
    ``return_samples`` the result is ``(worst, per_sample)``,
    ``per_sample`` holding the defect at every grid point, ends included.
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
        counted = slice(None)
    bracket = commutator(np.asarray(hamiltonian, dtype=complex), icoef)
    per_sample = np.abs(1j * np.asarray(didt) - bracket).max(axis=1)
    worst = float(per_sample[counted].max())
    return (worst, per_sample) if return_samples else worst
