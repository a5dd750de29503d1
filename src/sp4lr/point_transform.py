"""Two-dimensional point-transformation pipeline.

A time-independent reference oscillator pair
``H0 = alpha (J0'+J3') + beta (J0'-J3') + i Lambda (J1'+K3')`` in
coordinates (chi, upsilon) is mapped onto the time-dependent target
``H = a(t)(J0+J3) + b(t)(J0-J3) + i lam(t)(J1+K3)`` by the substitution

    upsilon = sigma(t) * x,   chi = mu(t) * y,   tau = int r dt,
    Psi = A(x, y, t) * Phi,

where sigma and mu are Ermakov-Pinney scale factors.  sigma pairs with
the x direction and carries the beta frequency; mu pairs with y and
carries alpha.  (The published presentation labels the substitution the
other way round, but every operative formula downstream -- the closed
EP solutions, the prefactor A, the transformed generators, the
time-dependent Dyson map -- matches this pairing, and only this pairing
lets the transformed reference Hamiltonian satisfy the invariant
equation; the cross-check suite records the rejected variant.)

The action on generators is computed exactly as a symplectic congruence
on Weyl quadratic forms: the substitution is linear in phase space,
z' = T(t) z, so an element with quadratic form S maps to T^T S T.  The
published per-generator images coincide with this map for eight of the
ten generators and are recorded as rejected variants for the other two.

The functions evaluated on a grid take the grid's :class:`EPState`
(``ep``, which carries the sample times ``ep.t``) and, where needed, the
static map and the Dyson map on that grid (``eta``, from
:func:`dyson_time`): a caller builds each once per grid and passes it
on, and no function rebuilds them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import (
    AlgebraElement,
    GeneratorId,
    conjugate_by,
    from_matrix,
    from_quadratic_form,
    quadratic_form,
    symplectic_inverse,
    to_matrix,
)
from .errors import ArctanhDomain, EqualFrequencies, GridTooCoarse, ProjectionLeak
from .hamiltonian import build_H_modified
from .numerics import PROJ_TOL, central_diff, expm
from .profiles import ScalarProfile

__all__ = [
    "PointTransformParams",
    "EPState",
    "DysonParams",
    "DysonStatic",
    "PushforwardMap",
    "ep_state",
    "ep_residual",
    "target_coefficients",
    "reference_H0",
    "pushforward_map",
    "pushforward",
    "pushforward_shift",
    "invariant_IH",
    "dyson_static",
    "dyson_time_exponent",
    "dyson_time",
    "hermitian_invariant_Ih",
    "hermitian_invariant_expansion",
    "hermitian_hamiltonian_h",
    "tdde_residual",
    "pde_constraint_residuals",
    "metric_matrices",
    "metric_is_positive",
    "metric_eigenvalues",
]

_G = GeneratorId


def _elem(terms):
    c = np.zeros(10, dtype=complex)
    for g, v in terms.items():
        c[g] += v
    return c


# frequently used combinations (elementary quadratics)
_X2 = _elem({_G.J0: 1, _G.J3: 1, _G.K1: -1, _G.Q2: -1})    # x^2
_Y2 = _elem({_G.J0: 1, _G.J3: -1, _G.K1: 1, _G.Q2: -1})    # y^2
_WXPX = _elem({_G.K2: 1, _G.Q1: -1})                        # (x px + px x)/2
_WYPY = _elem({_G.K2: 1, _G.Q1: 1})                         # (y py + py y)/2
_XY = _elem({_G.J1: 1, _G.K3: 1})                           # x y
_Q3mJ2 = _elem({_G.Q3: 1, _G.J2: -1})                       # y px
_Q3pJ2 = _elem({_G.Q3: 1, _G.J2: 1})                        # x py


@dataclass(frozen=True)
class PointTransformParams:
    """Reference constants, the time re-scaling profile and EP constants.

    ``alpha``, ``beta`` are the reference frequencies, ``coupling`` the
    imaginary coupling strength Lambda, ``r`` the time-map density
    tau' = r(t), ``c2``/``c3`` the Ermakov-Pinney constants of the x and
    y scale factors, and ``c1_phase`` the free constant in the real part
    of the prefactor exponent.  The integration functions gamma1, gamma2
    of the coordinate shifts are fixed to zero.
    """

    alpha: float
    beta: float
    coupling: float
    r: ScalarProfile
    c2: float = 0.0
    c3: float = 0.0
    c1_phase: float = 0.0

    def __post_init__(self):
        if self.alpha == 0.0 or self.beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        if self.coupling != 0.0 and abs(self.alpha) == abs(self.beta):
            raise EqualFrequencies("alpha = +-beta with nonzero coupling")


@dataclass(frozen=True)
class EPState:
    """Ermakov-Pinney scale factors and derivatives at the sampled times."""

    t: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    r_t: np.ndarray
    sigma: np.ndarray
    sigma_t: np.ndarray
    sigma_tt: np.ndarray
    mu: np.ndarray
    mu_t: np.ndarray
    mu_tt: np.ndarray

    def take(self, idx) -> "EPState":
        """The state at the samples ``idx`` (an index array into ``t``)."""
        return EPState(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def _accumulated_tau(p: PointTransformParams, ts: np.ndarray,
                     max_step: float = 1e-3) -> np.ndarray:
    """tau(t) = int_0^t r(s) ds at the requested times.

    The requested times are merged with a filler grid of step <= max_step
    so the Simpson accumulation is unaffected by where samples land.
    """
    ts = np.asarray(ts, dtype=float)
    tmax = float(ts.max()) if ts.size else 0.0
    tmin = float(ts.min()) if ts.size else 0.0
    if tmin < 0:
        raise ValueError("tau accumulation starts at t = 0; negative times unsupported")
    filler = np.linspace(0.0, max(tmax, max_step), int(np.ceil(max(tmax, max_step) / max_step)) + 1)
    grid = np.unique(np.concatenate([filler, np.atleast_1d(ts), [0.0]]))
    acc = p.r.antiderivative(grid)
    idx = np.searchsorted(grid, ts)
    return acc[idx]


def _ep_factor(c, freq, tau, r, r_t):
    """Scale factor sqrt(sqrt(1+c^2) + c cos(2*freq*tau)) and derivatives."""
    w = np.sqrt(1.0 + c * c) + c * np.cos(2.0 * freq * tau)
    s = np.sqrt(w)
    w_t = -2.0 * freq * r * c * np.sin(2.0 * freq * tau)
    w_tt = -2.0 * freq * c * (r_t * np.sin(2.0 * freq * tau)
                              + 2.0 * freq * r * r * np.cos(2.0 * freq * tau))
    s_t = w_t / (2.0 * s)
    s_tt = w_tt / (2.0 * s) - s_t * s_t / s
    return s, s_t, s_tt


def ep_state(p: PointTransformParams, t) -> EPState:
    """Ermakov-Pinney state at time(s) ``t``.

    sigma (x direction) oscillates at frequency 2*beta in the
    transformed time, mu (y direction) at 2*alpha.  Scalars and arrays
    are both accepted.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    tau = _accumulated_tau(p, ts)
    r = np.atleast_1d(p.r(ts))
    if np.any(np.abs(r) < 1e-12):
        raise ValueError("time-map density r(t) vanishes on the sampled window")
    r_t = np.atleast_1d(p.r.derivative(ts))
    sig, sig_t, sig_tt = _ep_factor(p.c2, p.beta, tau, r, r_t)
    mu, mu_t, mu_tt = _ep_factor(p.c3, p.alpha, tau, r, r_t)
    return EPState(t=ts, tau=tau, r=r, r_t=r_t,
                   sigma=sig, sigma_t=sig_t, sigma_tt=sig_tt,
                   mu=mu, mu_t=mu_t, mu_tt=mu_tt)


def ep_residual(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Canonical Ermakov-Pinney residuals, shape (2, N).

    Row 0: sigma'' - (r'/r) sigma' + beta^2 r^2 sigma - beta^2 r^2 / sigma^3,
    row 1 the same with (mu, alpha).  The closed-form factors satisfy
    this linear-in-sigma form; the variant with a quadratic third term is
    evaluated in the cross-check suite.
    """
    rs = ep.sigma_tt - ep.r_t / ep.r * ep.sigma_t \
        + p.beta**2 * ep.r**2 * ep.sigma - p.beta**2 * ep.r**2 / ep.sigma**3
    rm = ep.mu_tt - ep.r_t / ep.r * ep.mu_t \
        + p.alpha**2 * ep.r**2 * ep.mu - p.alpha**2 * ep.r**2 / ep.mu**3
    return np.stack([rs, rm])


def target_coefficients(p: PointTransformParams, ep: EPState):
    """Target profile values (a, b, lam) at the times of the EP state ``ep``.

    a = beta r / sigma^2 multiplies the x oscillator, b = alpha r / mu^2
    the y oscillator, lam = Lambda r sigma mu the coupling.
    """
    a = p.beta * ep.r / ep.sigma**2
    b = p.alpha * ep.r / ep.mu**2
    lam = p.coupling * ep.r * ep.sigma * ep.mu
    return a, b, lam


def reference_H0(p: PointTransformParams) -> AlgebraElement:
    """Reference Hamiltonian alpha (J0'+J3') + beta (J0'-J3') + i Lambda (J1'+K3')."""
    return AlgebraElement(_elem({_G.J0: p.alpha + p.beta, _G.J3: p.alpha - p.beta})
                          + 1j * p.coupling * _XY)


def _substitution_matrices(ep: EPState, p: PointTransformParams) -> np.ndarray:
    """Phase-space substitution z' = T z, rows (chi, upsilon, p_chi, p_upsilon)."""
    n = ep.t.size
    T = np.zeros((n, 4, 4))
    T[:, 0, 1] = ep.mu
    T[:, 1, 0] = ep.sigma
    T[:, 2, 1] = ep.mu_t / (p.alpha * ep.r)
    T[:, 2, 3] = 1.0 / ep.mu
    T[:, 3, 0] = ep.sigma_t / (p.beta * ep.r)
    T[:, 3, 2] = 1.0 / ep.sigma
    return T


@dataclass(frozen=True)
class PushforwardMap:
    """Time-indexed linear action on coefficient vectors plus the
    inhomogeneous shift from the transformed time derivative."""

    t: np.ndarray
    matrix: np.ndarray  # (N, 10, 10), image coefficients = matrix @ coeffs
    shift: np.ndarray   # (N, 10)

    def apply(self, e) -> np.ndarray:
        c = e.coeffs if isinstance(e, AlgebraElement) else np.asarray(e, dtype=complex)
        return np.einsum("nij,...j->n...i", self.matrix, c) if c.ndim == 1 \
            else np.einsum("nij,nj->ni", self.matrix, c)


def pushforward_shift(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Inhomogeneous element from transforming i hbar d/dtau, shape (N, 10).

    The transformed reference TDSE reads
    r * image(h) = i hbar d/dt + shift, so the target-frame Hamiltonian
    generated by any reference h is  r * pushforward(h) - shift.
    """
    a_, b_ = p.alpha, p.beta
    cx = ep.sigma_t**2 / (2.0 * b_ * ep.r) + b_ * ep.r * (ep.sigma**4 - 1.0) / (2.0 * ep.sigma**2)
    cy = ep.mu_t**2 / (2.0 * a_ * ep.r) + a_ * ep.r * (ep.mu**4 - 1.0) / (2.0 * ep.mu**2)
    out = (np.outer(ep.sigma_t / ep.sigma, _WXPX) + np.outer(ep.mu_t / ep.mu, _WYPY)
           + np.outer(cx, _X2) + np.outer(cy, _Y2))
    return out.astype(complex)


def _congruence(T: np.ndarray, s: np.ndarray, proj_tol: float) -> np.ndarray:
    """Coefficients of the quadratic forms T^T s T (stacks broadcast)."""
    coeffs, resid = from_quadratic_form(np.swapaxes(T, -1, -2) @ s @ T)
    if float(np.max(resid)) > proj_tol:
        raise ProjectionLeak("pushforward image left the algebra span")
    return coeffs


def pushforward_map(p: PointTransformParams, ep: EPState,
                    proj_tol: float = PROJ_TOL) -> PushforwardMap:
    """Exact congruence action of the transformation on the generator basis.

    Builds the (N, 10, 10) image of all ten generators at the times of
    ``ep``; for the image of one element use :func:`pushforward`, which
    is ten times smaller.
    """
    T = _substitution_matrices(ep, p)
    coeffs = _congruence(T[:, None], quadratic_form(np.eye(10)), proj_tol)
    matrix = np.transpose(coeffs, (0, 2, 1))  # column g holds the image of generator g
    return PushforwardMap(t=ep.t, matrix=matrix, shift=pushforward_shift(p, ep))


def pushforward(p: PointTransformParams, ep: EPState, e) -> np.ndarray:
    """Image of an element (given in the primed basis) at the times of ``ep``.

    ``e`` is one element (AlgebraElement or 10 coefficients) or one
    element per sample, shape (N, 10); the result has shape (N, 10).
    Its quadratic form S is built once and pushed through T^T S T as a
    batch of 4x4 products, then back through the +i Omega bridge;
    :class:`ProjectionLeak` is raised if the image leaves the algebra
    span.
    """
    return _congruence(_substitution_matrices(ep, p), quadratic_form(e), PROJ_TOL)


def invariant_IH(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Invariant of the target system: the image of the reference Hamiltonian.

    Defined canonically as pushforward(reference_H0) at the times of the
    EP state ``ep``; the published closed expression for the same object
    (which differs in one generator of its first term) is evaluated by
    the cross-check suite and its deviation reported there.
    """
    return pushforward(p, ep, reference_H0(p))


@dataclass(frozen=True)
class DysonParams:
    kappa1: float
    kappa2: float


@dataclass(frozen=True)
class DysonStatic:
    """Static Dyson map for the reference Hamiltonian."""

    params: DysonParams
    exponent: AlgebraElement
    eta_matrix: np.ndarray
    h0: AlgebraElement
    delta: complex
    complex_delta: bool
    check_residual: float


def dyson_static(p: PointTransformParams, tol: float = 1e-10) -> DysonStatic:
    """Static map eta = exp[kappa1 (Q3-J2) + kappa2 (Q3+J2)] and its h0.

    kappa1 = (1/2) sqrt(alpha/beta) artanh(2 sqrt(alpha beta) Lambda /
    (alpha^2 - beta^2)), kappa2 the negative mirror with the inverse
    frequency ratio.  The Hermitian counterpart h0 is produced by the
    adjoint action and must agree with its closed expansion in
    Delta = sign(alpha^2-beta^2) sqrt((alpha^2-beta^2)^2 - 4 alpha beta Lambda^2),
    the root that tends to alpha^2-beta^2 as Lambda -> 0 (negative for
    alpha < beta).

    A negative radicand would make Delta complex, but that condition is
    algebraically identical to the artanh argument leaving (-1, 1), so
    such parameter sets raise ArctanhDomain before Delta is formed; the
    ``complex_delta`` flag is kept as a defensive marker and Hermiticity
    is only asserted when it is clear.
    """
    a_, b_, lam = p.alpha, p.beta, p.coupling
    h0_ref = reference_H0(p)
    if lam == 0.0:
        eye = np.eye(4, dtype=complex)
        return DysonStatic(DysonParams(0.0, 0.0), AlgebraElement.zero(), eye,
                           h0_ref, complex(a_**2 - b_**2), False, 0.0)
    if abs(a_) == abs(b_):
        raise EqualFrequencies("alpha = +-beta with nonzero coupling")
    arg = 2.0 * np.sqrt(a_ * b_) * lam / (a_**2 - b_**2)
    if abs(arg) >= 1.0:
        raise ArctanhDomain("|2 sqrt(alpha beta) Lambda / (alpha^2 - beta^2)| >= 1")
    k1 = 0.5 * np.sqrt(a_ / b_) * np.arctanh(arg)
    k2 = -0.5 * np.sqrt(b_ / a_) * np.arctanh(arg)
    exponent = AlgebraElement(k1 * _Q3mJ2 + k2 * _Q3pJ2)
    eta = expm(to_matrix(exponent))
    h0_conj = conjugate_by(eta, h0_ref)

    rad = (a_**2 - b_**2) ** 2 - 4.0 * a_ * b_ * lam**2
    delta = complex(np.sign(a_**2 - b_**2) * np.lib.scimath.sqrt(rad))
    complex_delta = rad < 0
    d = delta
    c_j3 = ((a_ + b_) * d - (a_ - b_) ** 3) / (4.0 * a_ * b_)
    c_j0 = ((b_ - a_) * d + (a_ + b_) ** 3) / (4.0 * a_ * b_)
    pref = (a_**2 - b_**2 - d) / (4.0 * a_ * b_)
    h0_closed = AlgebraElement(_elem({_G.J3: 1}) * c_j3 + _elem({_G.J0: 1}) * c_j0
                               + pref * ((a_ + b_) * _elem({_G.K1: 1}) - (a_ - b_) * _elem({_G.Q2: 1})))
    resid = float(np.abs(h0_conj.coeffs - h0_closed.coeffs).max())
    if not complex_delta:
        imag_leak = float(np.abs(h0_conj.coeffs.imag).max())
        if max(resid, imag_leak) > tol:
            raise ProjectionLeak(
                "static-map postcondition failed: residual %.3e, imag %.3e" % (resid, imag_leak))
    return DysonStatic(DysonParams(float(k1), float(k2)), exponent, eta,
                       h0_closed, delta, complex_delta, resid)


def dyson_time_exponent(p: PointTransformParams, ep: EPState,
                        static: DysonStatic) -> np.ndarray:
    """Exponent of the time-dependent Dyson map at the times of ``ep``, shape (N, 10).

    kappa2 (mu/sigma)(Q3-J2) + kappa1 (sigma/mu)(Q3+J2)
    + (beta kappa1 sigma mu_t + alpha kappa2 mu sigma_t)/(alpha beta r) (K3+J1);
    equal to the pushforward of the static exponent (tested).
    """
    k1, k2 = static.params.kappa1, static.params.kappa2
    cxy = (p.beta * k1 * ep.sigma * ep.mu_t + p.alpha * k2 * ep.mu * ep.sigma_t) \
        / (p.alpha * p.beta * ep.r)
    out = (np.outer(k2 * ep.mu / ep.sigma, _Q3mJ2)
           + np.outer(k1 * ep.sigma / ep.mu, _Q3pJ2)
           + np.outer(cxy, _XY))
    return out.astype(complex)


def dyson_time(p: PointTransformParams, ep: EPState, static: DysonStatic) -> np.ndarray:
    """Time-dependent Dyson map as 4x4 matrices, shape (N, 4, 4).

    eta lies in Sp(4, C), so its inverse is ``symplectic_inverse(eta)``.
    """
    return expm(to_matrix(dyson_time_exponent(p, ep, static)))


def hermitian_invariant_Ih(inv: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Hermitian invariant I_h = eta I_H eta^-1, shape (N, 10).

    ``inv`` holds the coefficients of I_H (:func:`invariant_IH`) and
    ``eta`` the Dyson map on the same grid (:func:`dyson_time`); the
    conjugation runs in the 4x4 representation with the symplectic
    inverse eta^-1 = -Omega eta^T Omega and is projected back.  Must
    carry real coefficients (for real Delta) and equal the image of h0
    under the transformation -- both verified by the test suite,
    alongside the closed expansion of :func:`hermitian_invariant_expansion`.
    """
    return conjugate_by(eta, inv)


def hermitian_invariant_expansion(p: PointTransformParams, ep: EPState,
                                  static: DysonStatic) -> np.ndarray:
    """Closed expansion of the Hermitian invariant in Delta and the EP state."""
    a_, b_, d = p.alpha, p.beta, static.delta
    out = 0.25 * (
        np.outer(2.0 * a_ / ep.mu**2, _elem({_G.J0: 1, _G.J3: -1, _G.K1: -1, _G.Q2: 1}))
        + np.outer(2.0 * b_ / ep.sigma**2, _elem({_G.J0: 1, _G.J3: 1, _G.K1: 1, _G.Q2: 1}))
        + np.outer(4.0 * ep.mu_t / (ep.r * ep.mu), _WYPY)
        + np.outer(((a_**2 + b_**2 + d) * ep.mu**2 + 2.0 * ep.mu_t**2 / ep.r**2) / a_, _Y2)
        + np.outer(4.0 * ep.sigma_t / (ep.r * ep.sigma), _WXPX)
        + np.outer(((a_**2 + b_**2 - d) * ep.sigma**2 + 2.0 * ep.sigma_t**2 / ep.r**2) / b_, _X2)
    )
    return out.astype(complex)


def hermitian_hamiltonian_h(p: PointTransformParams, ep: EPState,
                            static: DysonStatic) -> np.ndarray:
    """Hermitian counterpart h(t) of the target Hamiltonian at the times of ``ep``, shape (N, 10).

    h = (r alpha / mu^2)(J0-J3) + (r beta / sigma^2)(J0+J3)
        - (r mu^2 / 4 alpha)(alpha^2 - beta^2 - Delta) * y^2-combination
        - (r sigma^2 / 4 beta)(beta^2 - alpha^2 + Delta) * x^2-combination,
    identical to r * pushforward(h0) - shift (tested) and to the right
    side of the time-dependent Dyson equation (tdde_residual).
    """
    a_, b_, d = p.alpha, p.beta, static.delta
    out = (np.outer(ep.r * a_ / ep.mu**2, _elem({_G.J0: 1, _G.J3: -1}))
           + np.outer(ep.r * b_ / ep.sigma**2, _elem({_G.J0: 1, _G.J3: 1}))
           - np.outer(ep.r * ep.mu**2 / (4.0 * a_) * (a_**2 - b_**2 - d), _Y2)
           - np.outer(ep.r * ep.sigma**2 / (4.0 * b_) * (b_**2 - a_**2 + d), _X2))
    return out.astype(complex)


def tdde_residual(p: PointTransformParams, ep: EPState, eta: np.ndarray,
                  static: DysonStatic, hbar: float = 1.0,
                  proj_tol: float = PROJ_TOL,
                  return_samples: bool = False):
    """Defect of the time-dependent Dyson equation on a uniform grid.

    ``ep`` is the EP state on the grid and ``eta`` the Dyson map on it
    (:func:`dyson_time`).  Compares h(t) against
    eta H eta^-1 + i hbar (d eta/dt) eta^-1 with the eta derivative taken
    by the 4th-order central stencil and eta^-1 = -Omega eta^T Omega
    (eta is symplectic); the maximum excludes the two points at each end.
    """
    t = ep.t
    if t.size < 5:
        raise GridTooCoarse("need at least 5 grid points")
    step = t[1] - t[0]
    if not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-15):
        raise ValueError("tdde_residual expects a uniform grid")
    eta_inv = symplectic_inverse(eta)
    a, b, lam = target_coefficients(p, ep)
    h_target = to_matrix(build_H_modified(a, b, lam))
    conj = eta @ h_target @ eta_inv
    _, conj_resid = from_matrix(conj)
    if float(np.max(conj_resid)) > proj_tol:
        raise ProjectionLeak("similarity-transformed Hamiltonian left the algebra span")
    deta = central_diff(eta, step)
    rhs = conj + 1j * hbar * deta @ eta_inv
    rhs_coeffs, resid = from_matrix(rhs)
    # the stencil error of d(eta)/dt is itself out-of-span; fold it into
    # the defect instead of mistaking it for a conjugation leak
    defect = np.abs(hermitian_hamiltonian_h(p, ep, static) - rhs_coeffs)
    per_sample = np.maximum(defect.max(axis=1), resid)
    worst = float(per_sample[2:-2].max())
    if return_samples:
        return worst, per_sample
    return worst


def pde_constraint_residuals(p: PointTransformParams, ep: EPState, samples,
                             hbar: float = 1.0):
    """Residuals of the transformed differential equation at spatial samples.

    Evaluates the first-derivative coefficients B0x, B0y and the
    potential V0 of the transformed equation with the closed prefactor

        A = exp{ (i / (2 hbar r)) [x^2 sigma sigma_t / beta
                                   + y^2 mu mu_t / alpha] + delta(t) },
        delta = c1_phase - (1/2) ln(mu sigma),

    and returns (max|B0x|, max|B0y|, max|V0 - V_target|) over all (x, y)
    samples and at the times of the EP state ``ep``, where
    V_target = (a x^2 + 2 i lam x y + b y^2)/2.
    """
    xy = np.asarray(samples, dtype=float).reshape(-1, 2)
    a_t, b_t, lam_t = target_coefficients(p, ep)
    a_, b_ = p.alpha, p.beta
    worst = [0.0, 0.0, 0.0]
    for k in range(ep.t.size):
        sig, sig_t, sig_tt = ep.sigma[k], ep.sigma_t[k], ep.sigma_tt[k]
        mu, mu_t, mu_tt = ep.mu[k], ep.mu_t[k], ep.mu_tt[k]
        r, r_t = ep.r[k], ep.r_t[k]
        x, y = xy[:, 0], xy[:, 1]
        ax_a = 1j * sig * sig_t * x / (hbar * r * b_)
        ay_a = 1j * mu * mu_t * y / (hbar * r * a_)
        axx_a = 1j * sig * sig_t / (hbar * r * b_) + ax_a**2
        ayy_a = 1j * mu * mu_t / (hbar * r * a_) + ay_a**2
        # d/dt of the exponent: quadratic part plus delta_t
        dqx = ((sig_t**2 + sig * sig_tt) / r - sig * sig_t * r_t / r**2) / b_
        dqy = ((mu_t**2 + mu * mu_tt) / r - mu * mu_t * r_t / r**2) / a_
        delta_t = -0.5 * (mu_t / mu + sig_t / sig)
        at_a = 1j / (2.0 * hbar) * (x**2 * dqx + y**2 * dqy) + delta_t
        ups, ups_t, ups_x = sig * x, sig_t * x, sig
        chi, chi_t, chi_y = mu * y, mu_t * y, mu
        b0x = -1j * hbar * ups_t / ups_x + (hbar**2 * r / (2.0 * ups_x**2)) * 2.0 * b_ * ax_a
        b0y = -1j * hbar * chi_t / chi_y + (hbar**2 * r / (2.0 * chi_y**2)) * 2.0 * a_ * ay_a
        v0 = (r / 2.0) * (b_ * ups**2 + 2j * p.coupling * chi * ups + a_ * chi**2) \
            - 1j * hbar * (at_a - ax_a * ups_t / ups_x - ay_a * chi_t / chi_y) \
            - (hbar**2 * r / 2.0) * ((a_ / chi_y**2) * ayy_a + (b_ / ups_x**2) * axx_a)
        v_target = 0.5 * (a_t[k] * x**2 + 2j * lam_t[k] * x * y + b_t[k] * y**2)
        worst[0] = max(worst[0], float(np.abs(b0x).max()))
        worst[1] = max(worst[1], float(np.abs(b0y).max()))
        worst[2] = max(worst[2], float(np.abs(v0 - v_target).max()))
    return tuple(worst)


def metric_matrices(eta: np.ndarray) -> np.ndarray:
    """Metric rho = eta^dagger eta of the Dyson map ``eta`` (:func:`dyson_time`), shape (N, 4, 4)."""
    return np.conj(np.transpose(eta, (0, 2, 1))) @ eta


def metric_is_positive(eta: np.ndarray) -> np.ndarray:
    """Positive-definiteness of the metric at every sample (smallest eigenvalue > 0)."""
    return metric_eigenvalues(eta)[:, 0] > 0


def metric_eigenvalues(eta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the metric (real, ascending), shape (N, 4)."""
    return np.linalg.eigvalsh(metric_matrices(eta))
