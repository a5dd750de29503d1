"""Two-dimensional point-transformation pipeline.

A time-independent reference oscillator pair
``H0 = alpha (J0'+J3') + beta (J0'-J3') + i Lambda (J1'+K3')`` in
coordinates (chi, upsilon) is mapped onto the time-dependent target
``H = a(t)(J0+J3) + b(t)(J0-J3) + i lam(t)(J1+K3)`` by the substitution

    upsilon = sigma(tau) * x,   chi = mu(tau) * y,   tau = int r dt,
    Psi = A(x, y, t) * Phi,

where sigma and mu are Ermakov-Pinney scale factors: closed-form
functions of the transformed time tau alone.  The EP state carries
their tau-derivatives, and every time derivative is taken as
d/dt = r d/dtau, so r only ever multiplies and a density r(t) that is
zero somewhere on the grid, or changes sign, needs no special case.

sigma pairs with the x direction and carries the beta frequency; mu
pairs with y and carries alpha.  (The published presentation labels the
substitution the other way round, but every operative formula
downstream -- the closed EP solutions, the prefactor A, the transformed
generators, the time-dependent Dyson map -- matches this pairing, and
only this pairing lets the transformed reference Hamiltonian satisfy the
invariant equation; the cross-check suite records the rejected variant.)

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
    GeneratorId,
    conjugate_by,
    from_matrix,
    from_quadratic_form,
    quadratic_form,
    symplectic_inverse,
    to_matrix,
)
from .errors import ArctanhDomain, ConfigInvalid, EqualFrequencies, GridTooCoarse, ProjectionLeak
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
        for name in ("alpha", "beta"):
            if getattr(self, name) == 0.0:
                raise ValueError("params.%s: must be nonzero" % name)
        if self.coupling != 0.0 and abs(self.alpha) == abs(self.beta):
            raise EqualFrequencies("params.beta: alpha = +-beta with nonzero coupling")
        if self.coupling != 0.0 and self.alpha * self.beta < 0.0:
            raise ConfigInvalid("params.beta: must have the sign of alpha when the coupling "
                                "is nonzero (the static map needs sqrt(alpha/beta) real)")


@dataclass(frozen=True)
class EPState:
    """Ermakov-Pinney scale factors at the sampled times ``t``.

    ``tau`` is the transformed time and ``r`` = dtau/dt; ``sigma_tau``,
    ``sigma_tautau`` (and those of ``mu``) are the first and second
    derivatives with respect to tau.
    """

    t: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    sigma: np.ndarray
    sigma_tau: np.ndarray
    sigma_tautau: np.ndarray
    mu: np.ndarray
    mu_tau: np.ndarray
    mu_tautau: np.ndarray

    def take(self, idx) -> "EPState":
        """The state at the samples ``idx`` (an index array or slice into ``t``)."""
        return EPState(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def _ep_factor(c, freq, tau):
    """Scale factor s = sqrt(w), w = sqrt(1+c^2) + c cos(2*freq*tau), and
    its first two tau-derivatives s' = w'/(2s), s'' = w''/(2s) - s'^2/s."""
    phase = 2.0 * freq * tau
    s = np.sqrt(np.sqrt(1.0 + c * c) + c * np.cos(phase))
    s1 = -freq * c * np.sin(phase) / s
    s2 = -2.0 * freq * freq * c * np.cos(phase) / s - s1 * s1 / s
    return s, s1, s2


def ep_state(p: PointTransformParams, t) -> EPState:
    """Ermakov-Pinney state at time(s) ``t``.

    sigma (x direction) oscillates at frequency 2*beta in the
    transformed time, mu (y direction) at 2*alpha.  Scalars and arrays
    are both accepted.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    tau = p.r.antiderivative(ts, 0.0)
    sig, sig1, sig2 = _ep_factor(p.c2, p.beta, tau)
    mu, mu1, mu2 = _ep_factor(p.c3, p.alpha, tau)
    return EPState(t=ts, tau=tau, r=p.r(ts), sigma=sig, sigma_tau=sig1, sigma_tautau=sig2,
                   mu=mu, mu_tau=mu1, mu_tautau=mu2)


def ep_residual(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Canonical Ermakov-Pinney residuals, shape (2, N).

    Row 0: r^2 (sigma'' + beta^2 sigma - beta^2 / sigma^3) with ' = d/dtau,
    the same quantity as the t-form d^2sigma/dt^2 - (dr/dt / r) dsigma/dt
    + beta^2 r^2 sigma - beta^2 r^2 / sigma^3; row 1 the same with
    (mu, alpha).  The closed-form factors satisfy this linear-in-sigma
    form; the variant with a quadratic third term is evaluated in the
    cross-check suite.
    """
    rs = ep.sigma_tautau + p.beta**2 * ep.sigma - p.beta**2 / ep.sigma**3
    rm = ep.mu_tautau + p.alpha**2 * ep.mu - p.alpha**2 / ep.mu**3
    return ep.r**2 * np.stack([rs, rm])


def target_coefficients(p: PointTransformParams, ep: EPState):
    """Target profile values (a, b, lam) at the times of the EP state ``ep``.

    a = beta r / sigma^2 multiplies the x oscillator, b = alpha r / mu^2
    the y oscillator, lam = Lambda r sigma mu the coupling.
    """
    a = p.beta * ep.r / ep.sigma**2
    b = p.alpha * ep.r / ep.mu**2
    lam = p.coupling * ep.r * ep.sigma * ep.mu
    return a, b, lam


def reference_H0(p: PointTransformParams) -> np.ndarray:
    """Reference Hamiltonian alpha (J0'+J3') + beta (J0'-J3') + i Lambda (J1'+K3')."""
    return build_H_modified(p.alpha, p.beta, p.coupling)


def _substitution_matrices(ep: EPState, p: PointTransformParams) -> np.ndarray:
    """Phase-space substitution z' = T z, rows (chi, upsilon, p_chi, p_upsilon)."""
    n = ep.t.size
    T = np.zeros((n, 4, 4))
    T[:, 0, 1] = ep.mu
    T[:, 1, 0] = ep.sigma
    T[:, 2, 1] = ep.mu_tau / p.alpha
    T[:, 2, 3] = 1.0 / ep.mu
    T[:, 3, 0] = ep.sigma_tau / p.beta
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
        c = np.asarray(e, dtype=complex)
        return np.einsum("nij,...j->n...i", self.matrix, c) if c.ndim == 1 \
            else np.einsum("nij,nj->ni", self.matrix, c)


def pushforward_shift(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Inhomogeneous element from transforming i d/dtau (hbar = 1), shape (N, 10).

    The transformed reference TDSE reads
    r * image(h) = i d/dt + shift, so the target-frame Hamiltonian
    generated by any reference h is  r * pushforward(h) - shift.
    """
    a_, b_ = p.alpha, p.beta
    cx = ep.sigma_tau**2 / (2.0 * b_) + b_ * (ep.sigma**4 - 1.0) / (2.0 * ep.sigma**2)
    cy = ep.mu_tau**2 / (2.0 * a_) + a_ * (ep.mu**4 - 1.0) / (2.0 * ep.mu**2)
    out = (np.outer(ep.sigma_tau / ep.sigma, _WXPX) + np.outer(ep.mu_tau / ep.mu, _WYPY)
           + np.outer(cx, _X2) + np.outer(cy, _Y2))
    return (ep.r[:, None] * out).astype(complex)


def _congruence(T: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coefficients of the quadratic forms T^T s T (stacks broadcast)."""
    coeffs, resid = from_quadratic_form(np.swapaxes(T, -1, -2) @ s @ T)
    if float(np.max(resid)) > PROJ_TOL:
        raise ProjectionLeak("pushforward image left the algebra span")
    return coeffs


def pushforward_map(p: PointTransformParams, ep: EPState) -> PushforwardMap:
    """Exact congruence action of the transformation on the generator basis.

    Builds the (N, 10, 10) image of all ten generators at the times of
    ``ep``; for the image of one element use :func:`pushforward`, which
    is ten times smaller.
    """
    T = _substitution_matrices(ep, p)
    coeffs = _congruence(T[:, None], quadratic_form(np.eye(10)))
    matrix = np.transpose(coeffs, (0, 2, 1))  # column g holds the image of generator g
    return PushforwardMap(t=ep.t, matrix=matrix, shift=pushforward_shift(p, ep))


def pushforward(p: PointTransformParams, ep: EPState, e) -> np.ndarray:
    """Image of an element (given in the primed basis) at the times of ``ep``.

    ``e`` is one element, shape (10,), or one element per sample, shape
    (N, 10); the result has shape (N, 10).
    Its quadratic form S is built once and pushed through T^T S T as a
    batch of 4x4 products, then back through the +i Omega bridge;
    :class:`ProjectionLeak` is raised if the image leaves the algebra
    span.
    """
    return _congruence(_substitution_matrices(ep, p), quadratic_form(e))


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
    """Static Dyson map for the reference Hamiltonian.

    ``exponent`` (the algebra element whose exponential is ``eta_matrix``)
    and ``h0`` (the Hermitian counterpart of the reference Hamiltonian)
    are coefficient arrays, shape (10,).
    """

    params: DysonParams
    exponent: np.ndarray
    eta_matrix: np.ndarray
    h0: np.ndarray
    delta: complex
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
    such parameter sets raise ArctanhDomain before Delta is formed, and
    the real-coefficient postcondition on h0 always applies.
    """
    a_, b_, lam = p.alpha, p.beta, p.coupling
    h0_ref = reference_H0(p)
    if lam == 0.0:
        eye = np.eye(4, dtype=complex)
        return DysonStatic(DysonParams(0.0, 0.0), np.zeros(10, dtype=complex), eye,
                           h0_ref, complex(a_**2 - b_**2), 0.0)
    if abs(a_) == abs(b_):
        raise EqualFrequencies("params.beta: alpha = +-beta with nonzero coupling")
    arg = 2.0 * np.sqrt(a_ * b_) * lam / (a_**2 - b_**2)
    if abs(arg) >= 1.0:
        raise ArctanhDomain("|2 sqrt(alpha beta) Lambda / (alpha^2 - beta^2)| >= 1")
    k1 = 0.5 * np.sqrt(a_ / b_) * np.arctanh(arg)
    k2 = -0.5 * np.sqrt(b_ / a_) * np.arctanh(arg)
    exponent = k1 * _Q3mJ2 + k2 * _Q3pJ2
    eta = expm(to_matrix(exponent))
    h0_conj = conjugate_by(eta, h0_ref)

    rad = (a_**2 - b_**2) ** 2 - 4.0 * a_ * b_ * lam**2
    delta = complex(np.sign(a_**2 - b_**2) * np.lib.scimath.sqrt(rad))
    d = delta
    c_j3 = ((a_ + b_) * d - (a_ - b_) ** 3) / (4.0 * a_ * b_)
    c_j0 = ((b_ - a_) * d + (a_ + b_) ** 3) / (4.0 * a_ * b_)
    pref = (a_**2 - b_**2 - d) / (4.0 * a_ * b_)
    h0_closed = (_elem({_G.J3: 1}) * c_j3 + _elem({_G.J0: 1}) * c_j0
                 + pref * ((a_ + b_) * _elem({_G.K1: 1}) - (a_ - b_) * _elem({_G.Q2: 1})))
    resid = float(np.abs(h0_conj - h0_closed).max())
    imag_leak = float(np.abs(h0_conj.imag).max())
    if max(resid, imag_leak) > tol:
        raise ProjectionLeak(
            "static-map postcondition failed: residual %.3e, imag %.3e" % (resid, imag_leak))
    return DysonStatic(DysonParams(float(k1), float(k2)), exponent, eta,
                       h0_closed, delta, resid)


def dyson_time_exponent(p: PointTransformParams, ep: EPState,
                        static: DysonStatic) -> np.ndarray:
    """Exponent of the time-dependent Dyson map at the times of ``ep``, shape (N, 10).

    kappa2 (mu/sigma)(Q3-J2) + kappa1 (sigma/mu)(Q3+J2)
    + (beta kappa1 sigma mu' + alpha kappa2 mu sigma')/(alpha beta) (K3+J1),
    ' = d/dtau; equal to the pushforward of the static exponent (tested).
    """
    k1, k2 = static.params.kappa1, static.params.kappa2
    cxy = (p.beta * k1 * ep.sigma * ep.mu_tau + p.alpha * k2 * ep.mu * ep.sigma_tau) \
        / (p.alpha * p.beta)
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
    """Closed expansion of the Hermitian invariant in Delta and the EP state
    (sigma, mu and their tau-derivatives; r does not enter)."""
    a_, b_, d = p.alpha, p.beta, static.delta
    out = 0.25 * (
        np.outer(2.0 * a_ / ep.mu**2, _elem({_G.J0: 1, _G.J3: -1, _G.K1: -1, _G.Q2: 1}))
        + np.outer(2.0 * b_ / ep.sigma**2, _elem({_G.J0: 1, _G.J3: 1, _G.K1: 1, _G.Q2: 1}))
        + np.outer(4.0 * ep.mu_tau / ep.mu, _WYPY)
        + np.outer(((a_**2 + b_**2 + d) * ep.mu**2 + 2.0 * ep.mu_tau**2) / a_, _Y2)
        + np.outer(4.0 * ep.sigma_tau / ep.sigma, _WXPX)
        + np.outer(((a_**2 + b_**2 - d) * ep.sigma**2 + 2.0 * ep.sigma_tau**2) / b_, _X2)
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
                  static: DysonStatic, return_samples: bool = False):
    """Defect of the time-dependent Dyson equation on a uniform grid.

    ``ep`` is the EP state on the grid and ``eta`` the Dyson map on it
    (:func:`dyson_time`).  Compares h(t) against
    eta H eta^-1 + i (d eta/dt) eta^-1 (hbar = 1) with the eta derivative taken
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
    if float(np.max(conj_resid)) > PROJ_TOL:
        raise ProjectionLeak("similarity-transformed Hamiltonian left the algebra span")
    deta = central_diff(eta, step)
    rhs = conj + 1j * deta @ eta_inv
    rhs_coeffs, resid = from_matrix(rhs)
    # the stencil error of d(eta)/dt is itself out-of-span; fold it into
    # the defect instead of mistaking it for a conjugation leak
    defect = np.abs(hermitian_hamiltonian_h(p, ep, static) - rhs_coeffs)
    per_sample = np.maximum(defect.max(axis=1), resid)
    worst = float(per_sample[2:-2].max())
    if return_samples:
        return worst, per_sample
    return worst


def pde_constraint_residuals(p: PointTransformParams, ep: EPState, samples):
    """Residuals of the transformed differential equation at spatial samples.

    Evaluates the first-derivative coefficients B0x, B0y and the
    potential V0 of the transformed equation (hbar = 1) with the closed
    prefactor

        A = exp{ (i / 2) [x^2 sigma sigma' / beta + y^2 mu mu' / alpha] + delta },
        delta = c1_phase - (1/2) ln(mu sigma),

    with ' = d/dtau; its time derivatives are taken as d/dt = r d/dtau.
    Returns (max|B0x|, max|B0y|, max|V0 - V_target|) over all (x, y)
    samples and at the times of the EP state ``ep``, where
    V_target = (a x^2 + 2 i lam x y + b y^2)/2; the times run along the
    first axis and the samples along the second.
    """
    xy = np.asarray(samples, dtype=float).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    a_t, b_t, lam_t = (v[:, None] for v in target_coefficients(p, ep))
    a_, b_ = p.alpha, p.beta
    sig, sig1, sig2 = ep.sigma[:, None], ep.sigma_tau[:, None], ep.sigma_tautau[:, None]
    mu, mu1, mu2 = ep.mu[:, None], ep.mu_tau[:, None], ep.mu_tautau[:, None]
    r = ep.r[:, None]
    ax_a = 1j * sig * sig1 * x / b_
    ay_a = 1j * mu * mu1 * y / a_
    axx_a = 1j * sig * sig1 / b_ + ax_a**2
    ayy_a = 1j * mu * mu1 / a_ + ay_a**2
    # d/dt = r d/dtau of the exponent: quadratic part plus delta_t
    dqx = r * (sig1**2 + sig * sig2) / b_
    dqy = r * (mu1**2 + mu * mu2) / a_
    delta_t = -0.5 * r * (mu1 / mu + sig1 / sig)
    at_a = 1j / 2.0 * (x**2 * dqx + y**2 * dqy) + delta_t
    ups, ups_t, ups_x = sig * x, r * sig1 * x, sig
    chi, chi_t, chi_y = mu * y, r * mu1 * y, mu
    b0x = -1j * ups_t / ups_x + (r / (2.0 * ups_x**2)) * 2.0 * b_ * ax_a
    b0y = -1j * chi_t / chi_y + (r / (2.0 * chi_y**2)) * 2.0 * a_ * ay_a
    v0 = (r / 2.0) * (b_ * ups**2 + 2j * p.coupling * chi * ups + a_ * chi**2) \
        - 1j * (at_a - ax_a * ups_t / ups_x - ay_a * chi_t / chi_y) \
        - (r / 2.0) * ((a_ / chi_y**2) * ayy_a + (b_ / ups_x**2) * axx_a)
    v_target = 0.5 * (a_t * x**2 + 2j * lam_t * x * y + b_t * y**2)
    return (float(np.abs(b0x).max()), float(np.abs(b0y).max()),
            float(np.abs(v0 - v_target).max()))


def metric_matrices(eta: np.ndarray) -> np.ndarray:
    """Metric rho = eta^dagger eta of the Dyson map ``eta`` (:func:`dyson_time`), shape (N, 4, 4)."""
    return np.conj(np.transpose(eta, (0, 2, 1))) @ eta


def metric_is_positive(eta: np.ndarray) -> np.ndarray:
    """Positive-definiteness of the metric at every sample (smallest eigenvalue > 0)."""
    return metric_eigenvalues(eta)[:, 0] > 0


def metric_eigenvalues(eta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the metric (real, ascending), shape (N, 4)."""
    return np.linalg.eigvalsh(metric_matrices(eta))
