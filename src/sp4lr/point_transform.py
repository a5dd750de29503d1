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

The substitution is linear in phase space, z' = T(t) z with T in
Sp(4, R), and every image on the grid is the one similarity
X(t) = T^-1 X0 T of the 4x4 matrix X0, with the exact symplectic
inverse T^-1 = -Omega T^T Omega: the pushed-forward generators and
elements, the invariant I_H and the Dyson map eta.  It is the symplectic
congruence T^T S T of the published presentation on Weyl quadratic
forms, because i Omega T^T S T = T^-1 M T for M = i Omega S.  The
published per-generator images coincide with this map for eight of the
ten generators and are recorded as rejected variants for the other two.

Every 4x4 product on the grid is real.  In the basis z = D z' of
``algebra`` (D = diag(1, i, 1, -i)) each entry of T connects x with y,
so D^-1 T D = i S with S = T times a fixed +-1 table, a real matrix
(:func:`_real_substitution`).  S is anti-symplectic, S^T Omega S = -Omega,
so its inverse is -symplectic_inverse(S), and conjugation by i S is
conjugation by S: an image is S^-1 X' S with X' = D^-1 X D, the Dyson
map eta' = D^-1 eta D = S^-1 eta0' S is real and symplectic, and so is
D^-1 K D = S^-1 dS/dt.  Elements are conjugated through the real basis
of ``algebra`` (``algebra._real_conjugate_by``, with its projection and
leak check).  At every public function an element stays a complex
(..., 10) coefficient array.  The time-dependent Dyson map has one
form, the real stack eta' (N, 4, 4) that :func:`dyson_time` returns and
every reader takes as is; eta = D eta' D^-1 entrywise, exactly, since D
is a unit phase.  Only the static map keeps the complex eta0
(``DysonStatic.eta_matrix``), taken to eta0' once per grid.

Every time derivative the certificates need is exact.  T is a path in
Sp(4, R), so K = T^-1 dT/dt (:func:`transport_generator`, dT/dt = r
dT/dtau from the EP state) lies in the algebra, and every image
X(t) = T^-1 X0 T of a constant X0 moves as dX/dt = [X, K].  That gives
the invariant's rate dI_H/dt = [I_H, K], the time-dependent Dyson map
eta = T^-1 eta0 T of the static one with d(eta)/dt = [eta, K], and so the
right side of the time-dependent Dyson equation with no finite
difference and no matrix exponential on the grid: each residual is
exact at every sample, ends included, on any grid.

The functions evaluated on a grid take the grid's :class:`EPState`
(``ep``, which carries the sample times ``ep.t`` and the substitution T
on them) and, where needed, the static map, the real Dyson map eta' on
that grid (``eta``, from :func:`dyson_time`), the rate K on it (``k``, from
:func:`transport_generator`) and the target Hamiltonian on it (``H``,
``build_H_modified(*target_coefficients(p, ep))``): a caller builds each
once per grid and passes it on, and no function rebuilds them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .algebra import (
    GeneratorId,
    _REAL_BASIS_FLAT,
    _REAL_D,
    _REAL_PHASES,
    _check_leak,
    _project,
    _real_conjugate_by,
    _squared_norms,
    _to_real_form,
    conjugate_by,
    symplectic_inverse,
    to_matrix,
)
from .errors import ArctanhDomain, ConfigInvalid, EqualFrequencies
from .hamiltonian import build_H_modified
from .profiles import ScalarProfile

__all__ = [
    "PointTransformParams",
    "EPState",
    "DysonStatic",
    "ep_state",
    "ep_residual",
    "ermakov_first_integral",
    "target_coefficients",
    "reference_H0",
    "pushforward_map",
    "pushforward",
    "invariant_IH",
    "transport_generator",
    "dyson_static",
    "dyson_time",
    "hermitian_invariant_Ih",
    "hermitian_invariant_expansion",
    "hermitian_hamiltonian_h",
    "tdde_residual",
    "pde_constraint_residuals",
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
    derivatives with respect to tau.  ``T`` is the phase-space
    substitution z' = T z, shape (N, 4, 4), which :func:`ep_state`
    builds from ``sigma``, ``sigma_tau``, ``mu`` and ``mu_tau``.  It is
    not rebuilt on its own: a state made with any of those four changed
    (by ``dataclasses.replace``, say) must be given the T built from the
    new values, or T describes the old ones.
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
    T: np.ndarray

    def take(self, idx) -> "EPState":
        """The state at the samples ``idx`` (an index array or slice into ``t``)."""
        return EPState(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    @cached_property
    def _s_inverse(self) -> np.ndarray:
        """S^-1 = -symplectic_inverse(S) for the real form S of ``T``
        (:func:`_real_substitution`), which every image and the Dyson map on
        these samples take.  Built on first use and kept with the state (a
        state made by ``take`` or ``dataclasses.replace`` builds its own):
        a point-transform run reads it in four stages of each block."""
        return -symplectic_inverse(_real_substitution(self.T))


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
    are both accepted.  The state carries the substitution T on ``t``,
    built here once per grid.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    tau = p.r.antiderivative(ts, 0.0)
    sig, sig1, sig2 = _ep_factor(p.c2, p.beta, tau)
    mu, mu1, mu2 = _ep_factor(p.c3, p.alpha, tau)
    return EPState(t=ts, tau=tau, r=p.r(ts), sigma=sig, sigma_tau=sig1, sigma_tautau=sig2,
                   mu=mu, mu_tau=mu1, mu_tautau=mu2,
                   T=_substitution_matrices(p, sig, sig1, mu, mu1))


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


def ermakov_first_integral(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Relative defects of the Ermakov first integrals, shape (2, N).

    Row 0: (sigma'^2 + beta^2 sigma^2 + beta^2 / sigma^2)
    / (2 beta^2 sqrt(1 + c2^2)) - 1 with ' = d/dtau; row 1 the same with
    (mu, alpha, c3).  The closed-form factors conserve both integrals
    exactly, so unlike :func:`ep_residual` these rows tie each first
    tau-derivative to its value.
    """
    rs = (ep.sigma_tau**2 + p.beta**2 * (ep.sigma**2 + ep.sigma**-2)) \
        / (2.0 * p.beta**2 * np.sqrt(1.0 + p.c2**2))
    rm = (ep.mu_tau**2 + p.alpha**2 * (ep.mu**2 + ep.mu**-2)) \
        / (2.0 * p.alpha**2 * np.sqrt(1.0 + p.c3**2))
    return np.stack([rs, rm]) - 1.0


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


# the nonzero entries of T, rows (chi, upsilon, p_chi, p_upsilon)
_T_ENTRIES = ((0, 1), (1, 0), (2, 1), (2, 3), (3, 0), (3, 2))


def _from_entries(values) -> np.ndarray:
    """(N, 4, 4) stack holding ``values`` at ``_T_ENTRIES``, zero elsewhere."""
    out = np.zeros((values[0].size, 4, 4))
    for (i, j), v in zip(_T_ENTRIES, values):
        out[:, i, j] = v
    return out


def _substitution_matrices(p: PointTransformParams, sigma, sigma_tau, mu, mu_tau) -> np.ndarray:
    """Phase-space substitution z' = T z, rows (chi, upsilon, p_chi, p_upsilon)."""
    return _from_entries((mu, sigma, mu_tau / p.alpha, 1.0 / mu, sigma_tau / p.beta, 1.0 / sigma))


def _real_signs() -> np.ndarray:
    """The 4x4 table with D^-1 T D = i (T * table), D = diag(1, i, 1, -i).

    Each entry of T connects x with y, so the unit d_k / d_j that D^-1 . D
    puts on it is +-i; the table holds -i d_k / d_j there, which must be
    exactly +1 or -1, and 1 elsewhere.
    """
    signs = np.ones((4, 4))
    for j, k in _T_ENTRIES:
        s = -1j * _REAL_D[k] / _REAL_D[j]
        if s not in (1.0, -1.0):
            raise ValueError("entry (%d, %d) of T is %r times a real one under D" % (j, k, s))
        signs[j, k] = s.real
    return signs


_S_SIGNS = _real_signs()


def _real_substitution(m) -> np.ndarray:
    """S = T * ``_S_SIGNS`` for a stack ``m`` (N, 4, 4) of T or of dT/dt: D^-1 m D = i S.

    S is real and anti-symplectic (S^T Omega S = -Omega for S from T), so
    S^-1 = -symplectic_inverse(S), and conjugation by i S is conjugation
    by S: D^-1 (T^-1 X T) D = S^-1 (D^-1 X D) S.
    """
    return m * _S_SIGNS


def transport_generator(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Coefficients of K = T^-1 dT/dt at the times of ``ep``, shape (N, 10).

    dT/dt = r dT/dtau holds the tau-derivatives of the entries of T:
    mu', sigma', mu''/alpha, -mu'/mu^2, sigma''/beta, -sigma'/sigma^2.
    T is symplectic for any values of sigma, mu and their derivatives,
    so K lies in the algebra exactly, and the image X = T^-1 X0 T of a
    constant X0 moves as dX/dt = [X, K]: the invariant I_H at the rate
    [I_H, K], the Dyson map eta as [eta, K].

    K is formed in the real form: D^-1 M(K) D = S^-1 dS/dt, real, with S
    from :func:`_real_substitution`.  It equals i sum_k r_k R_k for the
    real coordinates r = K conj(phi), which are therefore imaginary:
    K = -i phi w, w the projection of S^-1 dS/dt onto the real basis
    (:func:`_transport_coordinates`, which raises :class:`ProjectionLeak`
    on a remainder beyond ``PROJ_TOL`` of the operand sizes).
    """
    return _transport_element(_transport_coordinates(p, ep))


def _transport_coordinates(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """The real coordinates w of K = -i phi w (:func:`transport_generator`),
    coefficient-major and contiguous, shape (10, N).

    w is the projection of S^-1 dS/dt onto the real basis; raises
    :class:`ProjectionLeak` where the remainder exceeds ``PROJ_TOL`` times
    ||S^-1||_F ||dS/dt||_F or is not finite.
    """
    rate = _from_entries((ep.mu_tau, ep.sigma_tau, ep.mu_tautau / p.alpha,
                          -ep.mu_tau / ep.mu**2, ep.sigma_tautau / p.beta,
                          -ep.sigma_tau / ep.sigma**2))
    s_inv = ep._s_inverse
    s_rate = _real_substitution(ep.r[:, None, None] * rate)
    w, resid = _project((s_inv @ s_rate).reshape(-1, 16), _REAL_BASIS_FLAT)
    _check_leak(resid, np.sqrt(_squared_norms(s_inv) * _squared_norms(s_rate)),
                "transport generator")
    return np.ascontiguousarray(w.T)


def _transport_element(w) -> np.ndarray:
    """The coefficients (N, 10) of K = -i phi w for its real coordinates ``w`` (10, N), exactly."""
    return np.multiply(-1j * _REAL_PHASES, w.T, order="C")


def pushforward_map(ep: EPState) -> np.ndarray:
    """Images of the ten generators at the times of ``ep``, shape (N, 10, 10).

    Column g at sample n holds the image of generator g, so the image of
    an element c is ``pushforward_map(ep) @ c``; for one element use
    :func:`pushforward` directly, which is ten times smaller.
    """
    images = pushforward(ep, np.eye(10)[:, None])  # (10, N, 10), generator first
    return np.transpose(images, (1, 2, 0))


def pushforward(ep: EPState, e) -> np.ndarray:
    """Image T^-1 X T of an element X (given in the primed basis) at the times of ``ep``.

    ``e`` is one element, shape (10,), or one element per sample, shape
    (N, 10); the result has shape (N, 10).  A stack whose leading axes
    broadcast against the N samples, (10, 1, 10) say, gives a stack of
    images.  The similarity runs on real 4x4 stacks: in the basis
    z = D z' it is S^-1 X' S with the real S of :func:`_real_substitution`
    and its exact inverse -symplectic_inverse(S)
    (``algebra._real_conjugate_by``), which raises :class:`ProjectionLeak`
    if the image leaves the algebra span.
    """
    return _real_conjugate_by(ep._s_inverse, e, _real_substitution(ep.T))


def invariant_IH(p: PointTransformParams, ep: EPState) -> np.ndarray:
    """Invariant of the target system: the image of the reference Hamiltonian.

    Defined canonically as pushforward(reference_H0) at the times of the
    EP state ``ep``; the published closed expression for the same object
    (which differs in one generator of its first term) is evaluated by
    the cross-check suite and its deviation reported there.
    """
    return pushforward(ep, reference_H0(p))


@dataclass(frozen=True)
class DysonStatic:
    """Static Dyson map for the reference Hamiltonian.

    ``kappa1``, ``kappa2`` are the constants of the exponent; ``exponent``
    (the algebra element whose exponential is ``eta_matrix``) and ``h0``
    (the Hermitian counterpart of the reference Hamiltonian) are
    coefficient arrays, shape (10,).  ``check_residual`` is the distance
    of the adjoint action on H0 from the closed h0, and
    ``constraint_residual`` the larger defect of the two constraints the
    kappas solve.
    """

    kappa1: float
    kappa2: float
    exponent: np.ndarray
    eta_matrix: np.ndarray
    h0: np.ndarray
    delta: complex
    check_residual: float
    constraint_residual: float


def dyson_static(p: PointTransformParams) -> DysonStatic:
    """Static map eta = exp X, X = kappa1 (Q3-J2) + kappa2 (Q3+J2), and its h0.

    kappa1 = (1/2) sqrt(alpha/beta) artanh(2 sqrt(alpha beta) Lambda /
    (alpha^2 - beta^2)), kappa2 the negative mirror with the inverse
    frequency ratio.  As a 4x4 matrix X squares to w^2 times the
    identity, w^2 = -kappa1 kappa2, w = (1/2) |artanh(...)|, so
    eta = cosh(w) 1 + (sinh(w)/w) X in closed form, symplectic to
    rounding; w > 0 whenever Lambda != 0.  The kappas solve
    2 Lambda cos(2s) = (alpha +- beta)(kappa1 +- kappa2) sin(2s)/s with
    s = sqrt(kappa1 kappa2) = i w, which ``constraint_residual`` measures.

    The Hermitian counterpart h0 is the closed expansion in
    Delta = sign(alpha^2-beta^2) sqrt((alpha^2-beta^2)^2 - 4 alpha beta Lambda^2),
    the root that tends to alpha^2-beta^2 as Lambda -> 0 (negative for
    alpha < beta).  ``check_residual`` is the distance of the adjoint
    action eta H0 eta^-1 from it.  It is measured here and judged by
    the ``static_map_postcondition`` row of a point-transform report,
    not raised on.  h0 is real, so that distance also bounds the
    imaginary part of the adjoint image.

    A negative radicand would make Delta complex, but that condition is
    algebraically identical to the artanh argument leaving (-1, 1), so
    such parameter sets raise ArctanhDomain before Delta is formed.  The
    denominator alpha^2 - beta^2 is nonzero: :class:`PointTransformParams`
    rejects alpha = +-beta with nonzero coupling.
    """
    a_, b_, lam = p.alpha, p.beta, p.coupling
    h0_ref = reference_H0(p)
    if lam == 0.0:
        eye = np.eye(4, dtype=complex)
        return DysonStatic(0.0, 0.0, np.zeros(10, dtype=complex), eye,
                           h0_ref, complex(a_**2 - b_**2), 0.0, 0.0)
    arg = 2.0 * np.sqrt(a_ * b_) * lam / (a_**2 - b_**2)
    if abs(arg) >= 1.0:
        raise ArctanhDomain("|2 sqrt(alpha beta) Lambda / (alpha^2 - beta^2)| >= 1")
    ath = np.arctanh(arg)
    k1 = 0.5 * np.sqrt(a_ / b_) * ath
    k2 = -0.5 * np.sqrt(b_ / a_) * ath
    exponent = k1 * _Q3mJ2 + k2 * _Q3pJ2
    w = 0.5 * abs(ath)
    eta = np.cosh(w) * np.eye(4) + (np.sinh(w) / w) * to_matrix(exponent)
    h0_conj = conjugate_by(eta, h0_ref)

    # cos(2s) = cosh(2w) and sin(2s)/s = sinh(2w)/w for s = i w
    lhs = 2.0 * lam * np.cosh(2.0 * w)
    ratio = np.sinh(2.0 * w) / w
    constraint = max(abs(lhs - (a_ + b_) * (k1 + k2) * ratio),
                     abs(lhs - (a_ - b_) * (k1 - k2) * ratio))

    rad = (a_**2 - b_**2) ** 2 - 4.0 * a_ * b_ * lam**2
    delta = complex(np.sign(a_**2 - b_**2) * np.lib.scimath.sqrt(rad))
    d = delta
    c_j3 = ((a_ + b_) * d - (a_ - b_) ** 3) / (4.0 * a_ * b_)
    c_j0 = ((b_ - a_) * d + (a_ + b_) ** 3) / (4.0 * a_ * b_)
    pref = (a_**2 - b_**2 - d) / (4.0 * a_ * b_)
    h0_closed = (_elem({_G.J3: 1}) * c_j3 + _elem({_G.J0: 1}) * c_j0
                 + pref * ((a_ + b_) * _elem({_G.K1: 1}) - (a_ - b_) * _elem({_G.Q2: 1})))
    resid = float(np.abs(h0_conj - h0_closed).max())
    return DysonStatic(float(k1), float(k2), exponent, eta, h0_closed, delta, resid,
                       float(constraint))


def dyson_time(ep: EPState, static: DysonStatic) -> np.ndarray:
    """Time-dependent Dyson map in the real form eta' = D^-1 eta D, a real
    stack of shape (N, 4, 4).

    eta is the similarity T^-1 eta0 T of the static map eta0: the
    exponential of the pushed-forward static exponent
    kappa2 (mu/sigma)(Q3-J2) + kappa1 (sigma/mu)(Q3+J2)
    + (beta kappa1 sigma mu' + alpha kappa2 mu sigma')/(alpha beta) (K3+J1),
    ' = d/dtau, without an exponential on the grid, equal to it within
    rounding (tested).  eta moves as d(eta)/dt = [eta, K]
    (:func:`transport_generator`).

    Every product is real: eta' = S^-1 eta0' S with the real S of
    :func:`_real_substitution`, S^-1 = -symplectic_inverse(S), and
    eta0' = D^-1 eta0 D, real because the static exponent is a real
    combination of Q3 - J2 and Q3 + J2.  eta' is real and symplectic, so
    its inverse is ``symplectic_inverse(eta')``; the complex eta is
    D eta' D^-1, entrywise and exactly, and is never formed.
    """
    return ep._s_inverse @ _to_real_form(static.eta_matrix) @ _real_substitution(ep.T)


def hermitian_invariant_Ih(inv: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Hermitian invariant I_h = eta I_H eta^-1, shape (N, 10).

    ``inv`` holds the coefficients of I_H (:func:`invariant_IH`) and
    ``eta`` the real Dyson map eta' = D^-1 eta D on the same grid
    (:func:`dyson_time`); the conjugation runs per sample on eta' with
    its symplectic inverse -Omega eta'^T Omega
    (``algebra._real_conjugate_by``, which raises ValueError on a complex
    ``eta``) and is projected back, raising :class:`ProjectionLeak` where
    the remainder exceeds ``PROJ_TOL`` of the operand sizes or is not
    finite.  Must carry real coefficients (for real Delta) and equal the
    image of h0 under the transformation -- both verified by the test
    suite, alongside the closed expansion of
    :func:`hermitian_invariant_expansion`.
    """
    return _real_conjugate_by(eta, inv)


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
    identical to r * pushforward(h0) less the element that transforming
    i d/dtau adds (tested) and to the right side of the time-dependent
    Dyson equation (tdde_residual).
    """
    a_, b_, d = p.alpha, p.beta, static.delta
    out = (np.outer(ep.r * a_ / ep.mu**2, _elem({_G.J0: 1, _G.J3: -1}))
           + np.outer(ep.r * b_ / ep.sigma**2, _elem({_G.J0: 1, _G.J3: 1}))
           - np.outer(ep.r * ep.mu**2 / (4.0 * a_) * (a_**2 - b_**2 - d), _Y2)
           - np.outer(ep.r * ep.sigma**2 / (4.0 * b_) * (b_**2 - a_**2 + d), _X2))
    return out.astype(complex)


def tdde_residual(p: PointTransformParams, ep: EPState, eta: np.ndarray, k: np.ndarray,
                  static: DysonStatic, H: np.ndarray) -> np.ndarray:
    """Defect of the time-dependent Dyson equation at every sample, shape (N,).

    ``ep`` is the EP state on the grid, ``eta`` the real Dyson map
    eta' = D^-1 eta D on it (:func:`dyson_time`; a complex ``eta``
    raises ValueError), ``k`` the coefficients of K = T^-1 dT/dt on
    it (:func:`transport_generator`) and ``H`` the target Hamiltonian on
    it, ``build_H_modified(*target_coefficients(p, ep))``.  Compares
    the Hermitian h(t) (:func:`hermitian_hamiltonian_h`) against
    eta H eta^-1 + i (d eta/dt) eta^-1 (hbar = 1).  With eta = T^-1 eta0 T,
    d(eta)/dt = [eta, K] exactly, so the right side is
    eta (H + i K) eta^-1 - i K, one conjugation per sample on eta' with
    its symplectic inverse, as in :func:`hermitian_invariant_Ih`; no
    sample is excluded and the grid may be any.  The defect at a sample
    is the largest coefficient modulus of the difference.
    """
    rhs = _real_conjugate_by(eta, H + 1j * k) - 1j * k
    return np.abs(hermitian_hamiltonian_h(p, ep, static) - rhs).max(axis=1)


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


def metric_is_positive(eta: np.ndarray) -> np.ndarray:
    """Positive-definiteness of the metric at every sample (smallest eigenvalue > 0)."""
    return metric_eigenvalues(eta)[:, 0] > 0


def metric_eigenvalues(eta: np.ndarray) -> np.ndarray:
    """Eigenvalues of the metric eta^dagger eta (real, ascending), shape (N, 4).

    ``eta`` is the real Dyson map eta' = D^-1 eta D (:func:`dyson_time`).
    D is unitary, so eta^dagger eta = D eta'^T eta' D^-1 has the spectrum
    of the real symmetric eta'^T eta'.  A complex ``eta`` raises
    ValueError: eta^T eta of it is not the metric, and nothing else
    would say so.
    """
    if np.iscomplexobj(eta):
        raise ValueError("the Dyson map is complex, not in the real form "
                         "D^-1 eta D for D = diag(1, i, 1, -i)")
    return np.linalg.eigvalsh(np.swapaxes(eta, -1, -2) @ eta)
