"""Tests for the sp(4) algebra module.

The commutation table written out below is hand-typed test data; the
module itself generates structure constants from the matrices, and this
suite checks the two against each other (all 45 unordered pairs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4lr.algebra import (
    GENERATOR_NAMES,
    OMEGA,
    GeneratorId,
    REJECTED_VARIANTS,
    adjoint,
    commutator,
    from_matrix,
    from_quadratic_form,
    group_conjugate,
    matrix_of,
    parity_action,
    parity_matrix,
    pt_map,
    quadratic_form,
    quadratic_form_of,
    structure_constants,
    to_matrix,
)
from sp4lr.errors import ProjectionLeak

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS[_i, _j, _k] = 1.0
    EPS[_j, _i, _k] = -1.0


def expected_bracket(a: str, b: str) -> np.ndarray:
    """Hand-typed commutation table: [J_i,J_j]=i eps J_k, [J_i,K_j]=i eps K_k,
    [J_i,Q_j]=i eps Q_k, [J_i,J_0]=0, [K_i,J_0]=i Q_i, [Q_i,J_0]=-i K_i,
    [K_i,K_j]=[Q_i,Q_j]=-i eps J_k, [K_i,Q_j]=i delta_ij J_0."""
    out = np.zeros(10, dtype=complex)
    if a == "J0" and b == "J0":
        return out
    if b == "J0":
        fam, i = a[0], int(a[1])
        if fam == "J":
            return out
        if fam == "K":
            out[GeneratorId["Q%d" % i]] = 1j
        else:
            out[GeneratorId["K%d" % i]] = -1j
        return out
    if a == "J0":
        return -expected_bracket(b, a)
    fa, ia = a[0], int(a[1])
    fb, ib = b[0], int(b[1])
    if fa == "J" and fb == "J":
        for k in range(1, 4):
            out[GeneratorId["J%d" % k]] = 1j * EPS[ia - 1, ib - 1, k - 1]
        return out
    if fa == "J":
        for k in range(1, 4):
            out[GeneratorId["%s%d" % (fb, k)]] = 1j * EPS[ia - 1, ib - 1, k - 1]
        return out
    if fb == "J":
        return -expected_bracket(b, a)
    if fa == fb:  # KK or QQ
        for k in range(1, 4):
            out[GeneratorId["J%d" % k]] = -1j * EPS[ia - 1, ib - 1, k - 1]
        return out
    if fa == "K" and fb == "Q":
        if ia == ib:
            out[GeneratorId.J0] = 1j
        return out
    return -expected_bracket(b, a)


def rand_element(rng):
    return rng.standard_normal(10) + 1j * rng.standard_normal(10)


def unit(name):
    return np.eye(10)[GeneratorId[name]]


# ---------------------------------------------------------------------------
# generator matrices


def test_symplectic_condition_exact():
    for name in GENERATOR_NAMES:
        m = matrix_of(name)
        assert np.abs(OMEGA @ m + m.T @ OMEGA).max() == 0.0


def test_hermiticity_split():
    # J matrices Hermitian, Q and K matrices anti-Hermitian
    for name in GENERATOR_NAMES:
        m = matrix_of(name)
        if name.startswith("J"):
            np.testing.assert_array_equal(m, m.conj().T)
        else:
            np.testing.assert_array_equal(m, -m.conj().T)


def test_j0_and_k2_block_forms():
    half_i = 0.5j
    j0 = np.zeros((4, 4), dtype=complex)
    j0[:2, 2:] = half_i * np.eye(2)
    j0[2:, :2] = -half_i * np.eye(2)
    np.testing.assert_array_equal(matrix_of("J0"), j0)
    k2 = half_i * np.diag([1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(matrix_of("K2"), k2)


def test_all_generators_traceless():
    for name in GENERATOR_NAMES:
        assert abs(np.trace(matrix_of(name))) == 0.0


def test_rejected_j2_variant_breaks_table():
    # the anti-Hermitian J2 scaling fails [J1, J2] = i J3
    j1, j3 = matrix_of("J1"), matrix_of("J3")
    bad = REJECTED_VARIANTS["J2_antihermitian"]
    assert np.abs((j1 @ bad - bad @ j1) - 1j * j3).max() > 0.5
    good = matrix_of("J2")
    np.testing.assert_allclose(j1 @ good - good @ j1, 1j * j3, atol=1e-15)


# ---------------------------------------------------------------------------
# structure constants and commutators


def test_all_45_commutators_match_table():
    worst = 0.0
    for i, a in enumerate(GENERATOR_NAMES):
        for b in GENERATOR_NAMES[i + 1:]:
            got = commutator(unit(a), unit(b))
            worst = max(worst, np.abs(got - expected_bracket(a, b)).max())
    assert worst < 1e-12


def test_commutator_matches_matrix_bracket():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rand_element(rng), rand_element(rng)
        alg = commutator(a, b)
        ma, mb = to_matrix(a), to_matrix(b)
        proj, resid = from_matrix(ma @ mb - mb @ ma)
        assert resid < 1e-12
        np.testing.assert_allclose(alg, proj, atol=1e-12)


def test_structure_antisymmetry():
    f = structure_constants()
    np.testing.assert_allclose(f, -np.transpose(f, (1, 0, 2)), atol=0)


def test_jacobi_identity_all_triples():
    f = structure_constants()
    jac = (np.einsum("ijm,mkl->ijkl", f, f)
           + np.einsum("jkm,mil->ijkl", f, f)
           + np.einsum("kim,mjl->ijkl", f, f))
    assert np.abs(jac).max() < 1e-12


def test_specific_brackets():
    j1j2 = commutator(unit("J1"), unit("J2"))
    np.testing.assert_allclose(j1j2, unit("J3") * 1j, atol=1e-14)
    k1q1 = commutator(unit("K1"), unit("Q1"))
    np.testing.assert_allclose(k1q1, unit("J0") * 1j, atol=1e-14)
    k1q2 = commutator(unit("K1"), unit("Q2"))
    assert np.abs(k1q2).max() == 0.0


# ---------------------------------------------------------------------------
# to_matrix / from_matrix


def test_to_matrix_zero_and_unit():
    assert np.abs(to_matrix(np.zeros(10))).max() == 0.0
    np.testing.assert_array_equal(to_matrix(unit("J0")), matrix_of("J0"))


def test_ansatz_c3c4_display():
    # c3 = c4 = 1 over the invariant combinations is 2*J2; its matrix is
    # the displayed i*[[0,-1,0,0],[1,0,0,0],[0,0,0,-1],[0,0,1,0]]
    from sp4lr.lr_ode import assemble_invariant

    c = np.zeros(10)
    c[2] = c[3] = 1.0
    m = to_matrix(assemble_invariant(c))
    want = 1j * np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                         dtype=complex)
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_from_matrix_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        e = rand_element(rng)
        c, r = from_matrix(to_matrix(e))
        np.testing.assert_allclose(c, e, atol=1e-13)
        assert r < 1e-13


def test_from_matrix_identity_residual_two():
    c, r = from_matrix(np.eye(4, dtype=complex))
    assert np.abs(c).max() < 1e-13
    assert r == pytest.approx(2.0, abs=1e-12)


def test_from_matrix_unit_generator():
    c, r = from_matrix(matrix_of("Q3"))
    np.testing.assert_allclose(c, unit("Q3"), atol=1e-14)
    assert r < 1e-13


def test_from_matrix_batched():
    rng = np.random.default_rng(3)
    stack = np.stack([to_matrix(rand_element(rng)) for _ in range(6)])
    c, r = from_matrix(stack)
    assert c.shape == (6, 10) and r.shape == (6,)
    assert r.max() < 1e-12


# ---------------------------------------------------------------------------
# quadratic-form bridge


def test_bridge_both_ways():
    for name in GENERATOR_NAMES:
        s = quadratic_form_of(name)
        np.testing.assert_array_equal(s, s.T)  # symmetric Weyl form
        np.testing.assert_allclose(1j * OMEGA @ s, matrix_of(name), atol=1e-15)
    rng = np.random.default_rng(5)
    e = rand_element(rng)
    c, r = from_quadratic_form(quadratic_form(e))
    np.testing.assert_allclose(c, e, atol=1e-13)
    assert r < 1e-12


def test_known_quadratic_forms():
    # J0 = (px^2 + py^2 + x^2 + y^2)/4 over z = (x, y, px, py)
    np.testing.assert_allclose(quadratic_form_of("J0"), np.eye(4) / 2.0, atol=1e-15)
    # K2 = symmetrized (x px + y py)/... couples x<->px and y<->py
    s = quadratic_form_of("K2")
    want = np.zeros((4, 4))
    want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 0.5
    np.testing.assert_allclose(s, want, atol=1e-15)


# ---------------------------------------------------------------------------
# antilinear maps, adjoint, parity


def test_pt_signs():
    assert pt_map(unit("J1"))[GeneratorId.J1] == -1.0
    assert pt_map(unit("J0") * 1j)[GeneratorId.J0] == -1j
    assert pt_map(unit("J0"), "PT_tilde")[GeneratorId.J0] == -1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False), min_size=10, max_size=10),
       st.sampled_from(["PT", "PT_tilde"]))
def test_pt_involution(coeffs, variant):
    e = np.array(coeffs)
    back = pt_map(pt_map(e, variant), variant)
    np.testing.assert_array_equal(back, e)


@pytest.mark.parametrize("variant", ["PT", "PT_tilde"])
def test_pt_is_antilinear_automorphism(variant):
    # [phi(a), phi(b)] = phi([a, b]) for the antilinear symmetry
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, b = rand_element(rng), rand_element(rng)
        lhs = commutator(pt_map(a, variant), pt_map(b, variant))
        rhs = pt_map(commutator(a, b), variant)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adjoint():
    e = 1.0 * unit("J1") + 2.0 * unit("K3")
    assert adjoint(e) is not e
    np.testing.assert_array_equal(adjoint(e), e)  # real unchanged
    e2 = 1j * 0.7 * unit("J1") + 1j * 0.7 * unit("K3")
    np.testing.assert_array_equal(adjoint(e2), -e2)
    rng = np.random.default_rng(2)
    e3 = rand_element(rng)
    np.testing.assert_array_equal(adjoint(adjoint(e3)), e3)
    # Hermitian as an operator means real coefficients
    assert np.abs(e.imag).max() <= 1e-12 and np.abs(e2.imag).max() > 1e-12


def test_group_conjugate_identity_and_inverse():
    rng = np.random.default_rng(23)
    e = rand_element(rng)
    out = group_conjugate(np.zeros(10), e)
    np.testing.assert_allclose(out, e, atol=1e-13)
    x = 0.3 * rng.standard_normal(10)
    back = group_conjugate(x, group_conjugate(-1.0 * x, e))
    np.testing.assert_allclose(back, e, atol=1e-10)


def test_group_conjugate_linear_in_element():
    rng = np.random.default_rng(29)
    x = 0.2 * rng.standard_normal(10)
    a, b = rand_element(rng), rand_element(rng)
    lhs = group_conjugate(x, a + 2.0 * b)
    rhs = group_conjugate(x, a) + 2.0 * group_conjugate(x, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_parity_involution_and_j3():
    rng = np.random.default_rng(31)
    e = rand_element(rng)
    for convention in ("reflection", "two_j3", "exp_j3"):
        p = parity_matrix(convention)
        np.testing.assert_allclose(p @ p, np.sign(np.trace(p @ p) / 4.0) * np.eye(4), atol=1e-12)
        back = parity_action(parity_action(e, convention), convention)
        np.testing.assert_allclose(back, e, atol=1e-12)
    out = parity_action(unit("J3"))
    np.testing.assert_allclose(out, unit("J3"), atol=1e-14)


def test_parity_conventions_two_j3_vs_exp():
    # exp(i pi J3) = i * (2 J3): identical adjoint action
    rng = np.random.default_rng(37)
    e = rand_element(rng)
    a = parity_action(e, "two_j3")
    b = parity_action(e, "exp_j3")
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_projection_residual_flags_outside_span():
    # the identity and any antisymmetric quadratic-form component lie
    # outside the generator span; the projection residual must say so
    _, r = from_matrix(np.eye(4, dtype=complex))
    assert r > 1.0
    asym = np.zeros((4, 4))
    asym[0, 1], asym[1, 0] = 1.0, -1.0
    _, r2 = from_quadratic_form(asym)
    assert r2 > 0.1


def test_group_conjugate_leak_guard():
    rng = np.random.default_rng(43)
    x = 0.3 * rng.standard_normal(10)
    e = rand_element(rng)
    with pytest.raises(ProjectionLeak):
        group_conjugate(x, e, proj_tol=0.0)
