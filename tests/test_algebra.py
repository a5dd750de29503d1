"""Tests for the sp(4) algebra module.

The commutation table written out below is hand-typed test data; the
module itself generates structure constants from the matrices, and this
suite checks the two against each other (all 45 unordered pairs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sp4lr.algebra as algebra
from sp4lr.algebra import (
    GENERATOR_NAMES,
    OMEGA,
    GeneratorId,
    REJECTED_VARIANTS,
    adjoint,
    commutator,
    conjugate_by,
    from_matrix,
    from_quadratic_form,
    generator_matrices,
    matrix_of,
    parity_action,
    parity_matrix,
    pt_map,
    pt_signs,
    quadratic_form,
    quadratic_form_of,
    structure_constants,
    symplectic_inverse,
    to_matrix,
)
from sp4lr.errors import ProjectionLeak
from sp4lr.numerics import expm

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


def test_commutator_broadcasts_stacks():
    # (N, 1, 10) against (1, M, 10): every pair, as the commutativity probe uses it
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 1, 10)) + 1j * rng.standard_normal((6, 1, 10))
    b = rng.standard_normal((1, 5, 10)) + 1j * rng.standard_normal((1, 5, 10))
    got = commutator(a, b)
    assert got.shape == (6, 5, 10)
    ma, mb = to_matrix(a), to_matrix(b)
    proj, resid = from_matrix(ma @ mb - mb @ ma)
    assert resid.max() < 1e-12
    np.testing.assert_allclose(got, proj, rtol=0, atol=1e-12)


def test_bracket_table_is_generated_from_the_structure_constants():
    terms = algebra._BRACKET_TERMS
    assert all(i < j for i, j, _, _ in terms)
    counts = np.bincount([k for _, _, k, _ in terms], minlength=10)
    np.testing.assert_array_equal(counts, np.full(10, 3))
    # the table and antisymmetry rebuild the tensor exactly
    f = np.zeros((10, 10, 10), dtype=complex)
    for i, j, k, c in terms:
        f[i, j, k], f[j, i, k] = c, -c
    np.testing.assert_array_equal(f, structure_constants())


def test_generator_basis_is_orthonormal_exactly():
    # from_matrix reads coefficients as plain inner products with the
    # generators; that needs the Hilbert-Schmidt Gram matrix to be I
    flat = algebra._GENF
    assert np.array_equal(flat.conj() @ flat.T, np.eye(10))


def test_batched_structure_tensor_equals_per_pair_projection_bitwise():
    gen = generator_matrices()
    f = np.zeros((10, 10, 10), dtype=complex)
    for i in range(10):
        for j in range(10):
            f[i, j] = from_matrix(gen[i] @ gen[j] - gen[j] @ gen[i])[0]
    got = structure_constants()
    assert got.tobytes() == f.tobytes()
    assert not got.flags.writeable


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


STACK_SHAPES = [(), (7,), (5, 2)]  # leading axes of (4,4), (N,4,4) and (N,2,4,4) inputs


@pytest.mark.parametrize("lead", STACK_SHAPES)
def test_bridge_is_omega_product_bitwise(lead):
    # Omega is applied as the signed permutation it is; the entries are
    # exactly those of the product with the matrix OMEGA
    rng = np.random.default_rng(21)
    e = rng.standard_normal(lead + (10,)) + 1j * rng.standard_normal(lead + (10,))
    assert np.array_equal(quadratic_form(e), 1j * OMEGA @ to_matrix(e))
    s = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
    assert np.array_equal(from_quadratic_form(s, return_residual=False),
                          from_matrix(1j * OMEGA @ s, return_residual=False))


@pytest.mark.parametrize("lead", STACK_SHAPES)
def test_symplectic_inverse_is_omega_product_bitwise(lead):
    rng = np.random.default_rng(22)
    g = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
    got = symplectic_inverse(g)
    assert got.shape == g.shape
    assert np.array_equal(got, -OMEGA @ np.swapaxes(g, -1, -2) @ OMEGA)
    # on a group element it is the inverse
    u = expm(to_matrix(rng.standard_normal(lead + (10,)) * 0.3))
    np.testing.assert_allclose(u @ symplectic_inverse(u),
                               np.broadcast_to(np.eye(4), u.shape), rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("call, variant", [(lambda v: pt_map(unit("J1"), v), "PTT"),
                                           (pt_signs, "pt")])
def test_unknown_pt_variant_is_a_value_error(call, variant):
    with pytest.raises(ValueError, match="unknown PT variant '%s'" % variant):
        call(variant)


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


def group(x):
    """exp(X) of an algebra element x: a group element of Sp(4, C)."""
    return expm(to_matrix(x))


def test_conjugate_by_exponential_identity_and_inverse():
    rng = np.random.default_rng(23)
    e = rand_element(rng)
    out = conjugate_by(group(np.zeros(10)), e)
    np.testing.assert_allclose(out, e, atol=1e-13)
    x = 0.3 * rng.standard_normal(10)
    back = conjugate_by(group(x), conjugate_by(group(-1.0 * x), e))
    np.testing.assert_allclose(back, e, atol=1e-10)


def test_conjugate_by_exponential_linear_in_element():
    rng = np.random.default_rng(29)
    g = group(0.2 * rng.standard_normal(10))
    a, b = rand_element(rng), rand_element(rng)
    lhs = conjugate_by(g, a + 2.0 * b)
    rhs = conjugate_by(g, a) + 2.0 * conjugate_by(g, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_parity_involution_and_j3():
    rng = np.random.default_rng(31)
    e = rand_element(rng)
    for convention in ("reflection", "two_j3"):
        p = parity_matrix(convention)
        np.testing.assert_allclose(p @ p, np.eye(4), atol=1e-12)
        back = parity_action(parity_action(e, convention), convention)
        np.testing.assert_allclose(back, e, atol=1e-12)
    out = parity_action(unit("J3"))
    np.testing.assert_allclose(out, unit("J3"), atol=1e-14)


def test_parity_conventions_two_j3_vs_exp():
    # exp(i pi J3) = i * (2 J3): identical adjoint action
    rng = np.random.default_rng(37)
    e = rand_element(rng)
    g = expm(1j * np.pi * matrix_of("J3"))
    b, _ = from_matrix(g @ to_matrix(e) @ np.linalg.inv(g))
    np.testing.assert_allclose(parity_action(e, "two_j3"), b, atol=1e-12)


def test_projection_residual_flags_outside_span():
    # the identity and any antisymmetric quadratic-form component lie
    # outside the generator span; the projection residual must say so
    _, r = from_matrix(np.eye(4, dtype=complex))
    assert r > 1.0
    asym = np.zeros((4, 4))
    asym[0, 1], asym[1, 0] = 1.0, -1.0
    _, r2 = from_quadratic_form(asym)
    assert r2 > 0.1


def test_conjugate_by_leak_guard(monkeypatch):
    monkeypatch.setattr(algebra, "PROJ_TOL", 0.0)
    rng = np.random.default_rng(43)
    x = 0.3 * rng.standard_normal(10)
    e = rand_element(rng)
    with pytest.raises(ProjectionLeak):
        conjugate_by(group(x), e)


def test_conjugate_by_raises_on_a_nan_group_element():
    g = group(0.3 * np.random.default_rng(44).standard_normal(10))
    g[1, 2] = np.nan
    with pytest.raises(ProjectionLeak, match="conjugation residual nan"):
        conjugate_by(g, unit("J1"))


def test_parity_action_raises_on_a_nan_element():
    e = unit("J1")
    e[GeneratorId.K3] = np.nan
    with pytest.raises(ProjectionLeak, match="parity conjugation residual nan"):
        parity_action(e)


def test_symplectic_inverse_keeps_a_real_stack_real():
    # a real g stays float64, so a product with it takes numpy's real path
    rng = np.random.default_rng(24)
    g = rng.standard_normal((7, 4, 4))
    got = symplectic_inverse(g)
    assert got.dtype == np.float64
    assert np.array_equal(got, -OMEGA.real @ np.swapaxes(g, -1, -2) @ OMEGA.real)


# ---------------------------------------------------------------------------
# the real form: z = D z' with D = diag(1, i, 1, -i), c = phi r


def test_real_phases_and_basis_are_generated_and_orthonormal():
    phases = algebra._REAL_PHASES
    assert np.array_equal(phases, [1, 1j, 1j, 1, 1, 1, 1j, 1, 1, 1j])
    d = algebra._REAL_D
    want = np.linalg.inv(np.diag(d)) @ (-1j * phases[:, None, None] * generator_matrices()) @ np.diag(d)
    basis = algebra._REAL_BASIS
    assert basis.dtype == np.float64
    assert np.array_equal(basis, want)
    flat = basis.reshape(10, 16)
    assert np.array_equal(flat @ flat.T, np.eye(10))


def test_real_bracket_times_phi_is_the_complex_bracket_bitwise():
    # the 30 terms are +-1 and follow _BRACKET_TERMS in order, so every
    # product and sum of the complex bracket is repeated in real numbers
    terms = algebra._REAL_BRACKET_TERMS
    assert [t[:3] for t in terms] == [t[:3] for t in algebra._BRACKET_TERMS]
    assert {g for *_, g in terms} == {1.0, -1.0}
    rng = np.random.default_rng(25)
    a, b = rng.standard_normal((2, 10, 6, 3))
    phases = algebra._REAL_PHASES
    got = phases * np.moveaxis(algebra._real_commutator(a, b), 0, -1)
    want = -1j * commutator(phases * np.moveaxis(a, 0, -1), phases * np.moveaxis(b, 0, -1))
    assert np.array_equal(got, want)


def test_real_conjugation_equals_conjugate_by():
    # a real group stack u' = expm(sum r_k R_k) is D^-1 u D for the complex
    # u = exp(to_matrix(-i phi r)); conjugating the real and imaginary
    # halves of a complex element's real coordinates gives conjugate_by
    rng = np.random.default_rng(26)
    d = algebra._REAL_D
    phases = algebra._REAL_PHASES
    x = 0.4 * rng.standard_normal((10, 50))
    u_real = expm(algebra._real_matrix(x))
    e = rand_element(rng)
    r0 = e * phases.conj()
    y = algebra._real_conjugate_by(u_real, [r0.real, r0.imag])
    got = phases * (y[:, 0] + 1j * y[:, 1])
    want = conjugate_by(u_real * (d[:, None] / d), e)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_real_conjugation_leak_guard(monkeypatch):
    # with the symplectic inverse, u X u^-1 stays in the algebra for any
    # u, so a u' pushed off the group leaves only rounding in the
    # remainder: the guard reads it at PROJ_TOL 0, and an overflowed u'
    # raises at any tolerance
    rng = np.random.default_rng(27)
    u_real = expm(algebra._real_matrix(0.4 * rng.standard_normal((10, 5))))
    off = u_real + 1e-3 * rng.standard_normal(u_real.shape)
    r = rng.standard_normal((2, 10))
    algebra._real_conjugate_by(off, r)
    overflowed = off.copy()
    overflowed[3, 1, 2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ProjectionLeak, match="conjugation residual"):
        algebra._real_conjugate_by(overflowed, r)
    monkeypatch.setattr(algebra, "PROJ_TOL", 0.0)
    with pytest.raises(ProjectionLeak, match="conjugation residual"):
        algebra._real_conjugate_by(off, r)
