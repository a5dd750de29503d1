"""Tests for the adjudication records: adopted forms pass, variants get flagged."""

import numpy as np
import pytest

from sp4lr import algebra
from sp4lr.algebra import _real_commutator, _real_coordinates, commutator, generator_matrices
from sp4lr.hamiltonian import build_H_modified
from sp4lr.lr_ode import lr_residual
from sp4lr.crosschecks import (
    _commutator_table_error,
    ansatz_row7_record,
    ep_form_record,
    generator_j2_record,
    invariant_equation_records,
    invariant_equation_variants,
    invariant_image_variant,
    ode_matrix_variant_records,
    parity_convention_record,
    point_transform_records,
    pushforward_row_records,
    standard_records,
)
from sp4lr.point_transform import (
    PointTransformParams,
    _transport_coordinates,
    ep_residual,
    ep_state,
    invariant_IH,
    target_coefficients,
    transport_generator,
)
from sp4lr.profiles import ScalarProfile

P = PointTransformParams(alpha=2.0, beta=1.0, coupling=0.5,
                         r=ScalarProfile.constant(1.0), c2=0.2, c3=0.2)
GRID = np.arange(0.0, 2.0 + 1e-12, 2e-3)
EP = ep_state(P, GRID)
INV = invariant_IH(P, EP)
INV_RATE = commutator(INV, transport_generator(P, EP))
# the real coordinates of I_H and of its rate [I_H, K] = phi R(INV_R, w) for
# K = -i phi w, as the run passes them to the ledger
INV_R = np.ascontiguousarray(_real_coordinates(INV))
RATE = _real_commutator(INV_R, _transport_coordinates(P, EP))
# the adopted residuals, as a point-transform run computes them for its check rows
EP_RESID = float(np.abs(ep_residual(P, EP)).max())
A, B, LAM = target_coefficients(P, EP)
H = build_H_modified(A, B, LAM)
LR_RESID = lr_residual(INV, H, GRID, didt=INV_RATE)[0]


def test_batched_commutator_table_is_the_pair_loop():
    # one batched product against the 100 pairs taken one at a time
    f = algebra.structure_constants()

    def pair_loop(gen):
        return max(float(np.abs(gen[i] @ gen[j] - gen[j] @ gen[i]
                                - np.tensordot(f[i, j], gen, axes=(0, 0))).max())
                   for i in range(10) for j in range(10))

    variant = generator_matrices().copy()
    variant[2] = algebra.REJECTED_VARIANTS["J2_antihermitian"]
    for gen, want in ((generator_matrices(), 0.0), (variant, 0.7071067811865476)):
        assert _commutator_table_error(gen) == pair_loop(gen) == want


def test_generator_variant_flagged():
    rec = generator_j2_record(_commutator_table_error(generator_matrices()))
    assert rec.adopted_residual < 1e-12
    assert rec.variant_residual > 0.5
    assert rec.variant_flagged


def test_ansatz_row_variant_flagged():
    rec = ansatz_row7_record()
    assert rec.adopted_residual < 1e-14
    assert rec.variant_residual > 0.5
    assert rec.variant_flagged


def test_ode_matrix_variants_flagged():
    recs = ode_matrix_variant_records()
    assert len(recs) == 2
    for rec in recs:
        assert rec.adopted_residual == 0.0
        assert rec.variant_residual > 0.1
        assert rec.variant_flagged


def test_parity_convention_record():
    rec = parity_convention_record()
    assert rec.adopted_residual == 0.0     # reflection reproduces the sign table
    assert rec.variant_residual >= 2.0     # 2*J3 conjugation does not


def test_invariant_image_variant_fails_invariant_equation():
    rec, _ = invariant_equation_records(P, EP, INV_R, RATE, H, LAM, LR_RESID)
    assert rec.adopted_residual < 1e-8
    assert rec.variant_residual > 1e-3
    assert rec.variant_flagged


def test_invariant_image_variant_differs_by_j1_k1_term():
    ep = ep_state(P, np.array([0.7]))
    delta = invariant_image_variant(P, ep)[0] - invariant_IH(P, ep)[0]
    coef = P.beta / (2.0 * ep.sigma[0] ** 2)
    want = np.zeros(10, dtype=complex)
    want[1] = coef    # J1
    want[7] = -coef   # K1
    np.testing.assert_allclose(delta, want, atol=1e-12)


def test_ep_form_variant_flagged():
    rec = ep_form_record(P, EP, EP_RESID)
    assert rec.adopted_residual < 1e-8
    assert rec.variant_residual > 1e-2
    assert rec.variant_flagged


def test_target_assignment_variant_flagged():
    _, rec = invariant_equation_records(P, EP, INV_R, RATE, H, LAM, LR_RESID)
    assert rec.adopted_residual < 1e-8
    assert rec.variant_residual > 1e-3
    assert rec.variant_flagged
    # the real-coordinate defect is the complex one with the exact rate, bitwise
    swapped = build_H_modified(P.beta * EP.r / EP.mu**2, P.alpha * EP.r / EP.sigma**2, LAM)
    assert rec.variant_residual == lr_residual(INV, swapped, GRID, didt=INV_RATE)[0]


@pytest.mark.parametrize("size", [100, 499])
def test_invariant_equation_variants_over_blocks_are_those_of_the_grid(size):
    # blocks of 100 samples and a last one of a single sample, or of 499
    # and a last one of three: the largest over the blocks is, bitwise, the
    # stencil lr_residual of the whole grid and the exact-rate one of the
    # swapped pairing
    swapped = build_H_modified(P.beta * EP.r / EP.mu**2, P.alpha * EP.r / EP.sigma**2, LAM)
    n = GRID.size
    assert n % size in (1, 3)
    worst = np.full(2, -np.inf)
    for lo in range(0, n, size):
        blk = slice(lo, min(lo + size, n))
        worst = np.maximum(worst, invariant_equation_variants(
            P, EP, blk, np.ascontiguousarray(INV_R[:, blk]), np.ascontiguousarray(RATE[:, blk]),
            H[blk], LAM[blk]))
    assert worst[0] == lr_residual(invariant_image_variant(P, EP), H, GRID)[0]
    assert worst[1] == lr_residual(INV, swapped, GRID, didt=INV_RATE)[0]


def test_pushforward_row_records():
    recs = pushforward_row_records(P, ep_state(P, [0.7]))
    by_name = {r.name: r for r in recs}
    assert by_name["image_row_j3"].adopted_residual < 1e-12
    assert by_name["image_row_j3"].variant_flagged
    assert by_name["image_row_k1"].variant_residual > 1e-3


def test_bundles_and_serialization():
    recs = standard_records(_commutator_table_error(generator_matrices())) + point_transform_records(
        P, EP, invariant_equation_variants(P, EP, slice(0, GRID.size), INV_R, RATE, H, LAM),
        EP_RESID, LR_RESID)
    names = [r.name for r in recs]
    assert len(names) == len(set(names))
    for rec in recs:
        d = rec.to_dict()
        assert set(d) >= {"name", "adjudicator", "adopted_residual",
                          "variant_residual", "variant_flagged"}
