"""Unit tests for the distributed PCG solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_fsai, cg, pcg, pipelined_pcg
from repro.core.baselines import jacobi_preconditioner
from repro.dist import DistMatrix, DistVector, RowPartition
from repro.errors import ConvergenceError
from repro.matgen import PAPER_RTOL, paper_rhs, poisson2d
from repro.mpisim import CommTracker
from repro.sparse import CSRMatrix


def residual(mat, x, b):
    return np.linalg.norm(mat.spmv(x) - b)


class TestPlainCG:
    def test_solves_poisson(self, dist_poisson16):
        mat, _, da, b = dist_poisson16
        result = cg(da, b, rtol=1e-10)
        assert result.converged
        bg = b.to_global()
        assert residual(mat, result.x.to_global(), bg) <= 1.2e-10 * np.linalg.norm(bg)

    def test_identity_converges_in_one_iteration(self, rng):
        n = 16
        mat = CSRMatrix.identity(n)
        part = RowPartition.contiguous(n, 2)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(rng.standard_normal(n), part)
        result = cg(da, b)
        assert result.iterations == 1
        assert np.allclose(result.x.to_global(), b.to_global())

    def test_zero_rhs_returns_zero(self, dist_poisson16):
        _, part, da, _ = dist_poisson16
        result = cg(da, DistVector.zeros(part))
        assert result.iterations == 0
        assert result.converged
        assert np.allclose(result.x.to_global(), 0.0)

    def test_iteration_limit(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        result = cg(da, b, rtol=1e-14, max_iterations=2)
        assert not result.converged
        assert result.iterations == 2

    def test_raise_on_fail(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        with pytest.raises(ConvergenceError) as exc:
            cg(da, b, rtol=1e-14, max_iterations=2, raise_on_fail=True)
        assert exc.value.iterations == 2
        assert exc.value.residual_norm > 0

    def test_residual_history_monotone_overall(self, dist_poisson16):
        _, _, da, b = dist_poisson16
        result = cg(da, b)
        hist = np.array(result.residual_norms)
        assert hist.size == result.iterations + 1
        assert hist[-1] < hist[0] * 1e-7

    def test_rtol_zero_stops_when_rz_vanishes(self):
        # regression: rtol=0 iterated until rᵀz underflowed to 0, then
        # crashed with ZeroDivisionError at beta = rz_new / rz
        mat = poisson2d(8)
        part = RowPartition.contiguous(mat.nrows, 3)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(np.ones(mat.nrows), part)
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre, rtol=0.0, max_iterations=5_000)
        assert result.iterations < 5_000
        assert result.converged == (result.final_residual <= 0.0)
        bg = b.to_global()
        assert residual(mat, result.x.to_global(), bg) <= 1e-12 * np.linalg.norm(bg)

    def test_pipelined_rtol_zero_stops_when_recurrence_vanishes(self):
        # regression: pipelined_pcg stepped with alpha = 0 up to
        # max_iterations once rᵀu was 0, where pcg stops on rᵀz = 0; with
        # ‖r‖ = 0 both stop converged, by the same rule as pcg
        n = 4
        part = RowPartition.contiguous(n, 2)
        da = DistMatrix.from_global(CSRMatrix.identity(n), part)
        b = DistVector.from_global(np.array([1.0, 2.0, -3.0, 0.5]), part)

        def rotate(r, tracker=None):  # u ⟂ r on every rank: rᵀu = 0 exactly
            return DistVector(part, [np.array([v[1], -v[0]]) for v in r.parts])

        for solve in (pcg, pipelined_pcg):
            stalled = solve(da, b, precond=rotate, rtol=0.0, max_iterations=500)
            assert (stalled.iterations, stalled.converged) == (0, False)
            exact = solve(da, b, rtol=0.0, max_iterations=500)
            assert (exact.iterations, exact.converged) == (1, True)
            assert exact.final_residual == 0.0

    def test_breakdown_on_indefinite(self):
        dense = np.array([[1.0, 4.0], [4.0, 1.0]])
        mat = CSRMatrix.from_dense(dense)
        part = RowPartition.contiguous(2, 1)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(np.array([1.0, -1.0]), part)
        result = cg(da, b, max_iterations=50)
        assert not result.converged  # dᵀAd < 0 triggers the breakdown guard


class TestPreconditionedCG:
    def test_fsai_reduces_iterations(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        plain = cg(da, b)
        pre = build_fsai(mat, part)
        precond = pcg(da, b, precond=pre.apply)
        assert precond.converged
        assert precond.iterations < plain.iterations

    def test_jacobi_preconditioner_converges(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        result = pcg(da, b, precond=jacobi_preconditioner(da))
        assert result.converged
        bg = b.to_global()
        assert residual(mat, result.x.to_global(), bg) <= 1.1e-8 * np.linalg.norm(bg)

    def test_solution_matches_direct_solve(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre.apply, rtol=1e-12)
        direct = np.linalg.solve(mat.to_dense(), b.to_global())
        assert np.allclose(result.x.to_global(), direct, atol=1e-6)

    def test_paper_protocol_end_to_end(self):
        mat = poisson2d(24)
        part = RowPartition.from_matrix(mat, 4, seed=0)
        da = DistMatrix.from_global(mat, part)
        b = DistVector.from_global(paper_rhs(mat, seed=11), part)
        pre = build_fsai(mat, part)
        result = pcg(da, b, precond=pre.apply, rtol=PAPER_RTOL)
        assert result.converged
        assert result.residual_norms[-1] <= PAPER_RTOL * result.residual_norms[0]

    def test_tracker_records_traffic(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        tracker = CommTracker()
        result = pcg(da, b, precond=pre.apply, tracker=tracker)
        assert tracker.total_messages > 0
        assert tracker.collective_calls["allreduce"] >= 3 * result.iterations

    def test_spmd_and_bsp_iteration_counts_agree(self, dist_poisson16):
        from repro.dist import spmd_cg

        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        bsp = pcg(da, b, precond=pre.apply, rtol=1e-8)
        spmd_x, spmd_iters = spmd_cg(
            da, b, rtol=1e-8, precond_pair=(pre.g, pre.gt)
        )
        assert spmd_iters == bsp.iterations
        assert np.allclose(spmd_x.to_global(), bsp.x.to_global(), atol=1e-10)
