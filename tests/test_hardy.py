"""Frequency grids and Hardy norm estimation."""

import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor import hardy, solver
from sgmor.circuits import lowpass_benchmark_text
from sgmor.descriptor import DescriptorSystem
from sgmor.galerkin import GalerkinSystem, Selection
from sgmor.solver import RESIDUAL_RTOL, PoleProximityError, ResidualMissError, SolverStats

from conftest import perturbed_gmres, scalar_galerkin
from oracles import dense_transfer, series_residuals


def first_order():
    return DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))


def as_csr(sys):
    return DescriptorSystem(sp.csr_matrix(sys.E), sp.csr_matrix(sys.A), sys.B, sp.csr_matrix(sys.C))


def split_system(K, n_e, M):
    """The coupling _gmres_schur takes, for K ordered with its n_e
    eliminated states first and M its mean block."""
    K = sp.csr_array(K)
    coupling = solver._Coupling(K[:n_e, n_e:], K[n_e:, :n_e], len(M))
    coupling.set_values(coupling.L.data, coupling.U.data, np.linalg.inv(M))
    return coupling


def gmres(coupling, M, b, V, H):
    """_gmres_schur from a zero start, with fresh iterate and residual vectors."""
    return solver._gmres_schur(coupling, M, np.linalg.inv(M), b, V, H, np.empty_like(b), np.empty_like(b))


def galerkin_solver(gsys, stats):
    """The ShiftedSolver sample_transfer runs on a Galerkin system."""
    return solver.ShiftedSolver(gsys.system.E, gsys.system.A, stats, gsys.even_odd_split())


def loglog_slope(w_lo: float, h_lo: float, w_hi: float, h_hi: float) -> float:
    """Slope of log|H| against log omega between two samples of |H|:
    -inf where |H| vanishes at w_hi, 0 where it vanishes only at w_lo."""
    if h_hi == 0.0:
        return -np.inf
    if h_lo == 0.0:
        return 0.0
    return float(np.log10(h_hi / h_lo) / np.log10(w_hi / w_lo))


def two_cyclic_system(rng, blocks_e, blocks_o, n, eps, dtype=complex):
    """(K, M, b) with K = I (x) M + eps * sum_k G_k (x) K_k, each G_k coupling
    only the first blocks_e blocks with the last blocks_o, as the degree
    parities of a Galerkin system are coupled; real for dtype=float."""

    def unit(*shape):
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        X = X if dtype is complex else X.real
        return X / np.linalg.norm(X, 2)

    M = 2.0 * np.eye(n) + unit(n, n)
    blocks = blocks_e + blocks_o
    K = np.kron(np.eye(blocks), M)
    for _ in range(2):
        G = np.zeros((blocks, blocks))
        G[:blocks_e, blocks_e:] = rng.normal(size=(blocks_e, blocks_o))
        G += G.T
        K += eps * np.kron(G / np.linalg.norm(G, 2), unit(n, n))
    b = rng.normal(size=blocks * n) + 1j * rng.normal(size=blocks * n)
    return K, M, (b if dtype is complex else b.real)


def pair_difference_norms(sys_a, sys_b, grid):
    return hardy.difference_norms(sg.sample_transfer(sys_a, grid), sys_b, grid)


def random_stable_dae(n, n_alg, seed):
    """E = P diag(I, 0) R, A = P diag(J, -I) R with J + J^T negative definite.

    P and R are random orthogonal, so the pencil is regular, index 1 when
    n_alg > 0, and its finite eigenvalues (those of J) lie in Re < 0.
    """
    rng = np.random.default_rng(seed)
    P = np.linalg.qr(rng.normal(size=(n, n)))[0]
    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    n_dyn = n - n_alg
    W = rng.normal(size=(n_dyn, n_dyn))
    J = (W - W.T) - np.diag(rng.uniform(0.1, 10.0, n_dyn))
    De = np.zeros((n, n))
    De[:n_dyn, :n_dyn] = np.eye(n_dyn)
    Da = -np.eye(n)
    Da[:n_dyn, :n_dyn] = J
    B = rng.normal(size=(n, 1))
    C = rng.normal(size=(3, n))
    return DescriptorSystem(P @ De @ R, P @ Da @ R, B, C)


def random_dae_spectrum(n, n_alg, n_pairs, seed):
    """E = P diag(I, 0) R, A = P diag(J, -I) R with P, R random orthogonal and
    J = U D U^T, U random orthogonal and D block diagonal: n_pairs
    complex-conjugate pole pairs a +- ib, each from a block [[a, b], [-b, a]],
    the rest of J's n - n_alg poles real, every a and real pole in
    [-10, -0.1], and n_alg infinite eigenvalues."""
    rng = np.random.default_rng(seed)
    n_dyn = n - n_alg
    D = np.diag(-rng.uniform(0.1, 10.0, n_dyn))
    for k in range(n_pairs):
        D[2 * k, 2 * k + 1] = rng.uniform(0.1, 10.0)
        D[2 * k + 1, 2 * k] = -D[2 * k, 2 * k + 1]
        D[2 * k + 1, 2 * k + 1] = D[2 * k, 2 * k]
    P, R, U = (np.linalg.qr(rng.normal(size=(m, m)))[0] for m in (n, n, n_dyn))
    De, Da = np.zeros((n, n)), -np.eye(n)
    De[:n_dyn, :n_dyn] = np.eye(n_dyn)
    Da[:n_dyn, :n_dyn] = U @ D @ U.T
    return DescriptorSystem(P @ De @ R, P @ Da @ R, rng.normal(size=(n, 1)), rng.normal(size=(3, n)))


class TestFrequencyGrid:
    def test_default_shape(self):
        grid = sg.FrequencyGrid.default()
        assert grid.omegas[0] == 0.0
        assert abs(grid.omegas[1] - 1e-2) < 1e-16
        assert abs(grid.omegas[-1] - 1e10) < 1.0
        assert len(grid) == 12 * 60 + 2

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            sg.FrequencyGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            sg.FrequencyGrid(np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN compares false, so it passes a bare monotonicity test
        for omegas in ([1.0, bad], [bad, 1.0], [0.0, bad, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                sg.FrequencyGrid(np.array(omegas))

    def test_refine(self):
        # doubling the points per decade keeps every coarse point
        grid = sg.FrequencyGrid.logspaced(-1, 1, 10)
        fine = sg.FrequencyGrid.logspaced(-1, 1, 20)
        assert fine.points_per_decade == 20
        assert fine.omegas[0] == 0.0
        assert np.allclose(fine.omegas[1::2], grid.omegas[1:], rtol=1e-14, atol=0.0)


class TestSampleTransfer:
    def test_scalar_values(self):
        grid = sg.FrequencyGrid(np.array([0.0, 1.0]))
        H = sg.sample_transfer(first_order(), grid)
        assert abs(H[0, 0] - 1.0) < 1e-14
        assert abs(abs(H[0, 1]) - 1.0 / np.sqrt(2.0)) < 1e-14

    def test_rows_are_outputs(self, desk_galerkin):
        grid = sg.FrequencyGrid(np.array([0.0, 1.0, 10.0]))
        H = sg.sample_transfer(desk_galerkin.system, grid)
        assert H.shape == (desk_galerkin.m, 3)
        for i in range(desk_galerkin.m):
            hi = sg.transfer_eval(desk_galerkin.system, 1.0j)[i, 0]
            assert abs(H[i, 1] - hi) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        alg_fraction=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_matches_transfer_eval(self, n, alg_fraction, seed):
        sys = random_stable_dae(n, int(alg_fraction * n), seed)
        grid = sg.FrequencyGrid.logspaced(-2, 2, 5)
        assert grid.omegas[0] == 0.0
        H = sg.sample_transfer(sys, grid)
        ref = np.column_stack([sg.transfer_eval(sys, 1j * w)[:, 0] for w in grid.omegas])
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()
        # with singular E the condition number of i*omega*E - A grows like
        # omega, and so does the round-off of both paths: above the grid
        # the gap is bounded by the condition number instead
        scale = np.abs(ref).max()
        high = sg.FrequencyGrid(np.logspace(3, 6, 4))
        H = sg.sample_transfer(sys, high)
        for j, w in enumerate(high.omegas):
            ref_j = sg.transfer_eval(sys, 1j * w)[:, 0]
            kappa = np.linalg.cond(1j * w * sys.E - sys.A)
            assert np.abs(H[:, j] - ref_j).max() <= 1e-14 * kappa * scale

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        alg_fraction=st.floats(0.0, 0.9),
        pair_fraction=st.floats(0.0, 1.0),
        real_spectrum=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_matches_per_frequency_solves(self, n, alg_fraction, pair_fraction, real_spectrum, seed):
        # AA of the Schur form has one 2 x 2 diagonal block per conjugate
        # pair and 1 x 1 blocks elsewhere, the infinite eigenvalues included
        n_alg = int(alg_fraction * n)
        n_dyn = n - n_alg
        n_pairs = 0 if real_spectrum else min(max(1, int(pair_fraction * n_dyn / 2)), n_dyn // 2)
        sys = random_dae_spectrum(n, n_alg, n_pairs, seed)
        assert np.count_nonzero(np.diagonal(sys.schur_form[0], -1)) == n_pairs
        grid = sg.FrequencyGrid(np.concatenate([[0.0], np.logspace(-2, 6, 17)]))
        H = sg.sample_transfer(sys, grid)
        ref = dense_transfer(sys, grid.omegas)
        # as in test_dense_matches_transfer_eval: the round-off of both
        # paths grows with the condition number of i*omega*E - A
        scale = np.abs(ref).max()
        for j, w in enumerate(grid.omegas):
            kappa = np.linalg.cond(1j * w * sys.E - sys.A)
            assert np.abs(H[:, j] - ref[:, j]).max() <= max(1e-12, 1e-14 * kappa) * scale

    def test_dense_reduced_matches_sparse_copy(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 5).system
        assert not red.is_sparse
        grid = sg.FrequencyGrid.default()
        H = sg.sample_transfer(red, grid)
        ref = sg.sample_transfer(as_csr(red), grid)
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dense_reduced_ladder_at_lu_level(self, bench_galerkin_d1):
        # without the refinement step the QZ path is off by 1.1e-13 to 1.6e-13 * max|H| here
        red = sg.arnoldi_reduce(bench_galerkin_d1, 5e5, 80).system
        grid = sg.FrequencyGrid.logspaced(-2, 10, 20)
        H = sg.sample_transfer(red, grid)
        ref = np.column_stack(
            [red.C @ np.linalg.solve(1j * w * red.E - red.A, red.B[:, 0]) for w in grid.omegas]
        )
        assert np.abs(H - ref).max() <= 5e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("fmt", [lambda s: s, as_csr], ids=["dense", "csr"])
    def test_pole_on_grid(self, fmt):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # poles at +-1j
        sys = fmt(DescriptorSystem(np.eye(2), A, np.ones((2, 1)), np.ones((1, 2))))
        with pytest.raises(PoleProximityError, match="omega=1.0") as exc:
            sg.sample_transfer(sys, sg.FrequencyGrid(np.array([0.5, 1.0])))
        assert exc.value.condition > 1e15

    def test_dense_pivot_ratio(self):
        sys = DescriptorSystem(np.zeros((2, 2)), -np.diag([1.0, 1e-17]), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(PoleProximityError, match="omega=0.0") as exc:
            sg.sample_transfer(sys, sg.FrequencyGrid(np.array([0.0, 1.0])))
        assert 1e15 < exc.value.condition < np.inf

    @pytest.mark.parametrize(
        "E, A",
        [(np.zeros((1, 1)), np.zeros((1, 1))), (np.eye(2), np.array([[-1.0, np.nan], [0.0, -1.0]]))],
        ids=["zero-pencil", "non-finite"],
    )
    def test_dense_degenerate_pencil(self, E, A):
        sys = DescriptorSystem(E, A, np.ones((len(A), 1)), np.ones((1, len(A))))
        with pytest.raises(PoleProximityError) as exc:
            sg.sample_transfer(sys, sg.FrequencyGrid(np.array([0.0, 1.0])))
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("fmt", [lambda s: s, as_csr], ids=["dense", "csr"])
    def test_multi_input_rejected(self, fmt):
        sys = fmt(DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, 2)), np.ones((1, 2))))
        with pytest.raises(ValueError, match=r"single-input system \(n_in=1\), got n_in=2"):
            sg.sample_transfer(sys, sg.FrequencyGrid(np.array([0.0, 1.0])))


class TestGalerkinSampling:
    @pytest.mark.parametrize(
        "kept, schur_unknowns", [(None, 12), ((0, 2, 5, 7), 4)], ids=["full", "downsized"]
    )
    def test_gmres_matches_superlu(self, desk_galerkin, kept, schur_unknowns):
        # full: 3 odd-degree blocks against 7 even; kept: degrees 0, 1, 2, 2
        gsys = desk_galerkin if kept is None else sg.downsize(desk_galerkin, Selection(kept=kept, m=desk_galerkin.m))
        grid = sg.FrequencyGrid.default()
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        ref = sg.sample_transfer(gsys.system, grid)
        assert np.abs(H - ref).max() <= 1e-11 * np.abs(ref).max()
        assert stats.method == "gmres-schur"
        assert stats.schur_unknowns == schur_unknowns
        assert len(stats.iterations) == len(stats.residuals) == len(grid)
        assert max(stats.residuals) <= RESIDUAL_RTOL

    def test_unconverged_gmres_caught(self, desk_galerkin, lying_gmres):
        # a near miss that claims success: the residual check rejects it.
        # The series' first term solve misses and ends the series, and the
        # sweep raises at omega = 0, naming s, N and the iterations spent
        grid = sg.FrequencyGrid.logspaced(-1, 2, 4)
        stats = SolverStats()
        with pytest.raises(
            ResidualMissError, match=r"^true relative residual \S+ after [1-9]\d* GMRES iterations at s=0j, N=40$"
        ) as exc:
            sg.sample_transfer(desk_galerkin, grid, stats)
        assert exc.value.iterations > 0
        assert stats.series_points == 0 and stats.series_terms == []
        assert stats.iterations == [] and stats.residuals == []

    def test_cycle_limit_miss_caught(self, desk_galerkin, monkeypatch):
        # one cycle of one GMRES step cannot converge: the residual computed
        # after the last allowed cycle shows the miss, and the sweep raises
        # at its first frequency
        monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
        monkeypatch.setattr(solver, "GMRES_RESTART", 1)
        grid = sg.FrequencyGrid.logspaced(-1, 2, 4)
        stats = SolverStats()
        with pytest.raises(ResidualMissError, match=r"after 1 GMRES iterations at s=0j, N=40$") as exc:
            sg.sample_transfer(desk_galerkin, grid, stats)
        assert exc.value.iterations == 1
        assert stats.iterations == [] and stats.residuals == []

    def test_miss_at_one_frequency_only(self, desk_galerkin, monkeypatch):
        # GMRES lies at the third frequency alone: the sweep raises there,
        # and the stats hold the two frequencies before it.  The grid lies
        # above the Taylor series' reach, and the series' real term solves
        # at s = 0 are neither perturbed nor counted
        real_gmres = solver._gmres_schur
        calls = []

        def lying_once(*args):
            if not np.iscomplexobj(args[3]):
                return real_gmres(*args)
            result = perturbed_gmres(real_gmres, *args) if len(calls) == 2 else real_gmres(*args)
            calls.append(result[1])
            return result

        monkeypatch.setattr(solver, "_gmres_schur", lying_once)
        grid = sg.FrequencyGrid.logspaced(0, 3, 4, include_zero=False)
        stats = SolverStats()
        with pytest.raises(ResidualMissError, match=f"at s={re.escape(str(1j * grid.omegas[2]))}, N=40$"):
            sg.sample_transfer(desk_galerkin, grid, stats)
        assert stats.method == "gmres-schur" and stats.series_points == 0
        assert len(calls) == 3 and stats.iterations == calls[:2]
        assert all(iterations > 0 for iterations in calls)
        assert len(stats.residuals) == 2 and max(stats.residuals) <= RESIDUAL_RTOL

    def test_galerkin_route_never_factors(self, desk_galerkin, monkeypatch):
        # a Galerkin pencil is solved by GMRES alone: the sweep with its
        # two bands and Arnoldi finish without factoring a shifted pencil
        # (the top band factors the blocks E_dd and A_aa alone), and where
        # every solve is a near miss (lying_gmres) they raise before
        # reaching one
        def unexpected(*_args, **_kwargs):
            raise AssertionError("factored a Galerkin pencil")

        monkeypatch.setattr(solver, "factor_pencil", unexpected)
        grid = sg.FrequencyGrid.default()
        stats = SolverStats()
        sg.sample_transfer(desk_galerkin, grid, stats)
        assert stats.series_points > 0 and stats.top_points > 0 and len(stats.iterations) == len(grid)
        assert sg.arnoldi_reduce(desk_galerkin, 1.0, 6).r == 6
        real_gmres = solver._gmres_schur
        monkeypatch.setattr(solver, "_gmres_schur", lambda *args: perturbed_gmres(real_gmres, *args))
        with pytest.raises(ResidualMissError):
            sg.sample_transfer(desk_galerkin, grid)
        with pytest.raises(ResidualMissError):
            sg.arnoldi_reduce(desk_galerkin, 1.0, 6)

    def test_wide_tolerance_ladder_within_cycle_limit(self):
        # GMRES is the only solver of a Galerkin pencil, so its iteration
        # counts must stay clear of the GMRES_MAXITER * GMRES_RESTART = 200
        # cap: the built-in ladder at 99 % tolerance (d = 2, N = 5060) takes
        # at most 59 at a frequency of the default grid and 21 at an Arnoldi
        # solve, where the ladder at 10 % takes 9 and 6
        net = sg.parse_netlist(lowpass_benchmark_text().replace(" 0.1\n", " 0.99\n"))
        assert {el.tolerance for el in net.elements} == {0.99}
        psys = sg.mna_assemble(net)
        gsys = sg.assemble(psys, sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(psys.q, 2)))
        sweep, krylov = SolverStats(), SolverStats()
        sg.sample_transfer(gsys, sg.FrequencyGrid.default(), sweep)
        sg.arnoldi_reduce(gsys, 5e5, 50, krylov)
        for stats in (sweep, krylov):
            assert max(stats.residuals) <= RESIDUAL_RTOL
            assert max(stats.iterations) <= 100
        assert max(sweep.series_terms) <= 100

    @settings(max_examples=80, deadline=None)
    @given(
        blocks_e=st.integers(1, 4),
        blocks_o=st.integers(2, 4),
        n=st.integers(2, 5),
        eps=st.floats(2e-2, 1e-1),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([complex, float]),
    )
    def test_restarted_gmres_solves_block_system(self, blocks_e, blocks_o, n, eps, seed, dtype):
        # a 3-row workspace: restart 2; a real system runs on a real
        # workspace, with real Givens rotations, to the same accuracy
        K, M, b = two_cyclic_system(np.random.default_rng(seed), blocks_e, blocks_o, n, eps, dtype)
        V = np.empty((3, blocks_o * n), dtype=dtype)
        H = np.empty((2, 2), dtype=dtype)
        coupling = split_system(K, blocks_e * n, M)
        x, iterations, r_norm = gmres(coupling, M, b, V, H)
        assert x.dtype == dtype
        assert iterations > 2  # at least two restart cycles
        assert np.linalg.norm(b - K @ x) <= RESIDUAL_RTOL * np.linalg.norm(b)
        assert r_norm == np.linalg.norm(solver._residual(coupling, M, b, x))  # the returned x's true residual
        ref = np.linalg.solve(K, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cycle_limit_exit_returns_true_residual(self, monkeypatch):
        # stopped by GMRES_MAXITER short of the target, GMRES still returns
        # the true residual of the x it returns
        monkeypatch.setattr(solver, "GMRES_MAXITER", 2)
        K, M, b = two_cyclic_system(np.random.default_rng(3), 3, 3, 3, 0.1)
        coupling = split_system(K, 9, M)
        V, H = np.empty((2, 9), dtype=complex), np.empty((1, 1), dtype=complex)
        x, iterations, r_norm = gmres(coupling, M, b, V, H)
        assert iterations == 2
        assert r_norm == np.linalg.norm(solver._residual(coupling, M, b, x))
        assert r_norm > RESIDUAL_RTOL * np.linalg.norm(b)

    def test_one_cycle_with_full_workspace(self, monkeypatch):
        # a Krylov space as large as the Schur system solves it in one cycle,
        # and the recovered d_e then leaves no residual on the eliminated class
        monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
        n, blocks_o = 3, 3
        K, M, b = two_cyclic_system(np.random.default_rng(9), 4, blocks_o, n, 0.1)
        V = np.empty((blocks_o * n + 1, blocks_o * n), dtype=complex)
        H = np.empty((blocks_o * n, blocks_o * n), dtype=complex)
        x, iterations, _ = gmres(split_system(K, 4 * n, M), M, b, V, H)
        assert iterations <= blocks_o * n
        assert np.linalg.norm(b - K @ x) <= RESIDUAL_RTOL * np.linalg.norm(b)

    def test_gmres_zero_rhs_and_breakdown(self):
        # K = I (x) M has no coupling, so the Schur operator is the identity:
        # the first Arnoldi step breaks down with the exact solution
        M = np.array([[2.0, 1.0], [0.0, 3.0j]])
        K = np.kron(np.eye(3), M)
        V = np.empty((4, 2), dtype=complex)
        H = np.empty((3, 3), dtype=complex)
        b = np.arange(1.0, 7.0) * (1.0 + 1.0j)
        x, iterations, _ = gmres(split_system(K, 4, M), M, b, V, H)
        assert iterations == 1
        assert np.allclose(x, np.linalg.solve(K, b), rtol=1e-15, atol=0.0)
        zero = np.zeros(6, dtype=complex)
        x, iterations, r_norm = gmres(split_system(K, 4, M), M, zero, V, H)
        assert iterations == 0 and not x.any() and r_norm == 0.0

    def test_workspace_reuse_is_bitwise(self, bench_galerkin_d1):
        # one sweep reuses its Krylov workspace; single frequencies, run in
        # reverse order, each start from a fresh solver.  The ladder, unlike
        # the desk system, takes true-residual restarts at some frequencies.
        # The grid lies above the reach of the Taylor series at s = 0.
        grid = sg.FrequencyGrid.logspaced(4, 10, 2, include_zero=False)
        H = sg.sample_transfer(bench_galerkin_d1, grid)
        S = bench_galerkin_d1.system
        for j in reversed(range(len(grid))):
            shifted = galerkin_solver(bench_galerkin_d1, SolverStats())
            shifted.set_shift(1j * grid.omegas[j])
            Hj = S.C @ shifted.solve(S.B[:, 0])
            assert np.array_equal(Hj, H[:, j])

    def test_ladder_at_superlu_level(self, bench_galerkin_d1):
        # stopping at the first inner convergence, without true-residual restarts,
        # leaves errors above this bound
        grid = sg.FrequencyGrid.logspaced(-2, 10, 20)
        stats = SolverStats()
        H = sg.sample_transfer(bench_galerkin_d1, grid, stats)
        ref = sg.sample_transfer(bench_galerkin_d1.system, grid)
        assert stats.method == "gmres-schur"
        assert np.abs(H - ref).max() <= 5e-14 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[-1.0, 0.5, 0.2], [0.5, -1.0, 0.5], [0.2, 0.5, -1.0]]),
            np.array([[-1.0, 1.0], [-1.0, -2.0]]),
        ],
        ids=["same-parity-coupling", "unequal-diagonal-blocks"],
    )
    def test_unstructured_galerkin_uses_superlu(self, A):
        # degrees 0 and 2 coupled, or diagonal blocks -1 and -2: no exact split
        gsys = scalar_galerkin(A)
        assert gsys.even_odd_split() is None
        grid = sg.FrequencyGrid(np.array([0.0, 1.0, 10.0]))
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        assert stats.summary()["method"] == "superlu"
        assert stats.iterations == [] and stats.schur_unknowns is None
        assert np.array_equal(H, sg.sample_transfer(gsys.system, grid))

    @pytest.mark.parametrize("matrix", ["E", "A"])
    @pytest.mark.parametrize("edit", ["one-ulp-off", "extra-nonzero"])
    def test_perturbed_diagonal_block_rejected(self, desk_galerkin, matrix, edit):
        # diagonal block 5 of E or A differs from block 0 in one value by one
        # ulp, or has a nonzero where block 0 has none
        n = desk_galerkin.block_dim
        S = desk_galerkin.system
        M = sp.lil_matrix(getattr(S, matrix))
        mean = M[:n, :n].toarray()
        if edit == "one-ulp-off":
            M[5 * n, 5 * n] = np.nextafter(mean[0, 0], np.inf)
        else:
            i, j = np.argwhere(mean == 0)[0]
            M[5 * n + i, 5 * n + j] = 0.1
        E, A = (M.tocsr(), S.A) if matrix == "E" else (S.E, M.tocsr())
        gsys = GalerkinSystem(DescriptorSystem(E, A, S.B, S.C), desk_galerkin.spec, n)
        assert desk_galerkin.even_odd_split() is not None
        assert gsys.even_odd_split() is None
        stats = SolverStats()
        sg.sample_transfer(gsys, sg.FrequencyGrid(np.array([0.0, 1.0])), stats)
        assert stats.method == "superlu"

    def test_one_class_only(self, desk_psys, desk_galerkin):
        # m = 1, and a kept set of degrees 0, 2 and 2: no Schur unknowns,
        # x = P b refined through the true residual
        one = sg.assemble(desk_psys, sg.BasisSpec.uniform([(-1.0, 1.0)] * 3, sg.build_index_set(3, 0)))
        even = sg.downsize(desk_galerkin, Selection(kept=(0, 4, 5), m=desk_galerkin.m))
        grid = sg.FrequencyGrid.logspaced(-2, 3, 10)
        for gsys in (one, even):
            stats = SolverStats()
            H = sg.sample_transfer(gsys, grid, stats)
            ref = sg.sample_transfer(gsys.system, grid)
            assert stats.method == "gmres-schur" and stats.schur_unknowns == 0
            assert not any(stats.iterations)
            assert max(stats.residuals) <= RESIDUAL_RTOL
            assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_singular_mean_block_raises(self):
        # mean block -A_00 = 0 is singular at omega = 0, though the coupled
        # pencil is not: the sweep stops there, naming omega, s and N
        gsys = scalar_galerkin(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        stats = SolverStats()
        with pytest.raises(
            PoleProximityError, match=r"^pole proximity at omega=0.0: singular mean block at s=0j, N=2$"
        ) as exc:
            sg.sample_transfer(gsys, sg.FrequencyGrid(np.array([0.0, 0.5])), stats)
        assert exc.value.condition == np.inf
        assert stats.method == "gmres-schur" and stats.iterations == []

    def test_pole_on_grid(self):
        # coupled pencil singular at omega = 1 while its mean block is not:
        # GMRES cannot solve there, and the sweep raises the miss
        gsys = scalar_galerkin(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        stats = SolverStats()
        with pytest.raises(ResidualMissError, match=r"at s=1j, N=2$"):
            sg.sample_transfer(gsys, sg.FrequencyGrid(np.array([0.5, 1.0])), stats)
        assert len(stats.iterations) == 1 and max(stats.residuals) <= RESIDUAL_RTOL  # omega = 0.5

    @pytest.mark.parametrize("dense, method", [(True, "qz"), (False, "superlu")])
    def test_method_recorded(self, desk_galerkin, dense, method):
        sys = desk_galerkin.system.dense() if dense else desk_galerkin.system
        stats = SolverStats()
        sg.sample_transfer(sys, sg.FrequencyGrid(np.array([0.0, 1.0])), stats)
        expected = {
            "method": method,
            "max_iterations": None,
            "median_iterations": None,
            "total_iterations": None,
            "max_residual": None,
            "schur_unknowns": None,
        }
        if not dense:
            # the series' first term serves omega = 0; the norm ratio that
            # omega = 1 would need takes a second, and 1 lies beyond its reach
            expected.update(series_points=1, series_terms=2, series_iterations=0, top_points=0, top_terms=0)
        assert stats.summary() == expected


class TestRestrictedCoupling:
    """ShiftedSolver keeps L and U on the e-states they touch (solver._Coupling)."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_product_equals_full_coupling(self, bench_psys, degree):
        # U (I (x) M^-1) L v from the restricted factors U_C B L_R and from
        # the formed G, against the full couplings of the split, at Arnoldi's
        # real shift and at a complex one, on the full and a downsized system
        spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, sg.build_index_set(21, degree))
        full = sg.assemble(bench_psys, spec)
        downsized = sg.downsize(full, Selection(kept=tuple(range(0, full.m, 3)), m=full.m))
        rng = np.random.default_rng(degree)
        for gsys in (full, downsized):
            split, n = gsys.even_odd_split(), gsys.block_dim
            shifted = galerkin_solver(gsys, SolverStats())
            coupling = shifted.coupling
            assert coupling.n_e == split.n_e
            if gsys is full:  # the couplings reach a fraction of the eliminated states
                assert len(coupling.rows) < split.n_e and len(coupling.cols) < split.n_e
            for s in (5e5, 3e4j):
                shifted.set_shift(s)
                assert coupling.G is None
                L, U = (s * E - A for E, A in (split.L, split.U))
                P = sp.kron(sp.identity(split.n_e // n), shifted.mean_inverse, format="csr")
                v = rng.normal(size=L.shape[1]) * (1.0 if np.isrealobj(s) else 1.0 + 1.0j)
                ref = U @ (P @ (L @ v))
                scale = abs(U) @ (abs(P) @ (abs(L) @ np.abs(v)))  # the round-off scale of each entry
                restricted = coupling.schur_product(v)
                coupling.form_product()
                formed = coupling.schur_product(v)
                for product in (restricted, formed):
                    assert product.dtype == ref.dtype
                    assert np.all(np.abs(product - ref) <= 1e-14 * scale)

    def test_product_formed_once_per_reused_shift(self, bench_galerkin_d1, monkeypatch):
        formed, form_product = [], solver._Coupling.form_product

        def counting(coupling):
            formed.append(coupling)
            form_product(coupling)

        monkeypatch.setattr(solver._Coupling, "form_product", counting)
        S = bench_galerkin_d1.system
        b = S.B[:, 0]
        shifted = galerkin_solver(bench_galerkin_d1, SolverStats())
        shifted.set_shift(1e5j)
        x = shifted.solve(b)
        assert formed == [] and shifted.coupling.G is None
        # the second solve at the shift forms G, and the third reuses it
        again = shifted.solve(b)
        shifted.solve(S.E @ x)
        assert len(formed) == 1 and shifted.coupling.G is not None
        assert np.linalg.norm(again - x) <= 1e-12 * np.linalg.norm(x)
        shifted.set_shift(2e5j)
        assert shifted.coupling.G is None
        shifted.solve(b)
        assert len(formed) == 1
        # Arnoldi's solves at s0 and the Taylor series' term solves at s = 0
        # form G once each, on a grid above the series' reach too, where
        # the two terms spent on trust are all it solves; a sweep without
        # the series, whose every shift serves one solve, never
        above_reach = sg.FrequencyGrid.logspaced(4, 10, 4, False)
        for run, expected in (
            (lambda: sg.arnoldi_reduce(bench_galerkin_d1, 5e5, 10), 1),
            (lambda: sg.sample_transfer(bench_galerkin_d1, sg.FrequencyGrid.logspaced(-2, 4, 10)), 1),
            (lambda: sg.sample_transfer(bench_galerkin_d1, above_reach), 1),
        ):
            formed.clear()
            run()
            assert len(formed) == expected
        monkeypatch.setattr(hardy, "SERIES_MAX_TERMS", 0)
        formed.clear()
        sg.sample_transfer(bench_galerkin_d1, above_reach)
        assert formed == []


def superlu_samples(sys, omegas):
    """H(i*omega) by one SuperLU factorization per frequency (transfer_eval)."""
    return np.column_stack([sg.transfer_eval(sys, 1j * w)[:, 0] for w in omegas])


def check_gated_residual(series, terms, omegas, r, t_of_s, first=0, constant=None):
    """The residual a band's series gates at omegas (r there), summed from
    its coefficients in double, against the exact residual of the x it
    represents (oracles.series_residuals): they part by the round-off of
    forming the coefficients, below a fifth of GMRES_RTOL, at 6 terms and
    at 24.  Returns the gated residuals at 24 terms."""
    b_norm = np.linalg.norm(series.S.B[:, 0])
    for K in (6, 24):
        for z in terms[len(series.norms) : K]:
            series.add(z)
        gated = np.linalg.norm(series.at(r)[0], axis=0) / b_norm
        exact = series_residuals(series.S, omegas, terms[:K], t_of_s, first, constant)
        assert np.all(np.abs(gated - exact) <= 0.2 * hardy.GMRES_RTOL), (K, gated, exact)
    return gated


class TestTaylorSeries:
    @pytest.mark.parametrize("ladder", ["bench_galerkin_d1", "bench_galerkin_d2"])
    def test_low_band_at_superlu_level(self, ladder, request):
        # the bound of test_ladder_at_superlu_level, against SuperLU at every
        # point the series can reach (24 terms: omega up to about 2.9e3)
        gsys = request.getfixturevalue(ladder)
        grid = sg.FrequencyGrid.logspaced(-2, 10, 10)
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        band = grid.omegas <= 3e3
        ref = superlu_samples(gsys.system, grid.omegas[band])
        assert stats.series_points >= 50 and max(stats.residuals) <= RESIDUAL_RTOL
        assert len(stats.series_terms) <= stats.series_points
        assert np.abs(H[:, band] - ref).max() <= 5e-14 * np.abs(ref).max()

    def test_singular_mean_block_runs_no_series(self):
        # the system of test_singular_mean_block_raises: its mean block is
        # singular at s = 0, so no term is solved, and a grid without
        # omega = 0 is solved by GMRES from its first point on
        gsys = scalar_galerkin(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        grid = sg.FrequencyGrid(np.array([0.25, 0.5]))
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        assert stats.series_points == 0 and stats.series_terms == []
        assert len(stats.iterations) == 2 and max(stats.residuals) <= RESIDUAL_RTOL
        assert np.abs(H - sg.sample_transfer(gsys.system, grid)).max() <= 1e-14

    @pytest.mark.parametrize("galerkin", [True, False], ids=["gmres-schur", "superlu"])
    def test_pencil_singular_at_zero(self, galerkin):
        # -A = [[1, -1], [-1, 1]] is singular while its mean block 1 is not:
        # the sweep raises at omega = 0 what it raised without the series,
        # GMRES's miss on the Galerkin route and the failed factorization
        # on the SuperLU route
        gsys = scalar_galerkin(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        error, message = (
            (ResidualMissError, r"^true relative residual .* at s=0j, N=2$")
            if galerkin
            else (PoleProximityError, r"^pole proximity at omega=0.0: singular shifted pencil at s=0j: ")
        )
        stats = SolverStats()
        with pytest.raises(error, match=message) as exc:
            sg.sample_transfer(gsys if galerkin else gsys.system, sg.FrequencyGrid(np.array([0.0, 0.5])), stats)
        assert galerkin or exc.value.condition == np.inf
        assert stats.series_points == 0 and stats.iterations == []

    def test_grid_above_reach_is_the_plain_sweep(self, bench_galerkin_d1):
        # two term solves, spent on trust, after which rho says the series
        # cannot pay; then every point is solved by one ShiftedSolver moved
        # from frequency to frequency, bitwise as with no series
        grid = sg.FrequencyGrid.logspaced(4, 10, 4, include_zero=False)
        stats = SolverStats()
        H = sg.sample_transfer(bench_galerkin_d1, grid, stats)
        assert stats.series_points == 0 and len(stats.series_terms) == 2
        S = bench_galerkin_d1.system
        plain = SolverStats()
        shifted = galerkin_solver(bench_galerkin_d1, plain)
        for j, w in enumerate(grid.omegas):
            shifted.set_shift(1j * w)
            assert np.array_equal(S.C @ shifted.solve(S.B[:, 0]), H[:, j])
        assert stats.iterations == plain.iterations and stats.residuals == plain.residuals

    def test_gated_residual_is_the_true_residual(self, bench_galerkin_d1):
        # the terms the sweep solves at s = 0, at points up to the reach of
        # 24 terms; at 6 terms the residuals run from 2e-4 down
        S = bench_galerkin_d1.system
        terms = list(itertools.islice(hardy._taylor_terms(galerkin_solver(bench_galerkin_d1, SolverStats()), S), 24))
        omegas = np.logspace(-2, 3.4, 8)
        gated = check_gated_residual(hardy._Series(S, sign=1), terms, omegas, omegas, lambda s: s)
        assert gated.max() <= hardy.GMRES_RTOL

    def test_term_solve_failing_mid_band(self, bench_galerkin_d1, monkeypatch):
        # the fifth term solve at s = 0 misses: the band keeps the prefix
        # its four terms served, bitwise as a band capped at four terms
        # serves it, and every later point is the plain sweep's, bitwise,
        # stats included (the grid ends below the top band's reach)
        gsys, grid = bench_galerkin_d1, sg.FrequencyGrid.logspaced(-2, 4, 10)
        monkeypatch.setattr(hardy, "SERIES_MAX_TERMS", 4)
        capped = SolverStats()
        ref = sg.sample_transfer(gsys, grid, capped)
        monkeypatch.setattr(hardy, "SERIES_MAX_TERMS", 24)
        solve, solves_at_zero = solver.ShiftedSolver.solve, []

        def failing(self, b):
            if self.s == 0:
                solves_at_zero.append(b)
                if len(solves_at_zero) == 5:
                    raise ResidualMissError(f"true relative residual 1 at s={self.s}", 0)
            return solve(self, b)

        monkeypatch.setattr(solver.ShiftedSolver, "solve", failing)
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        n = stats.series_points
        assert len(solves_at_zero) == 5 and len(stats.series_terms) == 4 and 0 < n < len(grid)
        assert n == capped.series_points and stats.series_terms == capped.series_terms
        assert np.array_equal(H[:, :n], ref[:, :n]) and stats.residuals[:n] == capped.residuals[:n]
        assert stats.iterations[:n] == [0] * n and stats.top_points == 0
        S, plain = gsys.system, SolverStats()
        shifted = galerkin_solver(gsys, plain)
        for j, w in enumerate(grid.omegas[n:], n):
            shifted.set_shift(1j * w)
            assert np.array_equal(S.C @ shifted.solve(S.B[:, 0]), H[:, j])
        assert stats.iterations[n:] == plain.iterations and stats.residuals[n:] == plain.residuals

    def test_sweep_serves_a_prefix(self, bench_galerkin_d1, monkeypatch):
        # truncated at 1e-13 instead of the unit round-off, series samples
        # miss GMRES_RTOL inside the series' reach: a miss adds a term while
        # the band can pay for it, the first miss at the cap ends the band,
        # and from there every point is solved as without the series
        gsys, grid = bench_galerkin_d1, sg.FrequencyGrid.logspaced(-2, 4, 10)
        monkeypatch.setattr(hardy, "SERIES_MAX_TERMS", 0)
        plain = SolverStats()
        ref = sg.sample_transfer(gsys, grid, plain)
        assert plain.series_points == 0 and plain.series_terms == []
        monkeypatch.setattr(hardy, "SERIES_MAX_TERMS", 24)
        monkeypatch.setattr(hardy, "UNIT_ROUNDOFF", 1e-13)
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        n, its = stats.series_points, np.array(stats.iterations)
        assert 0 < n < len(grid) and len(its) == len(grid)
        assert np.all(its[:n] == 0) and np.all(its[n:] > 0)
        assert stats.iterations[n:] == plain.iterations[n:] and np.array_equal(H[:, n:], ref[:, n:])
        assert max(stats.residuals) <= RESIDUAL_RTOL
        assert np.abs(H - ref).max() <= 5e-14 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), alg_fraction=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_sparse_matches_dense_solves(self, n, alg_fraction, seed):
        sys = random_stable_dae(n, int(alg_fraction * n), seed)
        grid = sg.FrequencyGrid.logspaced(-3, 1, 10)
        stats = SolverStats()
        H = sg.sample_transfer(as_csr(sys), grid, stats)
        ref = np.column_stack([sys.C @ np.linalg.solve(1j * w * sys.E - sys.A, sys.B[:, 0]) for w in grid.omegas])
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


def ladder_galerkin(tolerance: str, degree: int):
    """The built-in ladder with every tolerance replaced, at the given degree."""
    net = sg.parse_netlist(lowpass_benchmark_text().replace(" 0.1\n", f" {tolerance}\n"))
    psys = sg.mna_assemble(net)
    return sg.assemble(psys, sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(psys.q, degree)))


class TestTopBand:
    @pytest.mark.parametrize("case", ["d1", "d2", "d2-at-90-percent", "d2-downsized"])
    def test_top_band_at_superlu_level(self, case, request):
        # the band serves the top of the default grid, each sample within
        # 1e-12 max|H| of one SuperLU factorization per frequency (checked
        # at every third point of the band).  It takes 215 points from 24
        # terms on the ladder at 10 %, 185 at 90 %
        if case == "d2-at-90-percent":
            gsys = ladder_galerkin("0.9", 2)
        else:
            gsys = request.getfixturevalue("bench_galerkin_d1" if case == "d1" else "bench_galerkin_d2")
        if case == "d2-downsized":
            gsys = sg.downsize(gsys, Selection(kept=tuple(range(0, gsys.m, 4)), m=gsys.m))
        grid = sg.FrequencyGrid.default()
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        band = slice(len(grid) - stats.top_points, None)
        assert stats.top_points >= 150 and stats.top_terms <= hardy.SERIES_MAX_TERMS
        assert stats.series_points + stats.top_points < len(grid) == len(stats.iterations)
        assert stats.iterations[band] == [0] * stats.top_points
        assert max(stats.residuals[band]) <= hardy.GMRES_RTOL
        checked = np.arange(len(grid))[band][::3]
        ref = superlu_samples(gsys.system, grid.omegas[checked])
        assert np.abs(H[:, checked] - ref).max() <= 1e-12 * np.abs(H).max()

    def test_gated_residual_is_the_true_residual(self, bench_galerkin_d1):
        # at 6 terms the residuals run from 2e-3 down
        S = bench_galerkin_d1.system
        markov = solver.markov_series(S)
        terms = [markov.next_term() / markov.scale for _ in range(24)]
        series = hardy._Series(S, sign=-1, scale=markov.scale, x_inf=markov.x_inf)
        omegas = np.logspace(6.5, 10, 8)
        scale = np.longdouble(markov.scale)
        gated = check_gated_residual(series, terms, omegas, markov.scale / omegas, lambda s: scale / s, 1, markov.x_inf)
        assert gated.max() <= hardy.GMRES_RTOL

    def test_coarse_grid_declines_before_factoring(self, bench_galerkin_d2, monkeypatch):
        # at 2 points per decade fewer than SERIES_MAX_TERMS points lie in
        # the reach of the mean block's series, so no block is factored
        def unexpected(*_args, **_kwargs):
            raise AssertionError("factored a block for a band that cannot pay")

        grid = sg.FrequencyGrid.logspaced(points_per_decade=2)
        ref = superlu_samples(bench_galerkin_d2.system, grid.omegas[-8:])
        monkeypatch.setattr(solver.spla, "splu", unexpected)
        stats = SolverStats()
        H = sg.sample_transfer(bench_galerkin_d2, grid, stats)
        assert stats.top_points == 0 and stats.top_terms == 0
        assert np.all(np.array(stats.iterations[stats.series_points :]) > 0)
        assert np.abs(H[:, -8:] - ref).max() <= 1e-12 * np.abs(H).max()

    def test_zero_rows_not_zero_columns_get_no_band(self):
        # E = [[1, 1], [0, 0]] has a zero row whose column is not zero: the
        # expansion at s = infinity does not split, and the sweep above the
        # low band is the plain GMRES sweep, bitwise
        psys = sg.ParametricSystem(
            n=2,
            q=1,
            E0=np.array([[1.0, 1.0], [0.0, 0.0]]),
            A0=np.array([[-1.0, 0.0], [0.5, -1.0]]),
            B0=np.array([1.0, 0.0]),
            C0=np.array([[1.0, 1.0]]),
            A_terms=[0.1 * np.eye(2)],
        )
        gsys = sg.assemble(psys, sg.BasisSpec.uniform([(-1.0, 1.0)], sg.build_index_set(1, 2)))
        assert solver.markov_series(gsys.system) is None
        grid = sg.FrequencyGrid.default()
        stats = SolverStats()
        H = sg.sample_transfer(gsys, grid, stats)
        n = stats.series_points
        assert stats.top_points == 0 and stats.top_terms == 0 and n < len(grid)
        S, plain = gsys.system, SolverStats()
        shifted = galerkin_solver(gsys, plain)
        for j, w in enumerate(grid.omegas[n:], n):
            shifted.set_shift(1j * w)
            assert np.array_equal(S.C @ shifted.solve(S.B[:, 0]), H[:, j])
        assert stats.iterations[n:] == plain.iterations and stats.residuals[n:] == plain.residuals


class TestHardyNorms:
    def test_analytic_first_order(self):
        grid = sg.FrequencyGrid.default()
        rep = sg.hardy_norms(sg.sample_transfer(first_order(), grid), grid)
        assert abs(rep.h2[0] - 1.0 / np.sqrt(2.0)) < 1e-4
        assert abs(rep.hinf[0] - 1.0) < 1e-6
        assert rep.argmax_omega[0] == 0.0
        assert rep.strictly_proper_ok[0]

    def test_zero_transfer(self):
        grid = sg.FrequencyGrid.logspaced(-1, 2, 10)
        rep = sg.hardy_norms(np.zeros((2, len(grid))), grid)
        assert np.all(rep.h2 == 0.0) and np.all(rep.hinf == 0.0)

    def test_scaling_homogeneity(self):
        grid = sg.FrequencyGrid.default()
        H = sg.sample_transfer(first_order(), grid)
        a = sg.hardy_norms(H, grid)
        b = sg.hardy_norms(-2.5 * H, grid)
        assert abs(b.h2[0] - 2.5 * a.h2[0]) < 1e-12
        assert abs(b.hinf[0] - 2.5 * a.hinf[0]) < 1e-12

    def test_hinf_at_least_every_sample(self, desk_norms):
        samples, _, rep = desk_norms
        assert np.all(rep.hinf[:, None] >= np.abs(samples) - 1e-15)

    def test_grid_refinement_monotone_hinf(self):
        # resonant system so the discrete maximum depends on the grid
        A = np.array([[0.0, 1.0], [-1.0, -0.05]])
        sys = DescriptorSystem(np.eye(2), A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
        grid = sg.FrequencyGrid.logspaced(-2, 2, 5)
        coarse = sg.hardy_norms(sg.sample_transfer(sys, grid), grid)
        fine_grid = sg.FrequencyGrid.logspaced(-2, 2, 20)
        fine = sg.hardy_norms(sg.sample_transfer(sys, fine_grid), fine_grid)
        assert fine.hinf[0] >= coarse.hinf[0]

    def test_h2_convergence_beyond_100ppd(self):
        vals = []
        for ppd in (200, 400):
            grid = sg.FrequencyGrid.logspaced(-3, 4, ppd)
            vals.append(sg.hardy_norms(sg.sample_transfer(first_order(), grid), grid).h2[0])
        assert abs(vals[1] - vals[0]) < 1e-5

    def test_improper_flagged(self):
        # constant transfer function: no decay at the top decade
        grid = sg.FrequencyGrid.logspaced(-1, 3, 10)
        rep = sg.hardy_norms(np.ones((1, len(grid))), grid)
        assert not rep.strictly_proper_ok[0]

    def test_json_flags_argmax_at_top_edge(self, tmp_path):
        # the resonance at omega = 1 lies above the grid, so |H| peaks at its top;
        # the first-order system peaks at omega = 0, a true boundary
        A = np.array([[0.0, 1.0], [-1.0, -0.05]])
        resonant = DescriptorSystem(np.eye(2), A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
        grid = sg.FrequencyGrid.logspaced(-2, -0.5, 10)
        samples = np.vstack([sg.sample_transfer(resonant, grid), sg.sample_transfer(first_order(), grid)])
        rep = sg.hardy_norms(samples, grid)
        rep.to_json(tmp_path / "n.json")
        data = json.loads((tmp_path / "n.json").read_text())
        assert data["argmax_omega"] == [grid.omegas[-1], 0.0]
        assert data["argmax_at_top_edge"] == [True, False]

    def test_csv_json_export(self, desk_norms, tmp_path):
        _, _, rep = desk_norms
        rep.to_json(tmp_path / "n.json")
        data = json.loads((tmp_path / "n.json").read_text())
        assert data["h2"] == rep.h2.tolist()
        assert data["tail_fraction_warning"] == rep.tail_fraction_warning.tolist()
        assert data["grid"]["n_points"] == len(rep.grid)

    def test_row_blocks_bitwise_equal_whole_array(self):
        # every operation of hardy_norms is row-wise, so its row blocks give
        # bit for bit the norms of one pass over the whole m x k array; m
        # makes two blocks of NORMS_BLOCK_BYTES and a remainder
        grid = sg.FrequencyGrid.logspaced(-2, 6, 10)
        om = grid.omegas
        m = 2 * (hardy.NORMS_BLOCK_BYTES // (16 * len(om))) + 37
        rng = np.random.default_rng(4)
        poles = 10.0 ** rng.uniform(-1, 5, m)
        samples = rng.normal(size=(m, 1)) * poles[:, None] / (1j * om + poles[:, None])
        samples += 1e-3 * (rng.normal(size=samples.shape) + 1j * rng.normal(size=samples.shape))
        j = min(int(np.searchsorted(om, om[-1] / 10.0)), len(om) - 2)
        samples[5] = 0.0
        samples[7, -1] = 0.0  # zero at the top: slope -inf, proper
        samples[9, j] = 0.0  # zero only at the lower end: slope 0, improper
        samples[300] = 1.0  # improper

        mag = np.abs(samples)
        jmax = np.argmax(mag, axis=1)
        hinf = mag[np.arange(m), jmax]
        tail_sq = (mag[:, -1] * om[-1]) ** 2 / (np.pi * om[-1])
        h2 = np.sqrt(np.trapezoid(mag**2, om, axis=1) / np.pi + tail_sq)
        proper = [hinf[i] == 0.0 or loglog_slope(om[j], mag[i, j], om[-1], mag[i, -1]) <= -0.5 for i in range(m)]

        rep = sg.hardy_norms(samples, grid)
        assert np.array_equal(rep.hinf, hinf) and np.array_equal(rep.argmax_omega, om[jmax])
        assert np.array_equal(rep.h2, h2) and np.array_equal(rep.tail_estimate, np.sqrt(tail_sq))
        assert rep.strictly_proper_ok.tolist() == proper
        assert not proper[300] and proper[5] and proper[7] and not proper[9]


class TestDifferenceNorms:
    def test_identical_systems(self, desk_galerkin):
        grid = sg.FrequencyGrid.logspaced(-1, 2, 10)
        rep = pair_difference_norms(desk_galerkin.system, desk_galerkin.system, grid)
        assert np.all(rep.h2 == 0.0) and np.all(rep.hinf == 0.0)

    def test_downsized_difference_structure(self, desk_galerkin, desk_norms):
        samples, grid, rep = desk_norms
        sel = Selection(kept=(0, 1, 2, 3), m=desk_galerkin.m)
        small = sg.downsize(desk_galerkin, sel)
        diff = sg.hardy_norms(samples - sg.sample_transfer(small, grid), grid)
        for i in sel.dropped:
            assert abs(diff.h2[i] - rep.h2[i]) < 1e-12
            assert abs(diff.hinf[i] - rep.hinf[i]) < 1e-12

    def test_full_projection_reduction_exact(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, desk_galerkin.dimension)
        grid = sg.FrequencyGrid.logspaced(-2, 3, 10)
        diff = pair_difference_norms(desk_galerkin.system, red.system, grid)
        assert np.all(diff.h2 < 1e-8) and np.all(diff.hinf < 1e-8)

    def test_triangle_inequality(self, desk_galerkin):
        grid = sg.FrequencyGrid.logspaced(-2, 4, 15)
        full = desk_galerkin.system
        red1 = sg.arnoldi_reduce(desk_galerkin, 1.0, 6).system
        red2 = sg.arnoldi_reduce(desk_galerkin, 1.0, 10).system
        ab = pair_difference_norms(full, red1, grid)
        bc = pair_difference_norms(red1, red2, grid)
        ac = pair_difference_norms(full, red2, grid)
        for kind in ("h2", "hinf"):
            a = getattr(ac, kind)
            b = getattr(ab, kind) + getattr(bc, kind)
            assert np.all(a <= b + 1e-10)


REPORT_FIELDS = ("h2", "hinf", "argmax_omega", "tail_estimate", "strictly_proper_ok", "tail_fraction_warning")


def assert_reports_equal(a, b):
    for field in REPORT_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def small_blocks(k: int, rows: int):
    """NORMS_BLOCK_BYTES patched to `rows` outputs of k complex samples a block."""
    return mock.patch.object(hardy, "NORMS_BLOCK_BYTES", 16 * k * (rows + 1) - 1)


def zero_and_logspace(k: int, rng) -> sg.FrequencyGrid:
    return sg.FrequencyGrid(np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(-2, 3, k - 1))]))


class TestDifferenceNormsInBlocks:
    """difference_norms is hardy_norms(samples - sample_transfer(sys, grid),
    grid), formed NORMS_BLOCK_BYTES of outputs at a time."""

    @given(
        k=st.integers(2, 12),
        rows=st.integers(2, 6),
        blocks=st.integers(2, 4),
        extra=st.integers(0, 4),
        n=st.integers(1, 6),
        n_alg=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dense(self, k, rows, blocks, extra, n, n_alg, seed):
        # the norms are bitwise those of the difference the row blocks form,
        # and that difference is samples - sample_transfer up to the
        # round-off of the row-split products C Z Y
        m = blocks * rows + 1 + extra % (rows - 1)  # a remainder block of 1 to rows - 1
        rng = np.random.default_rng(seed)
        base = random_stable_dae(n + n_alg, min(n_alg, n), seed)
        sys = DescriptorSystem(base.E, base.A, base.B, rng.normal(size=(m, base.n)))
        grid = zero_and_logspace(k, rng)
        H = sg.sample_transfer(sys, grid)
        samples = H * (1.0 + 1e-3 * rng.normal(size=H.shape))
        kept = samples.copy()
        stats = SolverStats()
        with small_blocks(k, rows):
            rep = hardy.difference_norms(samples, sys, grid, stats)
            CZ, Y = hardy._sample_dense(sys, grid.omegas)
            D = np.vstack([samples[i : i + rows] - hardy._real_times(CZ[i : i + rows], Y) for i in range(0, m, rows)])
            assert_reports_equal(rep, sg.hardy_norms(D, grid))
        assert stats.method == "qz" and np.array_equal(samples, kept)
        bound = 4 * base.n * np.finfo(float).eps * (np.abs(CZ) @ np.abs(Y))
        assert np.all(np.abs(D - (samples - H)) <= bound)

    @given(
        kept=st.sets(st.integers(1, 21), max_size=8),
        k=st.integers(2, 8),
        rows=st.sampled_from([3, 4, 5, 6, 7]),  # 22 outputs: 3 blocks or more and a remainder
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_downsized_ladder(self, bench_galerkin_d1, kept, k, rows, seed):
        # the sparse sweep is subtracted in its own output: bit for bit
        # the norms of samples - sample_transfer, with the same solver record
        grid = zero_and_logspace(k, np.random.default_rng(seed))
        small = sg.downsize(bench_galerkin_d1, Selection(kept=(0, *kept), m=bench_galerkin_d1.m))
        samples = sg.sample_transfer(bench_galerkin_d1, grid)
        before = samples.copy()
        stats, ref_stats = SolverStats(), SolverStats()
        with small_blocks(k, rows):
            rep = hardy.difference_norms(samples, small, grid, stats)
            ref = sg.hardy_norms(samples - sg.sample_transfer(small, grid, ref_stats), grid)
        assert_reports_equal(rep, ref)
        assert stats.summary() == ref_stats.summary() and np.array_equal(samples, before)

    def test_bad_input_rejected(self):
        grid = sg.FrequencyGrid.logspaced(-1, 1, 2)
        with pytest.raises(ValueError, match="samples of shape"):
            hardy.difference_norms(np.zeros((2, len(grid))), first_order(), grid)
        multi = DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"single-input system \(n_in=1\), got n_in=2"):
            hardy.difference_norms(np.zeros((1, len(grid))), multi, grid)

    def test_peak_below_one_samples_array(self):
        # 4000 outputs of a dense 8-state system on 301 points: the samples
        # are 18.4 MiB, and the difference norms hold C Z (m x n), Y (n x k)
        # and one block's difference, the product it is formed from and
        # |.|'s temporaries (measured 2.9 MiB), where the norms of
        # samples - sample_transfer hold two more m x k arrays (36.9 MiB)
        rng = np.random.default_rng(0)
        base = random_stable_dae(8, 0, 3)
        sys = DescriptorSystem(base.E, base.A, base.B, rng.normal(size=(4000, 8)))
        grid = sg.FrequencyGrid.logspaced(-2, 3, 60)
        samples = sg.sample_transfer(sys, grid) * (1.0 + 1e-6)
        CZ, Y = hardy._sample_dense(sys, grid.omegas)
        tracemalloc.start()
        try:
            hardy.difference_norms(samples, sys, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * hardy.NORMS_BLOCK_BYTES + CZ.nbytes + Y.nbytes
        assert peak < samples.nbytes / 5
