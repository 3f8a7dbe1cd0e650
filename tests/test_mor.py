"""Krylov projection, SVD re-orthonormalization, and deflation."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import sgmor as sg
from sgmor import mor
from sgmor.descriptor import DescriptorSystem
from sgmor.mor import PROJECTION_BLOCK, ReducedSystem
from sgmor.solver import RESIDUAL_RTOL, PoleProximityError, ResidualMissError, SolverStats

from conftest import scalar_galerkin
from oracles import build_quadrature, moment_oracle


def fake_reduced(Cbar):
    r = Cbar.shape[1]
    sys = DescriptorSystem(np.eye(r), -np.eye(r), np.ones((r, 1)), Cbar)
    return ReducedSystem(system=sys, T=np.eye(r))


class TestMomentOracle:
    def test_scalar_first_moment(self):
        sys = DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        mom = moment_oracle(sys, 0.0, 1)
        assert abs(mom[0, 0] - 1.0) < 1e-14

    def test_scalar_second_moment_finite_difference(self):
        # H(s) = 1/(1+s): Taylor coefficients at 0 are 1, -1, ...
        sys = DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        mom = moment_oracle(sys, 0.0, 2)
        assert abs(mom[1, 0] + 1.0) < 1e-14
        eps = 1e-6
        fd = (
            sg.transfer_eval(sys, eps)[0, 0] - sg.transfer_eval(sys, -eps)[0, 0]
        ) / (2 * eps)
        assert abs(mom[1, 0] - fd.real) < 1e-6

    def test_taylor_reconstruction(self, desk_galerkin):
        s0, k = 1.0, 6
        mom = moment_oracle(desk_galerkin, s0, k)
        ds = 0.05
        series = sum(mom[j] * ds**j for j in range(k))
        exact = sg.transfer_eval(desk_galerkin.system, s0 + ds)[:, 0].real
        assert np.abs(series - exact).max() < 1e-7

    def test_zero_input_vector(self, desk_galerkin):
        S = desk_galerkin.system
        sys = DescriptorSystem(S.E, S.A, np.zeros((S.n, 1)), S.C)
        mom = moment_oracle(sys, 1.0, 3)
        assert np.all(mom == 0.0)


class TestArnoldiReduce:
    def test_orthonormal_projection(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 15)
        G = red.T.T @ red.T
        assert np.abs(G - np.eye(15)).max() < 1e-10

    def test_projected_matrices_consistent(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 10)
        S = desk_galerkin.system
        E = sp.csr_matrix(S.E).toarray()
        A = sp.csr_matrix(S.A).toarray()
        B = sp.csr_matrix(S.B).toarray()
        C = sp.csr_matrix(S.C).toarray()
        T = red.T
        assert np.abs(np.asarray(red.system.E) - T.T @ E @ T).max() < 1e-12
        assert np.abs(np.asarray(red.system.A) - T.T @ A @ T).max() < 1e-12
        assert np.abs(np.asarray(red.system.B) - T.T @ B).max() < 1e-12
        assert np.abs(np.asarray(red.system.C) - C @ T).max() < 1e-12

    def test_moment_matching(self, desk_galerkin):
        for r in (4, 8, 12):
            red = sg.arnoldi_reduce(desk_galerkin, 1.0, r)
            mf = moment_oracle(desk_galerkin, 1.0, r)
            mr = moment_oracle(red.system, 1.0, r)
            rel = np.abs(mf - mr) / np.maximum(np.abs(mf), 1e-300)
            assert rel.max() < 1e-6

    def test_full_space_exact(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, desk_galerkin.dimension)
        for s in (0.0, 0.5j, 2.0 + 1.0j):
            hf = sg.transfer_eval(desk_galerkin.system, s)
            hr = sg.transfer_eval(red.system, s)
            assert np.abs(hf - hr).max() < 1e-8

    def test_breakdown_flag(self):
        # K b is proportional to b: the Krylov space has dimension 1, and
        # breakdown returns fewer vectors than asked for
        sys = DescriptorSystem(np.eye(3), -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        red = sg.arnoldi_reduce(sys, 1.0, 3)
        assert red.r == 1

    def test_final_system_breakdown_rule(self):
        # the pipeline builds one basis at the largest r it needs and reports
        # breakdown for a smaller target exactly when the basis falls short of it
        sys = DescriptorSystem(np.eye(3), -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        krylov = sg.arnoldi_reduce(sys, 1.0, 3)
        for target in (1, 2, 3):
            direct = sg.arnoldi_reduce(sys, 1.0, target)
            final = krylov.truncate(min(target, krylov.r))
            assert (krylov.r < target) == (direct.r < target)
            assert final.r == direct.r
            assert np.array_equal(final.T, direct.T)

    def test_orthonormal_past_rounding_regime(self, bench_galerkin_d1):
        # at r = 40 the later Krylov vectors are set by rounding
        red = sg.arnoldi_reduce(bench_galerkin_d1, 5.0e5, 40)
        assert red.r == 40
        assert np.linalg.norm(red.T.T @ red.T - np.eye(40)) <= 1e-12

    def test_bad_r_rejected(self, desk_galerkin):
        with pytest.raises(ValueError):
            sg.arnoldi_reduce(desk_galerkin, 1.0, 0)
        with pytest.raises(ValueError):
            sg.arnoldi_reduce(desk_galerkin, 1.0, desk_galerkin.dimension + 1)

    @pytest.mark.parametrize("fmt", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_multi_input_rejected(self, fmt):
        # refused before the solver sees the (n, 2) right-hand side
        sys = DescriptorSystem(fmt(np.eye(3)), fmt(-np.eye(3)), np.ones((3, 2)), np.ones((1, 3)))
        with pytest.raises(ValueError, match=r"single-input system \(n_in=1\), got n_in=2"):
            sg.arnoldi_reduce(sys, 1.0, 2)

    def test_singular_shift_rejected(self):
        sys = DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(PoleProximityError):
            sg.arnoldi_reduce(sys, -1.0, 1)


class TestStructuredArnoldi:
    """Krylov solves by real GMRES on the even/odd Schur complement."""

    S0 = 5.0e5  # the pipeline's default shift

    def test_moments_match_superlu_oracle(self, bench_galerkin_d2):
        # 1e-8 is the pipeline benchmark's moment bound; with solves at
        # RESIDUAL_RTOL the first moments agree far below it
        stats = SolverStats()
        red = sg.arnoldi_reduce(bench_galerkin_d2, self.S0, 50, stats)
        assert stats.method == "gmres-schur"
        assert len(stats.iterations) == len(stats.residuals) == 50
        assert max(stats.residuals) <= RESIDUAL_RTOL
        assert stats.schur_unknowns == 420  # 21 degree-1 blocks of 20 states
        mf = moment_oracle(bench_galerkin_d2, self.S0, 4)
        mr = moment_oracle(red.system, self.S0, 4)
        rel = np.linalg.norm(mf - mr, axis=1) / np.linalg.norm(mf, axis=1)
        assert rel.max() <= 1e-8

    def test_orthonormal_at_r120(self, bench_galerkin_d2):
        red = sg.arnoldi_reduce(bench_galerkin_d2, self.S0, 120)
        assert red.r == 120
        assert np.linalg.norm(red.T.T @ red.T - np.eye(120)) <= 1e-12

    def test_unstructured_galerkin_uses_superlu(self):
        # degrees 0 and 2 coupled: no exact split
        gsys = scalar_galerkin(np.array([[-1.0, 0.5, 0.2], [0.5, -1.0, 0.5], [0.2, 0.5, -1.0]]))
        assert gsys.even_odd_split() is None
        stats = SolverStats()
        red = sg.arnoldi_reduce(gsys, 1.0, 3, stats)
        assert stats.summary()["method"] == "superlu"
        assert stats.iterations == []
        assert np.array_equal(red.T, sg.arnoldi_reduce(gsys.system, 1.0, 3).T)

    def test_singular_mean_block(self):
        # the mean block -A_00 = 0 is singular at s = 0, though the coupled
        # pencil is not: Arnoldi raises before its first solve, naming s and N
        gsys = scalar_galerkin(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        stats = SolverStats()
        with pytest.raises(PoleProximityError, match=r"^singular mean block at s=0\.0, N=2$") as exc:
            sg.arnoldi_reduce(gsys, 0.0, 2, stats)
        assert exc.value.condition == np.inf
        assert stats.method == "gmres-schur" and stats.iterations == []

    def test_unconverged_solve_raises(self, desk_galerkin, lying_gmres):
        # a near miss that claims success: the residual check rejects the
        # first solve, and Arnoldi raises it, naming s, N and the iterations
        stats = SolverStats()
        with pytest.raises(
            ResidualMissError, match=r"^true relative residual \S+ after [1-9]\d* GMRES iterations at s=1.0, N=40$"
        ) as exc:
            sg.arnoldi_reduce(desk_galerkin, 1.0, 6, stats)
        assert exc.value.iterations > 0
        assert stats.method == "gmres-schur" and stats.iterations == [] and stats.residuals == []



@pytest.fixture(scope="module")
def traced_r120(bench_galerkin_d2):
    """arnoldi_reduce on the d = 2 ladder at r = 120, with its tracemalloc peak."""
    tracemalloc.start()
    try:
        red = sg.arnoldi_reduce(bench_galerkin_d2, TestStructuredArnoldi.S0, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return red, peak


def projection_error(red: ReducedSystem, S: DescriptorSystem) -> float:
    """Largest relative gap of the reduced E, A, B and C to T^T E T, T^T A T,
    T^T B and C T formed from T in one product each."""
    T, R = red.T, red.system
    pairs = ((R.E, T.T @ (S.E @ T)), (R.A, T.T @ (S.A @ T)), (R.B, T.T @ S.B), (R.C, S.C @ T))
    return max(np.abs(got - ref).max() / np.abs(ref).max() for got, ref in pairs)


class TestBlockProjection:
    """T is the Arnoldi basis itself, and the reduced matrices are projected
    onto it mor.PROJECTION_BLOCK basis vectors at a time."""

    def test_peak_holds_one_basis(self, traced_r120):
        # T is a Fortran-ordered view of the basis rows, not a copy, and no
        # N x r product is formed: a copy of T or the product E T would
        # put the peak about 1.15 T above T; the blocks leave about 0.34 T
        red, peak = traced_r120
        assert red.T.flags.f_contiguous and not red.T.flags.owndata
        assert peak - red.T.nbytes < 0.5 * red.T.nbytes

    def test_reduced_matrices_are_projections(self, bench_galerkin_d2, traced_r120):
        red, _ = traced_r120
        assert projection_error(red, bench_galerkin_d2.system) <= 1e-14

    @pytest.mark.parametrize("r", [1, PROJECTION_BLOCK, PROJECTION_BLOCK + 1, 2 * PROJECTION_BLOCK + 1])
    def test_block_edges(self, desk_galerkin, r):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, r)
        assert red.r == r and projection_error(red, desk_galerkin.system) <= 1e-14

    def test_solver_released_before_projection(self, desk_galerkin, monkeypatch):
        # the shifted solver's factors or Krylov workspace are freed before
        # the projection allocates its blocks, on both solve routes
        solvers, project = [], mor._project

        def tracked(*args):
            solver = solver_class(*args)
            solvers.append(weakref.ref(solver))
            return solver

        def checked(*args):
            assert solvers[-1]() is None, "the shifted solver outlives the Krylov solves"
            return project(*args)

        solver_class = mor.ShiftedSolver
        monkeypatch.setattr(mor, "ShiftedSolver", tracked)
        monkeypatch.setattr(mor, "_project", checked)
        sparse = DescriptorSystem(sp.identity(3), -sp.diags([1.0, 2.0, 3.0]), np.ones((3, 1)), np.ones((1, 3)))
        for sys in (desk_galerkin, sparse):
            sg.arnoldi_reduce(sys, 1.0, 3)
        assert len(solvers) == 2

    def test_breakdown_basis(self):
        # the Krylov space of test_breakdown_kept_only_without_cut, sparse:
        # T keeps the two rows Gram-Schmidt filled
        sys = DescriptorSystem(sp.identity(3), -sp.diags([1.0, 1.0, 2.0]), np.ones((3, 1)), np.ones((1, 3)))
        red = sg.arnoldi_reduce(sys, 1.0, 3)
        assert red.r == 2 and red.T.flags.f_contiguous
        assert projection_error(red, sys) <= 1e-14


class TestTruncate:
    def test_nested_bases(self, desk_galerkin):
        big = sg.arnoldi_reduce(desk_galerkin, 1.0, 12).truncate(8)
        small = sg.arnoldi_reduce(desk_galerkin, 1.0, 8)
        assert np.array_equal(big.T, small.T)
        assert big.r == 8
        for name in ("E", "A", "B", "C"):
            a = np.asarray(getattr(big.system, name))
            b = np.asarray(getattr(small.system, name))
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_bad_r_rejected(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 6)
        with pytest.raises(ValueError):
            red.truncate(0)
        with pytest.raises(ValueError):
            red.truncate(red.r + 1)

    def test_breakdown_kept_only_without_cut(self):
        # two distinct eigenvalues: the Krylov space has dimension 2, so the
        # basis falls short of r = 3; truncating to 2 cuts nothing, and
        # truncating to 1 meets its target
        sys = DescriptorSystem(np.eye(3), -np.diag([1.0, 1.0, 2.0]), np.ones((3, 1)), np.ones((1, 3)))
        red = sg.arnoldi_reduce(sys, 1.0, 3)
        assert red.r == 2
        assert np.array_equal(red.truncate(2).T, red.T)
        assert red.truncate(1).r == 1


class TestSurrogate:
    def test_zero_coefficients(self, desk_galerkin, desk_spec):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 5)
        p = np.array([0.1, 0.2, -0.3])
        assert sg.reduced_output_surrogate(red, np.zeros(5), desk_spec, p) == 0.0

    def test_associativity_reading(self, desk_galerkin, desk_spec):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 7)
        rng = np.random.default_rng(12)
        vbar = rng.normal(size=7)
        P = rng.uniform(-1, 1, (6, 3))
        got = sg.reduced_output_surrogate(red, vbar, desk_spec, P)
        Cbar = np.asarray(red.system.C)
        w = Cbar @ vbar
        phi = sg.eval_basis_matrix(desk_spec, P)
        assert np.abs(got - phi @ w).max() < 1e-12

    def test_full_projection_matches_galerkin(self, desk_galerkin, desk_spec):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, desk_galerkin.dimension)
        rng = np.random.default_rng(13)
        # a state expressed in the reduced coordinates reproduces the full
        # Galerkin output surface
        x = rng.normal(size=desk_galerkin.dimension)
        vbar = red.T.T @ x
        P = rng.uniform(-1, 1, (4, 3))
        got = sg.reduced_output_surrogate(red, vbar, desk_spec, P)
        w = sp.csr_matrix(desk_galerkin.system.C).toarray() @ (red.T @ vbar)
        phi = sg.eval_basis_matrix(desk_spec, P)
        assert np.abs(got - phi @ w).max() < 1e-10


class TestOutputLayout:
    def test_one_row_per_basis_function(self, desk_galerkin):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 4)
        assert red.system.n_out == red.truncate(2).system.n_out == desk_galerkin.m == 10
        assert len(sg.svd_basis(red).kappa) == desk_galerkin.m


class TestSvdBasis:
    def test_hand_example(self):
        Cbar = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        basis = sg.svd_basis(fake_reduced(Cbar))
        assert np.allclose(basis.singular_values, [2.0, 1.0])
        assert np.allclose(basis.kappa, [1.0, 1.0, 0.0])

    def test_factorization_and_kappa_sum(self):
        rng = np.random.default_rng(14)
        Cbar = rng.normal(size=(12, 5))
        basis = sg.svd_basis(fake_reduced(Cbar))
        recon = basis.U @ np.diag(basis.singular_values) @ basis.Q
        assert np.abs(recon - Cbar).max() < 1e-10
        assert np.all(basis.singular_values[:-1] >= basis.singular_values[1:])
        assert np.all((basis.kappa >= 0) & (basis.kappa <= 1 + 1e-12))
        assert abs(np.sum(basis.kappa**2) - basis.rank) < 1e-10

    def test_rank_deficiency_truncated(self):
        Cbar = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        basis = sg.svd_basis(fake_reduced(Cbar))
        assert basis.rank == 1

    def test_orthonormal_on_parameter_space(self, desk_galerkin, desk_spec):
        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 6)
        basis = sg.svd_basis(red)
        quad = build_quadrature(desk_spec, mode="tensor", level=3)
        psi = basis.eval_orthonormal(desk_spec, quad.nodes)
        G = (psi * quad.weights[:, None]).T @ psi
        assert np.abs(G - np.eye(basis.rank)).max() < 1e-10


class TestTransformCoefficients:
    def test_orthogonal_columns_identity(self):
        Cbar = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        basis = sg.svd_basis(fake_reduced(Cbar))
        v = np.array([0.7, -0.2])
        assert np.abs(sg.transform_coefficients(basis, v) - v).max() < 1e-14

    def test_representation_equivalence(self, desk_spec):
        rng = np.random.default_rng(15)
        Cbar = rng.normal(size=(desk_spec.m, 4))
        basis = sg.svd_basis(fake_reduced(Cbar))
        for _ in range(100):
            v = rng.normal(size=4)
            p = rng.uniform(-1, 1, 3)
            phi = sg.eval_basis_matrix(desk_spec, p)[0]
            lhs = float(phi @ (Cbar @ v))
            vstar = sg.transform_coefficients(basis, v)
            rhs = float((phi @ basis.U) @ vstar)
            assert abs(lhs - rhs) < 1e-10

    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(16)
        basis = sg.svd_basis(fake_reduced(rng.normal(size=(8, 3))))
        assert np.all(sg.transform_coefficients(basis, np.zeros(3)) == 0.0)


class TestDeflate:
    def test_nothing_truncated(self):
        rng = np.random.default_rng(17)
        basis = sg.svd_basis(fake_reduced(rng.normal(size=(10, 4))))
        thr = basis.singular_values[-1] * 0.5
        r_prime, cert = sg.deflate(basis, thr, rng.normal(size=(5, 4)))
        assert r_prime == basis.rank
        assert cert.aggregate == 0.0
        assert np.all(cert.pointwise == 0.0)

    def test_direct_formula(self):
        Cbar = np.diag([2.0, 1.0, 1e-9])
        Cbar = np.vstack([Cbar, np.zeros((2, 3))])
        basis = sg.svd_basis(fake_reduced(Cbar))
        vbar = np.array([[1.0, 1.0, 1.0]])
        r_prime, cert = sg.deflate(basis, 1e-4, vbar)
        assert r_prime == 2
        expect = np.sqrt(1.0) * 1e-9 * np.linalg.norm(vbar[0])
        assert abs(cert.pointwise[0] - expect) < 1e-22

    def test_bad_threshold(self):
        rng = np.random.default_rng(18)
        basis = sg.svd_basis(fake_reduced(rng.normal(size=(6, 3))))
        with pytest.raises(ValueError):
            sg.deflate(basis, 0.0, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            sg.deflate(basis, basis.singular_values[0] * 2, np.zeros((1, 3)))

    def test_randomized_bound_monte_carlo(self, desk_spec):
        rng = np.random.default_rng(19)
        n_mc = 20_000
        P = desk_spec.sample(n_mc, rng)
        phi = sg.eval_basis_matrix(desk_spec, P)
        for _ in range(20):
            r = int(rng.integers(3, 7))
            scales = 10.0 ** (-rng.uniform(0.0, 5.0, r))
            Cbar = rng.normal(size=(desk_spec.m, r)) * scales
            basis = sg.svd_basis(fake_reduced(Cbar))
            vbar = rng.normal(size=(10, r))
            thr = basis.singular_values[0] * 10.0 ** (-rng.uniform(1.0, 4.0))
            r_prime, cert = sg.deflate(basis, thr, vbar)
            vstar = sg.transform_coefficients(basis, vbar)
            psi = phi @ basis.U
            err = vstar[:, r_prime:] @ psi[:, r_prime:].T
            measured = np.sqrt(np.mean(err**2, axis=1))
            assert np.all(measured <= cert.pointwise * (1 + 0.2) + 1e-15)


class TestStabilityEscalation:
    def test_reduced_benchmark_eventually_stable(self, bench_galerkin_d1):
        red = sg.arnoldi_reduce(bench_galerkin_d1, 5.0e5, 40)
        verdicts = {}
        for r in (5, 10, 20, 30, 40):
            verdicts[r] = sg.pencil_spectrum(red.truncate(r).system).stable
        assert verdicts[40]
        # once stable the sweep stays stable for all larger r tested
        rs = sorted(verdicts)
        first_stable = next(r for r in rs if verdicts[r])
        assert all(verdicts[r] for r in rs if r >= first_stable)
