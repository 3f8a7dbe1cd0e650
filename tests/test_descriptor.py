"""Descriptor systems: transfer evaluation, pencil checks, transient runs."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sgmor as sg
from sgmor.descriptor import (
    DescriptorSystem,
    PencilRegularityError,
    PoleProximityError,
    factor_pencil,
)

DENSE_OR_SPARSE = [np.asarray, sp.csr_matrix]


def scalar_system():
    return DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))


def dae_system():
    return DescriptorSystem(
        np.diag([1.0, 0.0]),
        np.diag([-1.0, 1.0]),
        np.array([[1.0], [1.0]]),
        np.array([[1.0, 0.0]]),
    )


def singular_at(s):
    """Scalar system whose pencil s*E - A is exactly zero at the given s."""
    return np.eye(1), s * np.eye(1)


class TestFactorPencil:
    @pytest.mark.parametrize("fmt", DENSE_OR_SPARSE)
    def test_real_and_complex_shift_dtypes(self, fmt):
        E, A = fmt(np.eye(3)), fmt(-2.0 * np.eye(3) + np.diag([0.5, 0.5], 1))
        rhs = np.ones(3)
        x = factor_pencil(E, A, 1.0)(rhs)
        assert x.dtype == float
        assert np.abs((np.eye(3) - A @ np.eye(3)) @ x - rhs).max() < 1e-14
        assert factor_pencil(E, A, 1.0 + 2.0j)(rhs.astype(complex)).dtype == complex

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("fmt", DENSE_OR_SPARSE)
    def test_zero_pivot(self, fmt):
        E, A = singular_at(3.0)
        with pytest.raises(PoleProximityError) as exc:
            factor_pencil(fmt(E), fmt(A), 3.0)
        assert exc.value.condition == np.inf

    def test_pivot_ratio_dense(self):
        with pytest.raises(PoleProximityError) as exc:
            factor_pencil(np.zeros((2, 2)), -np.diag([1.0, 1e-17]), 1.0)
        assert exc.value.condition > 1e15

    def test_non_finite(self):
        with pytest.raises(PoleProximityError):
            factor_pencil(np.eye(1), np.full((1, 1), np.nan), 1.0)


class TestTransferEval:
    def test_scalar_at_zero(self):
        assert abs(sg.transfer_eval(scalar_system(), 0.0)[0, 0] - 1.0) < 1e-14

    def test_dae_by_hand(self):
        # algebraic variable eliminated by hand: H(s) = 1/(s+1)... first
        # state only, second state fixed by 0 = x2 + u
        val = sg.transfer_eval(dae_system(), 1.0)[0, 0]
        assert abs(val - 0.5) < 1e-14

    def test_stable_dc_gain_formula(self):
        rng = np.random.default_rng(3)
        A = -np.eye(5) * 2 + 0.2 * rng.normal(size=(5, 5))
        B = rng.normal(size=(5, 1))
        C = rng.normal(size=(2, 5))
        sys = DescriptorSystem(np.eye(5), A, B, C)
        expect = -C @ np.linalg.solve(A, B)
        assert np.abs(sg.transfer_eval(sys, 0.0) - expect).max() < 1e-12

    def test_linearity_in_b_and_c(self):
        rng = np.random.default_rng(4)
        A = -2 * np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        B1, B2 = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        C = rng.normal(size=(1, 4))
        s = 0.7 + 1.3j
        h12 = sg.transfer_eval(DescriptorSystem(np.eye(4), A, B1 + B2, C), s)
        h1 = sg.transfer_eval(DescriptorSystem(np.eye(4), A, B1, C), s)
        h2 = sg.transfer_eval(DescriptorSystem(np.eye(4), A, B2, C), s)
        assert np.abs(h12 - h1 - h2).max() < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        A = -np.eye(6) + 0.3 * rng.normal(size=(6, 6))
        sys = DescriptorSystem(np.eye(6), A, rng.normal(size=(6, 1)), rng.normal(size=(3, 6)))
        s = 0.2 + 2.0j
        assert np.abs(sg.transfer_eval(sys, np.conj(s)) - np.conj(sg.transfer_eval(sys, s))).max() < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_pole_proximity_error(self):
        with pytest.raises(PoleProximityError):
            sg.transfer_eval(scalar_system(), -1.0)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("fmt", DENSE_OR_SPARSE)
    def test_exactly_singular_pencil(self, fmt):
        E, A = singular_at(200.0)
        sys = DescriptorSystem(fmt(E), fmt(A), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(PoleProximityError):
            sg.transfer_eval(sys, 200.0)

    def test_b_stored_dense(self):
        sys = DescriptorSystem(
            sp.eye(2, format="csr"), -sp.eye(2, format="csr"), sp.csr_matrix([[1], [0]]),
            sp.csr_matrix([[1.0, 1.0]]),
        )
        assert isinstance(sys.B, np.ndarray) and sys.B.dtype == float
        assert sys.B.shape == (2, 1)
        assert sp.issparse(sys.E) and sp.issparse(sys.A) and sp.issparse(sys.C)


class TestPencilSpectrum:
    def test_scalar_pencil(self):
        rep = sg.pencil_spectrum(scalar_system())
        assert rep.stable
        assert len(rep.finite_eigenvalues) == 1
        assert abs(rep.finite_eigenvalues[0] + 1.0) < 1e-12

    def test_dae_infinite_count(self):
        rep = sg.pencil_spectrum(dae_system())
        assert rep.stable
        assert rep.infinite_count == 1
        assert abs(rep.finite_eigenvalues[0] + 1.0) < 1e-12

    def test_unstable_detected(self):
        sys = DescriptorSystem(np.eye(1), np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        assert not sg.pencil_spectrum(sys).stable

    def test_finite_plus_infinite_counts(self):
        rep = sg.pencil_spectrum(dae_system())
        assert len(rep.finite_eigenvalues) + rep.infinite_count == 2

    def test_singular_pencil_rejected(self):
        Z = np.zeros((2, 2))
        sys = DescriptorSystem(Z, Z, np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(PencilRegularityError):
            sg.pencil_spectrum(sys)

    def test_strictly_proper_verdict(self):
        assert sg.pencil_spectrum(scalar_system()).strictly_proper
        # direct feedthrough via the algebraic equation: H(s) = 1 + 1/(s+1)
        sys = DescriptorSystem(
            np.diag([1.0, 0.0]),
            np.diag([-1.0, -1.0]),
            np.array([[1.0], [1.0]]),
            np.array([[1.0, 1.0]]),
        )
        assert not sg.pencil_spectrum(sys).strictly_proper

    def test_sampled_method_above_cap(self, bench_galerkin_d1):
        rep = sg.pencil_spectrum(bench_galerkin_d1.system, dim_cap=100)
        assert rep.method == "sampled"
        assert rep.stable

    def test_sampled_method_propagates_unexpected_errors(self, bench_galerkin_d1, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not an eigensolver failure")

        monkeypatch.setattr(spla, "eigs", broken)
        with pytest.raises(TypeError):
            sg.pencil_spectrum(bench_galerkin_d1.system, dim_cap=100)


class TestSimulateTransient:
    def test_zero_input(self):
        traj = sg.simulate_transient(scalar_system(), lambda t: 0.0 * t, 2.0, 0.01)
        assert np.all(traj.outputs == 0.0)
        assert traj.input_l2 == 0.0

    def test_analytic_first_order_response(self):
        # x' = -x + u with u = 1 - exp(-t): y = 1 - (1+t) exp(-t)
        traj = sg.simulate_transient(
            scalar_system(), lambda t: 1.0 - np.exp(-t), 8.0, 1e-3
        )
        exact = 1.0 - (1.0 + traj.times) * np.exp(-traj.times)
        assert np.abs(traj.outputs[:, 0] - exact).max() < 1e-3

    def test_second_order_convergence(self):
        errs = []
        for step in (0.04, 0.02, 0.01):
            traj = sg.simulate_transient(
                scalar_system(), lambda t: 1.0 - np.exp(-t), 4.0, step
            )
            exact = 1.0 - (1.0 + traj.times) * np.exp(-traj.times)
            errs.append(np.abs(traj.outputs[:, 0] - exact).max())
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.9)

    def test_inconsistent_start_rejected(self):
        with pytest.raises(ValueError, match="u\\(0\\)"):
            sg.simulate_transient(scalar_system(), lambda t: np.ones_like(t), 1.0, 0.01)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("fmt", DENSE_OR_SPARSE)
    def test_exactly_singular_step_matrix(self, fmt):
        # sigma E - A vanishes for sigma = 2/h
        h = 0.01
        E, A = singular_at(2.0 / h)
        sys = DescriptorSystem(fmt(E), fmt(A), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(PoleProximityError):
            sg.simulate_transient(sys, lambda t: np.sin(t), 1.0, h)

    def test_index1_dae_runs(self):
        traj = sg.simulate_transient(dae_system(), lambda t: np.sin(t), 5.0, 1e-3)
        # algebraic constraint x2 = -u holds; output reads the ODE state
        assert np.all(np.isfinite(traj.outputs))

    def test_lemma1_bounds_scalar(self):
        from tests.conftest import band_limited_input

        sys = scalar_system()
        rep = sg.transfer_norms(sys)
        for seed in range(20):
            u = band_limited_input(seed)
            traj = sg.simulate_transient(sys, u, 30.0, 2e-3)
            sup_y = traj.output_sup()[0]
            l2_y = traj.output_l2()[0]
            assert sup_y <= rep.h2[0] * traj.input_l2 * (1 + 2e-3)
            assert l2_y <= rep.hinf[0] * traj.input_l2 * (1 + 2e-3)

    def test_trajectory_csv(self, tmp_path):
        traj = sg.simulate_transient(scalar_system(), lambda t: np.sin(t), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (11, 2)
        assert np.allclose(data[:, 0], traj.times)


class TestSparseDenseAgreement:
    """The sparse Galerkin system and its dense copy share one solve path."""

    @staticmethod
    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_transfer_moments_transient(self, desk_galerkin):
        sparse_sys = desk_galerkin.system
        dense_sys = sparse_sys.dense()
        assert sparse_sys.is_sparse and not dense_sys.is_sparse
        for s in (0.0, 0.5j, 3.0 + 10.0j):
            assert self.close(sg.transfer_eval(sparse_sys, s), sg.transfer_eval(dense_sys, s))
        assert self.close(sg.moment_oracle(sparse_sys, 1.0, 4), sg.moment_oracle(dense_sys, 1.0, 4))
        u = lambda t: np.sin(t) * np.exp(-t)
        ys = sg.simulate_transient(sparse_sys, u, 5.0, 0.01).outputs
        yd = sg.simulate_transient(dense_sys, u, 5.0, 0.01).outputs
        assert self.close(ys, yd)
