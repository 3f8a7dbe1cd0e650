"""Descriptor systems: transfer evaluation, pencil checks, transient runs."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor import cli, descriptor, solver
from sgmor.descriptor import DescriptorSystem, PencilRegularityError
from sgmor.solver import PoleProximityError, factor_pencil

from oracles import moment_oracle

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

    @pytest.mark.parametrize("fmt", DENSE_OR_SPARSE)
    def test_zero_pivot(self, fmt):
        E, A = singular_at(3.0)
        with pytest.raises(PoleProximityError) as exc:
            factor_pencil(fmt(E), fmt(A), 3.0)
        assert exc.value.condition == np.inf

    def test_pivot_ratio_dense(self):
        # dense: pivot ratio; sparse: estimated 1-norm condition number
        for fmt in DENSE_OR_SPARSE:
            with pytest.raises(PoleProximityError) as exc:
                factor_pencil(fmt(np.zeros((2, 2))), fmt(-np.diag([1.0, 1e-17])), 1.0)
            assert 1e15 < exc.value.condition < np.inf

    def test_non_finite(self):
        with pytest.raises(PoleProximityError):
            factor_pencil(np.eye(1), np.full((1, 1), np.nan), 1.0)

    def test_nan_condition_estimate(self, monkeypatch):
        # SuperLU factors the well-conditioned pencil; a NaN estimate of
        # ||M^-1||_1 must still be refused, which `condition > 1e15` would not
        monkeypatch.setattr(solver.spla, "onenormest", lambda *_args, **_kwargs: np.nan)
        with pytest.raises(PoleProximityError, match="ill-conditioned shifted pencil at s=1.0") as exc:
            factor_pencil(np.eye(2), -np.eye(2), 1.0)
        assert np.isnan(exc.value.condition)

    @pytest.mark.parametrize("symmetric_mode", [False, True])
    def test_symmetric_mode_pivots(self, symmetric_mode):
        # MNA of an RC ladder driven by three near-ideal voltage sources
        # (series resistance 1e-12): a structurally symmetric pencil whose
        # source rows have diagonals 12 orders below their off-diagonal 1.
        # Taking those diagonals as pivots (SuperLU's symmetric mode with a
        # zero pivot threshold) leaves a residual of 1.5e-5
        n, sources = 30, (0, 11, 23)
        G = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) * 1e-3
        P = sp.csr_matrix((np.ones(len(sources)), (sources, range(len(sources)))), shape=(n, len(sources)))
        E = sp.block_diag([sp.diags(np.linspace(1e-9, 3e-9, n)), sp.csr_matrix((3, 3))]).tocsr()
        A = -sp.bmat([[G, P], [P.T, -1e-12 * sp.eye(len(sources))]]).tocsr()
        sigma = 2.0 / 1e-6
        rhs = np.random.default_rng(3).normal(size=n + len(sources))
        x = factor_pencil(E, A, sigma, symmetric_mode=symmetric_mode)(rhs)
        residual = np.linalg.norm(rhs - (sigma * E - A) @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-13


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

    def test_pole_proximity_error(self):
        with pytest.raises(PoleProximityError):
            sg.transfer_eval(scalar_system(), -1.0)

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
        # properness is judged on the sampled transfer function, as the
        # certificates' `conditional` flag reads it
        grid = sg.FrequencyGrid.default()

        def proper(sys):
            return bool(sg.hardy_norms(sg.sample_transfer(sys, grid), grid).strictly_proper_ok[0])

        assert proper(scalar_system())
        # direct feedthrough via the algebraic equation: H(s) = 1 + 1/(s+1)
        sys = DescriptorSystem(
            np.diag([1.0, 0.0]),
            np.diag([-1.0, -1.0]),
            np.array([[1.0], [1.0]]),
            np.array([[1.0, 1.0]]),
        )
        assert not proper(sys)

    def test_sparse_rejected_before_decomposing(self, bench_galerkin_d1, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sparse system was densified or decomposed")

        monkeypatch.setattr(DescriptorSystem, "dense", forbidden)
        monkeypatch.setattr(descriptor.lapack, "dgges", forbidden)
        S = bench_galerkin_d1.system
        with pytest.raises(ValueError, match=f"needs a dense system, got a sparse one of N={S.n} states"):
            sg.pencil_spectrum(S)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), rank_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_generalized_eigenvalues(self, n, rank_fraction, seed):
        # the verdicts from the Schur form's (alpha, beta) are those of the
        # generalized eigenvalues LAPACK's ggev gives, E singular included
        rng = np.random.default_rng(seed)
        rank = round(rank_fraction * n)
        E = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
        A = rng.normal(size=(n, n)) - rng.uniform(0.0, 3.0) * np.eye(n)
        rep = sg.pencil_spectrum(DescriptorSystem(E, A, np.ones((n, 1)), np.ones((1, n))))
        alpha, beta = sla.eig(A, E, right=False, homogeneous_eigvals=True)
        finite_mask = np.abs(beta) > 1e-12 * (np.abs(alpha) + np.abs(beta))
        finite = np.sort_complex(alpha[finite_mask] / beta[finite_mask])
        assert rep.infinite_count == n - np.count_nonzero(finite_mask) >= n - rank
        assert rep.finite_eigenvalues.shape == finite.shape
        assert np.allclose(rep.finite_eigenvalues, finite, rtol=1e-10, atol=1e-12)
        assert rep.stable == bool(np.all(finite.real < 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pencil_rejected(self, bad):
        sys = DescriptorSystem(np.eye(2), np.array([[-1.0, bad], [0.0, -1.0]]), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(PencilRegularityError, match="non-finite"):
            sg.pencil_spectrum(sys)


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

    def test_multi_input_rejected_before_factoring(self, monkeypatch):
        def unexpected(*_args, **_kwargs):
            raise AssertionError("factored a multi-input system")

        monkeypatch.setattr(descriptor, "factor_pencil", unexpected)
        sys = DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"single-input system \(n_in=1\), got n_in=2"):
            sg.simulate_transient(sys, lambda t: np.sin(t), 1.0, 0.1)

    @pytest.mark.parametrize("kind", ["smooth_step", "sine_burst"])
    def test_horizon_without_a_step_rejected(self, kind, monkeypatch):
        # step > 2 * horizon rounds to 0 steps, which gave a one-row
        # trajectory with input_l2 = 0 and, for sine_burst, u = [nan]
        def unexpected(*_args, **_kwargs):
            raise AssertionError("factored without a step to take")

        monkeypatch.setattr(descriptor, "factor_pencil", unexpected)
        with pytest.raises(ValueError, match=r"round\(horizon / step\) = 0"):
            sg.simulate_transient(scalar_system(), cli._input_signal(kind), 1.0, 2.5)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            sg.simulate_transient(scalar_system(), lambda t: 0.0 * t, horizon, 0.1)

    def test_non_finite_input_rejected(self):
        # NaN fails every comparison, the u(0) check's included
        for u0 in (0.0, np.nan):
            with pytest.raises(ValueError, match="finite at every time step"):
                sg.simulate_transient(scalar_system(), lambda t: np.where(t > 0.5, np.nan, u0), 1.0, 0.1)

    def test_inconsistent_start_rejected(self):
        with pytest.raises(ValueError, match="u\\(0\\)"):
            sg.simulate_transient(scalar_system(), lambda t: np.ones_like(t), 1.0, 0.01)

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
        grid = sg.FrequencyGrid.default()
        rep = sg.hardy_norms(sg.sample_transfer(sys, grid), grid)
        for seed in range(20):
            u = band_limited_input(seed)
            traj = sg.simulate_transient(sys, u, 30.0, 2e-3)
            sup_y = traj.output_sup()[0]
            l2_y = traj.output_l2()[0]
            assert sup_y <= rep.h2[0] * traj.input_l2 * (1 + 2e-3)
            assert l2_y <= rep.hinf[0] * traj.input_l2 * (1 + 2e-3)

    def test_state_limit(self, bench_galerkin_d1, monkeypatch):
        # above TRANSIENT_MAX_STATES the transient raises before factoring
        S = bench_galerkin_d1.system
        monkeypatch.setattr(descriptor, "TRANSIENT_MAX_STATES", S.n - 1)

        def unexpected(*_args, **_kwargs):
            raise AssertionError("factored a system above the limit")

        monkeypatch.setattr(descriptor, "factor_pencil", unexpected)
        with pytest.raises(ValueError, match=f"N={S.n} > {S.n - 1} states"):
            sg.simulate_transient(S, lambda t: np.sin(t), 1e-4, 1e-6)

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
        assert self.close(moment_oracle(sparse_sys, 1.0, 4), moment_oracle(dense_sys, 1.0, 4))
        u = lambda t: np.sin(t) * np.exp(-t)
        ys = sg.simulate_transient(sparse_sys, u, 5.0, 0.01).outputs
        yd = sg.simulate_transient(dense_sys, u, 5.0, 0.01).outputs
        assert self.close(ys, yd)

    @pytest.mark.parametrize("step", [5e-8, 1e-6, 1e-4])
    def test_ladder_transient(self, bench_galerkin_d1, step):
        # SuperLU's symmetric mode on the sparse ladder against LAPACK's LU
        # of its dense copy, from a step far below the ladder's time
        # constants to one far above them
        sparse_sys = bench_galerkin_d1.system
        u = lambda t: 1.0 - np.exp(-t / (t[-1] / 20.0))
        ys = sg.simulate_transient(sparse_sys, u, 400 * step, step).outputs
        yd = sg.simulate_transient(sparse_sys.dense(), u, 400 * step, step).outputs
        assert self.close(ys, yd)


@pytest.mark.parametrize(
    "fmt_E, fmt_A, fmt_C",
    list(itertools.product(DENSE_OR_SPARSE, repeat=3)),
    ids=lambda f: "sparse" if f is sp.csr_matrix else "dense",
)
def test_format_fixed_at_construction(fmt_E, fmt_A, fmt_C):
    # a sparse E or A makes E, A and C float CSR, anything else makes them
    # float ndarrays; B is dense either way, and nothing in its format is copied
    rng = np.random.default_rng(8)
    E, A = np.diag([1.0, 1.0, 0.0, 1.0]), -2.0 * np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    B, C = rng.normal(size=(4, 1)), rng.normal(size=(2, 4))
    given = {"E": fmt_E(E), "A": fmt_A(A), "C": fmt_C(C)}
    sys = DescriptorSystem(given["E"], given["A"], sp.csr_matrix(B), given["C"])
    sparse = sp.csr_matrix in (fmt_E, fmt_A)
    assert sys.is_sparse == sparse
    for name, M in given.items():
        stored = getattr(sys, name)
        assert type(stored) is (sp.csr_matrix if sparse else np.ndarray) and stored.dtype == float
        if type(M) is type(stored):
            assert np.shares_memory(stored.data, M.data)
    assert type(sys.B) is np.ndarray and sys.B.dtype == float and np.array_equal(sys.B, B)

    reference = DescriptorSystem(E, A, B, C)
    grid = sg.FrequencyGrid(np.array([0.0, 0.5, 3.0, 40.0]))
    H = np.column_stack([sg.transfer_eval(reference, 1j * w)[:, 0] for w in grid.omegas])
    scale = np.abs(H).max()
    assert np.abs(sg.sample_transfer(sys, grid) - H).max() <= 1e-13 * scale
    for j, w in enumerate(grid.omegas):
        assert np.abs(sg.transfer_eval(sys, 1j * w)[:, 0] - H[:, j]).max() <= 1e-13 * scale

    D = sys.dense()
    assert not D.is_sparse and D.dense() is D
    for name, M in (("E", E), ("A", A), ("B", B), ("C", C)):
        assert type(getattr(D, name)) is np.ndarray and np.array_equal(getattr(D, name), M)
