"""Stochastic Galerkin assembly and downsizing."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor.galerkin import ParametricSystem, Selection, linear_moment_matrix

from conftest import scattered_index_sets
from oracles import _assemble_quadrature, assemble_kron, build_quadrature, expectation_tensors, moment_matrix_loop


def scalar_affine():
    """E = 1, A = -(2 + p), B = C = 1 with p uniform on [-1, 1]."""
    return ParametricSystem(
        n=1,
        q=1,
        E0=np.eye(1),
        A0=np.array([[-2.0]]),
        B0=np.ones((1, 1)),
        C0=np.ones((1, 1)),
        A_terms=[np.array([[-1.0]])],
    )


def scalar_spec(d=1):
    return sg.BasisSpec.uniform([(-1.0, 1.0)], sg.build_index_set(1, d))


class TestAssemble:
    def test_parameter_independent_block_diagonal(self):
        psys = ParametricSystem(
            n=2,
            q=2,
            E0=np.eye(2),
            A0=np.array([[-1.0, 0.5], [0.0, -2.0]]),
            B0=np.array([[1.0], [0.0]]),
            C0=np.array([[1.0, 1.0]]),
        )
        spec = sg.BasisSpec.uniform([(-1, 1)] * 2, sg.build_index_set(2, 2))
        g = sg.assemble(psys, spec)
        A = sp.csr_matrix(g.system.A).toarray()
        expect = np.kron(np.eye(spec.m), psys.A0.toarray())
        assert np.abs(A - expect).max() < 1e-14
        B = sp.csr_matrix(g.system.B).toarray()
        assert np.abs(B[:2] - psys.B0).max() < 1e-14
        assert np.abs(B[2:]).max() == 0.0

    def test_scalar_affine_analytic_blocks(self):
        g = sg.assemble(scalar_affine(), scalar_spec())
        A = sp.csr_matrix(g.system.A).toarray()
        c = 1.0 / np.sqrt(3.0)
        assert np.abs(A - np.array([[-2.0, -c], [-c, -2.0]])).max() < 1e-14
        assert np.abs(sp.csr_matrix(g.system.E).toarray() - np.eye(2)).max() < 1e-14
        assert np.abs(sp.csr_matrix(g.system.C).toarray() - np.eye(2)).max() < 1e-14

    def test_block_symmetry(self, desk_psys, desk_spec):
        g = sg.assemble(desk_psys, desk_spec)
        E = sp.csr_matrix(g.system.E)
        # E(p) affine in p3 only: the coupled matrix inherits the symmetry
        # of the moment matrices E[Phi_i Phi_j p3]
        n = g.block_dim
        m = g.m
        for i in range(m):
            for j in range(i):
                Bij = E[i * n : (i + 1) * n, j * n : (j + 1) * n].toarray()
                Bji = E[j * n : (j + 1) * n, i * n : (i + 1) * n].toarray()
                assert np.abs(Bij - Bji).max() < 1e-12

    def test_mean_field_degree_zero(self, desk_psys):
        spec0 = sg.BasisSpec.uniform([(-1.0, 1.0)] * 3, sg.build_index_set(3, 0))
        g = sg.assemble(desk_psys, spec0)
        assert g.m == 1 and g.dimension == 4
        # uniform on symmetric intervals: the mean system is the p=0 system
        E, A, B, C = desk_psys.evaluate(np.zeros(3))
        assert np.abs(sp.csr_matrix(g.system.A).toarray() - A).max() < 1e-14
        assert np.abs(sp.csr_matrix(g.system.E).toarray() - E).max() < 1e-14

    def test_brute_force_quadrature_oracle(self):
        psys = scalar_affine()
        spec = scalar_spec(d=2)
        g = sg.assemble(psys, spec)
        quad = build_quadrature(spec, mode="tensor", level=8)
        phi = sg.eval_basis_matrix(spec, quad.nodes)
        m, n = spec.m, psys.n
        Ahat = np.zeros((m * n, m * n))
        for node, w, row in zip(quad.nodes, quad.weights, phi):
            _, A, _, _ = psys.evaluate(node)
            Ahat += w * np.kron(np.outer(row, row), A)
        assert np.abs(sp.csr_matrix(g.system.A).toarray() - Ahat).max() < 1e-12

    def test_generic_evaluator_path_matches_affine(self, desk_psys, desk_spec):
        # the quadrature oracle sees the system only through evaluate()
        quad = build_quadrature(desk_spec, mode="tensor", level=3)
        g_gen = sg.GalerkinSystem(
            sg.DescriptorSystem(*_assemble_quadrature(desk_psys, desk_spec, quad)), desk_spec, desk_psys.n
        )
        g_aff = sg.assemble(desk_psys, desk_spec)
        for name in ("E", "A", "B", "C"):
            Mg = sp.csr_matrix(getattr(g_gen.system, name)).toarray()
            Ma = sp.csr_matrix(getattr(g_aff.system, name)).toarray()
            assert np.abs(Mg - Ma).max() < 1e-12

    def test_generic_evaluator_path_input_output_terms(self):
        # parameter-dependent B and C, on a non-centred parameter range
        rng = np.random.default_rng(5)
        n, q = 3, 2
        affine = ParametricSystem(
            n=n,
            q=q,
            E0=np.eye(n),
            A0=rng.normal(size=(n, n)),
            B0=rng.normal(size=(n, 1)),
            C0=rng.normal(size=(1, n)),
            E_terms=[0.1 * np.eye(n), None],
            A_terms=[rng.normal(size=(n, n)), rng.normal(size=(n, n))],
            B_terms=[rng.normal(size=(n, 1)), None],
            C_terms=[None, rng.normal(size=(1, n))],
        )
        spec = sg.BasisSpec.uniform([(-1.0, 1.0), (0.5, 1.5)], sg.build_index_set(q, 2))
        quad = build_quadrature(spec, mode="tensor", level=3)
        g_gen = sg.GalerkinSystem(sg.DescriptorSystem(*_assemble_quadrature(affine, spec, quad)), spec, n)
        g_aff = sg.assemble(affine, spec)
        assert g_gen.system.B.shape == (spec.m * n, 1)
        assert g_gen.system.C.shape == (spec.m, spec.m * n)
        for name in ("E", "A", "B", "C"):
            Mg = getattr(g_gen.system, name)
            Ma = getattr(g_aff.system, name)
            assert sp.issparse(Mg) or name == "B"
            Mg = Mg.toarray() if sp.issparse(Mg) else Mg
            Ma = Ma.toarray() if sp.issparse(Ma) else Ma
            assert np.abs(Mg - Ma).max() < 1e-12

    def test_q_mismatch_rejected(self, desk_psys):
        spec = sg.BasisSpec.uniform([(-1, 1)] * 2, sg.build_index_set(2, 1))
        with pytest.raises(ValueError, match="q"):
            sg.assemble(desk_psys, spec)

    @pytest.mark.parametrize(
        "B0, C0, got",
        [(np.ones((1, 1)), np.ones((2, 1)), "n_in=1, n_out=6"), (np.ones((1, 2)), np.ones((1, 1)), "n_in=2, n_out=3")],
        ids=["two-outputs", "two-inputs"],
    )
    def test_one_input_one_output_per_basis_function(self, B0, C0, got):
        # output i is the coefficient of basis function i: a parametric system
        # with more inputs or outputs has no Galerkin system
        psys = ParametricSystem(n=1, q=1, E0=np.eye(1), A0=-np.eye(1), B0=B0, C0=C0)
        with pytest.raises(ValueError, match=rf"one output per basis function \(m=3\), got {got}$"):
            sg.assemble(psys, scalar_spec(2))

    def test_dimension_limit(self, desk_psys, desk_spec, monkeypatch):
        from sgmor import galerkin
        from sgmor.basis import SizingError

        monkeypatch.setattr(galerkin, "DEFAULT_DIMENSION_LIMIT", 10)
        with pytest.raises(SizingError):
            sg.assemble(desk_psys, desk_spec)

    def test_affine_reconstruction_matches_evaluator(self, desk_psys):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.uniform(-1, 1, 3)
            E, A, B, C = desk_psys.evaluate(p)
            manual_A = desk_psys.A0 + sum(
                p[l] * t for l, t in enumerate(desk_psys.A_terms) if t is not None
            )
            assert np.abs(A - manual_A).max() < 1e-12

    def test_stored_formats(self):
        # E and A parts are held as float CSR, B and C parts as dense float
        # arrays, whatever they are given as; evaluate returns dense arrays
        psys = ParametricSystem(
            n=2,
            q=1,
            A0=-np.eye(2, dtype=int),
            B0=sp.csr_matrix([[1.0], [0.0]]),
            C0=[1.0, 0.0],
            E_terms=[np.eye(2)],
            C_terms=[sp.csr_matrix([[0.0, 1.0]])],
        )
        for M in (psys.E0, psys.A0, psys.E_terms[0]):
            assert type(M) is sp.csr_matrix and M.dtype == float and M.shape == (2, 2)
        assert psys.E0.nnz == 0 and psys.A_terms == [None] and psys.B_terms == [None]
        for M, shape in ((psys.B0, (2, 1)), (psys.C0, (1, 2)), (psys.C_terms[0], (1, 2))):
            assert type(M) is np.ndarray and M.dtype == float and M.shape == shape
        E, A, B, C = psys.evaluate([0.5])
        assert all(type(M) is np.ndarray for M in (E, A, B, C))
        assert np.array_equal(E, 0.5 * np.eye(2)) and np.array_equal(A, -np.eye(2))
        assert np.array_equal(B, [[1.0], [0.0]]) and np.array_equal(C, [[1.0, 0.5]])
        B[0, 0] = 7.0  # a copy, not the stored B0
        assert psys.B0[0, 0] == 1.0


class TestLinearMomentMatrix:
    def test_scalar_tridiagonal(self):
        spec = scalar_spec(d=3)
        G = linear_moment_matrix(spec, 0).toarray()
        quad = build_quadrature(spec, mode="tensor", level=5)
        ref = expectation_tensors(spec, quad, weight=lambda p: p[:, 0], weight_degree=1)
        assert np.abs(G - ref).max() < 1e-13

    def test_shifted_interval_diagonal(self):
        spec = sg.BasisSpec.uniform([(0.9, 1.1)], sg.build_index_set(1, 2))
        G = linear_moment_matrix(spec, 0).toarray()
        assert np.allclose(np.diag(G), 1.0)  # midpoint of [0.9, 1.1]
        assert abs(G[0, 1] - 0.1 / np.sqrt(3.0)) < 1e-14


def assert_bitwise(got, expect):
    """Same CSR arrays byte for byte: data, indices, indptr and their dtypes."""
    assert type(got) is type(expect) and got.shape == expect.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_assembly_bitwise(psys, spec):
    """assemble and linear_moment_matrix against the per-index loops and the
    running Kronecker sum they replace, bitwise."""
    for dim in range(spec.q):
        assert_bitwise(linear_moment_matrix(spec, dim), moment_matrix_loop(spec, dim))
    S = sg.assemble(psys, spec).system
    E, A, B, C = assemble_kron(psys, spec)
    for got, expect in ((S.E, E), (S.A, A), (S.C, C)):
        assert_bitwise(got, expect)
    assert S.B.tobytes() == B.toarray().tobytes()


def with_stored_zero(M: np.ndarray, i: int, j: int) -> sp.csr_matrix:
    """M as CSR with an explicit zero entry at (i, j), where M is zero."""
    C = sp.coo_matrix(M)
    return sp.csr_matrix((np.append(C.data, 0.0), (np.append(C.row, i), np.append(C.col, j))), shape=C.shape)


def mixed_terms_system(zero_in_E0: bool, E_terms: bool) -> ParametricSystem:
    """Three parameters with every kind of term, some None.  E0 may hold a
    stored zero, which survives only where no E term is added; the E term
    holds one, whose products are dropped."""
    rng = np.random.default_rng(9)
    n = 3
    E0 = with_stored_zero(np.eye(n), 0, 1) if zero_in_E0 else sp.csr_matrix(np.eye(n))
    return ParametricSystem(
        n=n,
        q=3,
        E0=E0,
        A0=rng.normal(size=(n, n)),
        B0=rng.normal(size=(n, 1)),
        C0=rng.normal(size=(1, n)),
        E_terms=[with_stored_zero(0.1 * np.eye(n), 0, 2), None, None] if E_terms else None,
        A_terms=[rng.normal(size=(n, n)), None, np.diag(rng.normal(size=n))],
        B_terms=[rng.normal(size=(n, 1)), None, rng.normal(size=(n, 1))],
        C_terms=[None, rng.normal(size=(1, n)), rng.normal(size=(1, n))],
    )


class TestArrayAssembly:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ladder_bitwise(self, bench_psys, d):
        spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, sg.build_index_set(21, d))
        assert_assembly_bitwise(bench_psys, spec)

    @given(iset=scattered_index_sets(21, max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_ladder_scattered_sets_bitwise(self, bench_psys, iset):
        assert_assembly_bitwise(bench_psys, sg.BasisSpec.uniform(bench_psys.parameter_bounds, iset))

    @given(iset=scattered_index_sets(3), zero_in_E0=st.booleans(), E_terms=st.booleans(), centred=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mixed_terms_scattered_sets_bitwise(self, iset, zero_in_E0, E_terms, centred):
        # centred ranges have midpoint 0: the moment matrices store zeros on
        # their diagonals, and the products with them are dropped
        bounds = [(-1.0, 1.0)] * 3 if centred else [(0.5, 2.0), (-1.0, 3.0), (0.9, 1.1)]
        assert_assembly_bitwise(mixed_terms_system(zero_in_E0, E_terms), sg.BasisSpec.uniform(bounds, iset))

    def test_stored_zero_kept_without_terms(self):
        spec = sg.BasisSpec.uniform([(0.5, 2.0)] * 3, sg.build_index_set(3, 2))
        kept = sg.assemble(mixed_terms_system(True, False), spec).system.E
        dropped = sg.assemble(mixed_terms_system(True, True), spec).system.E
        assert np.count_nonzero(kept.data == 0.0) == spec.m
        assert np.all(dropped.data != 0.0)


class TestDownsize:
    def test_full_selection_transfer_identity(self, desk_galerkin):
        sel = Selection(kept=tuple(range(desk_galerkin.m)), m=desk_galerkin.m)
        small = sg.downsize(desk_galerkin, sel)
        for s in (0.0, 1.0j, 0.3 + 2.0j):
            ha = sg.transfer_eval(desk_galerkin.system, s)
            hb = sg.transfer_eval(small.system, s)
            assert np.abs(ha - hb).max() < 1e-12

    def test_keep_constant_block_only(self):
        g = sg.assemble(scalar_affine(), scalar_spec())
        small = sg.downsize(g, Selection(kept=(0,), m=2))
        assert small.dimension == 1
        assert np.abs(sp.csr_matrix(small.system.A).toarray() - [[-2.0]]).max() < 1e-14
        C = sp.csr_matrix(small.system.C).toarray()
        assert C.shape[0] == 2 and np.abs(C[1]).max() == 0.0

    def test_dropped_outputs_identically_zero(self, desk_galerkin):
        sel = Selection(kept=(0, 1, 2), m=desk_galerkin.m)
        small = sg.downsize(desk_galerkin, sel)
        H = sg.transfer_eval(small.system, 1.0j)
        assert np.abs(H[list(sel.dropped)]).max() == 0.0

    def test_output_count_preserved(self, desk_galerkin):
        small = sg.downsize(desk_galerkin, Selection(kept=(0, 4), m=desk_galerkin.m))
        assert small.m == desk_galerkin.m
        assert small.dimension == 2 * desk_galerkin.block_dim

    def test_idempotence(self, desk_galerkin):
        sel = Selection(kept=(0, 1, 5), m=desk_galerkin.m)
        once = sg.downsize(desk_galerkin, sel)
        twice = sg.downsize(once, sel)
        assert twice.dimension == once.dimension
        assert twice.selection == once.selection
        assert (sp.csr_matrix(twice.system.A) != sp.csr_matrix(once.system.A)).nnz == 0

    def test_nested_downsize(self, desk_galerkin):
        # a downsized system's blocks are its kept positions, in order
        outer = sg.downsize(desk_galerkin, Selection(kept=(0, 1, 5, 7), m=desk_galerkin.m))
        inner = Selection(kept=(0, 5), m=desk_galerkin.m)
        nested = sg.downsize(outer, inner)
        direct = sg.downsize(desk_galerkin, inner)
        assert nested.selection == direct.selection
        for name in ("E", "A", "C"):
            a = sp.csr_matrix(getattr(nested.system, name))
            assert (a != sp.csr_matrix(getattr(direct.system, name))).nnz == 0
        assert np.array_equal(nested.system.B, direct.system.B)
        with pytest.raises(ValueError, match="not contained"):
            sg.downsize(outer, Selection(kept=(0, 2), m=desk_galerkin.m))

    def test_output_labels_downsized(self, desk_galerkin):
        # downsizing keeps every output row, so row i is still labelled by
        # basis function i; the rows of dropped functions are zero
        small = sg.downsize(desk_galerkin, Selection(kept=(0, 4), m=desk_galerkin.m))
        assert small.system.n_out == small.m == desk_galerkin.m == 10
        n = small.block_dim
        C = small.system.C.toarray()
        full = desk_galerkin.system.C.toarray()
        assert np.array_equal(C[[0, 4]], full[[0, 4]][:, np.r_[0:n, 4 * n : 5 * n]])
        assert np.all(np.delete(C, [0, 4], axis=0) == 0.0)

    def test_selection_forces_constant_index(self):
        sel = Selection(kept=(5, 3, 5), m=8)
        assert sel.kept == (0, 3, 5)

    @pytest.mark.parametrize("kept", [(-1, 3), (3, 8)])
    def test_selection_out_of_range_rejected(self, kept):
        # checked before position 0 is added: (-1, 3) would otherwise be (0, -1, 3)
        with pytest.raises(ValueError, match="out of range"):
            Selection(kept=kept, m=8)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            Selection(kept=(), m=4)
