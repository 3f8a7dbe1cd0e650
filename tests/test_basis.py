"""Index sets, orthonormal polynomial evaluation, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor.basis import DomainError, SizingError, eval_expansion


def uniform_spec(bounds, q, d):
    return sg.BasisSpec.uniform(bounds, sg.build_index_set(q, d))


class TestIndexSet:
    def test_low_order_enumeration(self):
        iset = sg.build_index_set(2, 1)
        assert iset.indices == ((0, 0), (1, 0), (0, 1))

    def test_benchmark_cardinality(self):
        assert len(sg.build_index_set(21, 3)) == 2024

    def test_desk_cardinality(self):
        # brute-force enumeration over all degree tuples
        brute = [
            (i, j, k)
            for i in range(3)
            for j in range(3)
            for k in range(3)
            if i + j + k <= 2
        ]
        iset = sg.build_index_set(3, 2)
        assert len(iset) == 10
        assert set(iset.indices) == set(brute)

    @given(q=st.integers(1, 25), d=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_cardinality_law(self, q, d):
        iset = sg.build_index_set(q, d, limit=5_000_000)
        assert len(iset) == math.comb(q + d, d)

    def test_zero_index_first_no_duplicates(self):
        iset = sg.build_index_set(4, 3)
        assert iset.indices[0] == (0, 0, 0, 0)
        assert len(set(iset.indices)) == len(iset)

    def test_graded_order(self):
        degrees = sg.build_index_set(5, 4).total_degrees()
        assert np.all(np.diff(degrees) >= 0)

    def test_sizing_error_names_m(self):
        with pytest.raises(SizingError, match=str(math.comb(40, 20))):
            sg.build_index_set(20, 20, limit=1000)


class TestUnivariateRule:
    def test_order_two_reference(self):
        dist = sg.Distribution1D(-1.0, 1.0)
        nodes, weights = sg.univariate_rule(dist, 2)
        assert np.allclose(sorted(nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(weights, [0.5, 0.5])
        # second moment of the uniform density on [-1, 1]
        assert abs(np.sum(weights * np.array(nodes) ** 2) - 1.0 / 3.0) < 1e-15

    def test_order_one_midpoint(self):
        dist = sg.Distribution1D(0.4, 0.8)
        nodes, weights = sg.univariate_rule(dist, 1)
        assert np.allclose(nodes, [0.6])
        assert np.allclose(weights, [1.0])

    def test_shifted_monomial_moment(self):
        dist = sg.Distribution1D(0.9, 1.1)
        nodes, weights = sg.univariate_rule(dist, 3)
        # int p^4 / 0.2 dp over [0.9, 1.1] in closed form
        exact = (1.1**5 - 0.9**5) / (5 * 0.2)
        assert abs(np.sum(weights * nodes**4) - exact) < 1e-14

    def test_weights_sum_to_one(self):
        dist = sg.Distribution1D(-2.0, 5.0)
        for order in (1, 4, 9):
            _, w = sg.univariate_rule(dist, order)
            assert abs(w.sum() - 1.0) < 1e-14


class TestQuadrature:
    def test_1d_reduces_to_univariate(self):
        spec = uniform_spec([(-1, 1)], 1, 2)
        quad = sg.build_quadrature(spec, mode="tensor", level=3)
        assert len(quad) == 3
        assert abs(quad.weights.sum() - 1.0) < 1e-14

    def test_2d_product_grid(self):
        spec = uniform_spec([(-1, 1), (0, 2)], 2, 1)
        quad = sg.build_quadrature(spec, mode="tensor", level=2)
        assert len(quad) == 4

    def test_smolyak_below_tensor_count(self):
        spec = uniform_spec([(-1, 1)] * 4, 4, 2)
        quad = sg.build_quadrature(spec, mode="smolyak", level=3)
        assert quad.construction == "smolyak"
        assert len(quad) < 81

    def test_weights_sum_and_domain(self):
        spec = uniform_spec([(0.5, 1.5)] * 5, 5, 2)
        quad = sg.build_quadrature(spec, mode="smolyak", level=3)
        assert abs(quad.weights.sum() - 1.0) < 1e-12
        assert np.all(quad.nodes >= 0.5) and np.all(quad.nodes <= 1.5)

    def test_smolyak_tensor_agree_on_polynomials(self):
        spec = uniform_spec([(-1, 1)] * 5, 5, 2)
        tens = sg.build_quadrature(spec, mode="tensor", level=3)
        smol = sg.build_quadrature(spec, mode="smolyak", level=3)

        rng = np.random.default_rng(0)
        exps = [(0, 0, 0, 0, 0), (2, 0, 1, 0, 0), (1, 1, 1, 0, 1), (0, 4, 0, 1, 0)]
        for e in exps:
            def poly(nodes, e=e):
                return np.prod(nodes ** np.array(e), axis=1)
            it = np.sum(tens.weights * poly(tens.nodes))
            is_ = np.sum(smol.weights * poly(smol.nodes))
            assert abs(it - is_) < 1e-12

    def test_auto_mode_switch(self):
        small = uniform_spec([(-1, 1)] * 3, 3, 2)
        big = uniform_spec([(-1, 1)] * 6, 6, 1)
        assert sg.build_quadrature(small).construction == "tensor"
        assert sg.build_quadrature(big).construction == "smolyak"

    def test_node_limit(self):
        spec = uniform_spec([(-1, 1)] * 4, 4, 2)
        with pytest.raises(SizingError):
            sg.build_quadrature(spec, mode="tensor", level=10, limit=100)


class TestEvalBasis:
    def test_constant_component(self):
        spec = uniform_spec([(0, 1), (2, 3)], 2, 3)
        vals = sg.eval_basis(spec, np.array([0.3, 2.7]))
        assert vals[0] == 1.0

    def test_linear_legendre_value(self):
        spec = uniform_spec([(-1, 1)], 1, 1)
        vals = sg.eval_basis(spec, np.array([1.0]))
        assert abs(vals[1] - np.sqrt(3.0)) < 1e-14

    def test_product_structure(self):
        spec = uniform_spec([(-1, 1), (-1, 1)], 2, 2)
        pos = spec.index_set.position((1, 1))
        vals = sg.eval_basis(spec, np.array([1.0, 1.0]))
        assert abs(vals[pos] - 3.0) < 1e-13

    def test_domain_error_and_warn_mode(self):
        spec = uniform_spec([(0, 1)], 1, 2)
        with pytest.raises(DomainError):
            sg.eval_basis(spec, np.array([1.5]))
        with pytest.warns(UserWarning):
            out = sg.eval_basis(spec, np.array([1.5]), on_outside="warn")
        assert np.all(np.isfinite(out))


class TestEvalExpansion:
    @pytest.fixture
    def spec(self):
        return uniform_spec([(0.0, 2.0), (-1.0, 1.0)], 2, 2)

    def test_shapes_and_values(self, spec):
        rng = np.random.default_rng(4)
        c = rng.normal(size=(3, spec.m))
        P = rng.uniform(-1.0, 1.0, (5, 2)) + [1.0, 0.0]
        expect = c @ sg.eval_basis_matrix(spec, P).T  # (T, N)
        assert np.abs(eval_expansion(spec, c, P) - expect).max() < 1e-13
        assert eval_expansion(spec, c[0], P).shape == (5,)
        assert eval_expansion(spec, c, P[0]).shape == (3,)
        got = eval_expansion(spec, c[0], P[0])
        assert isinstance(got, float)
        assert abs(got - expect[0, 0]) < 1e-13

    def test_wrong_length_rejected(self, spec):
        with pytest.raises(ValueError, match="length m"):
            eval_expansion(spec, np.ones(spec.m + 1), np.array([1.0, 0.0]))


class TestExpectationTensors:
    def test_gram_is_identity(self):
        spec = uniform_spec([(0.9, 1.1)] * 2, 2, 3)
        quad = sg.build_quadrature(spec, mode="tensor", level=4)
        G = sg.expectation_tensors(spec, quad)
        assert np.abs(G - np.eye(spec.m)).max() < 1e-12

    def test_linear_weight_entries(self):
        spec = uniform_spec([(-1, 1)], 1, 2)
        quad = sg.build_quadrature(spec, mode="tensor", level=3)
        M = sg.expectation_tensors(spec, quad, weight=lambda p: p[:, 0], weight_degree=1)
        assert abs(M[0, 1] - 1.0 / np.sqrt(3.0)) < 1e-14
        assert abs(M[1, 1]) < 1e-14

    def test_matches_analytic_moment_matrix(self):
        from sgmor.galerkin import linear_moment_matrix

        spec = uniform_spec([(0.5, 2.0), (-1, 3)], 2, 3)
        quad = sg.build_quadrature(spec, mode="tensor", level=5)
        for dim in (0, 1):
            M = sg.expectation_tensors(
                spec, quad, weight=lambda p, dim=dim: p[:, dim], weight_degree=1
            )
            G = linear_moment_matrix(spec, dim).toarray()
            assert np.abs(M - G).max() < 1e-12

    def test_exactness_warning(self):
        spec = uniform_spec([(-1, 1)], 1, 3)
        quad = sg.build_quadrature(spec, mode="tensor", level=2)
        with pytest.warns(UserWarning, match="exactness"):
            sg.expectation_tensors(spec, quad, weight=lambda p: p[:, 0] ** 4, weight_degree=4)

    def test_monte_carlo_consistency(self):
        spec = uniform_spec([(-1, 1), (0, 2)], 2, 2)
        quad = sg.build_quadrature(spec, mode="tensor", level=3)
        G = sg.expectation_tensors(spec, quad)
        rng = np.random.default_rng(42)
        n = 1_000_000
        phi = sg.eval_basis_matrix(spec, spec.sample(n, rng))
        Gmc = (phi.T @ phi) / n
        # E[(phi_i phi_j)^2] bounds the Monte Carlo variance per entry
        second = (phi**2).T @ (phi**2) / n
        se = np.sqrt(second / n)
        assert np.all(np.abs(Gmc - G) <= 3.0 * se + 1e-12)


@given(st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=12, deadline=None)
def test_gram_property_random_shapes(q, d):
    spec = uniform_spec([(-1, 1)] * q, q, d)
    quad = sg.build_quadrature(spec, mode="tensor", level=d + 1)
    G = sg.expectation_tensors(spec, quad)
    assert np.abs(G - np.eye(spec.m)).max() < 1e-10
