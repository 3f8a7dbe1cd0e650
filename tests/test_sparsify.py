"""Norm rankings, index selection, and the pruning error certificates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor.galerkin import Selection
from sgmor.hardy import FrequencyGrid, HardyNormReport
from sgmor.sparsify import DegenerateRankingError


def report_from(norms, hinf=None):
    norms = np.asarray(norms, dtype=float)
    hinf = norms if hinf is None else np.asarray(hinf, dtype=float)
    grid = FrequencyGrid(np.array([0.0, 1.0]))
    m = len(norms)
    return HardyNormReport(
        h2=norms,
        hinf=hinf,
        argmax_omega=np.zeros(m),
        tail_estimate=np.zeros(m),
        strictly_proper_ok=np.ones(m, dtype=bool),
        grid=grid,
        tail_fraction_warning=np.zeros(m, dtype=bool),
    )


class TestRankAndTheta:
    def test_single_output(self):
        r = sg.rank_and_theta(report_from([2.0]))
        assert r.theta[0] == 1.0

    def test_three_four(self):
        r = sg.rank_and_theta(report_from([3.0, 4.0]))
        assert list(r.order) == [1, 0]
        assert abs(r.theta[0] - 0.8) < 1e-14
        assert r.theta[1] == 1.0

    def test_ties_broken_by_lower_index(self):
        r = sg.rank_and_theta(report_from([1.0, 2.0, 2.0]))
        assert list(r.order) == [1, 2, 0]

    @pytest.mark.parametrize("first", [0, 1])
    def test_round_off_ties_broken_by_lower_index(self, first):
        # two norms 1e-16 apart, larger first or second: lower position ranks first
        a = 0.35584624470161
        pair = [a, a + 1e-16] if first == 0 else [a + 1e-16, a]
        assert pair[0] != pair[1]
        r = sg.rank_and_theta(report_from([0.1, *pair, 0.9]))
        assert list(r.order) == [3, 1, 2, 0]
        assert np.all(np.diff(r.theta) >= 0.0) and r.theta[-1] == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateRankingError):
            sg.rank_and_theta(report_from([0.0, 0.0]))

    def test_desk_theta_shape(self, desk_norms):
        _, _, rep = desk_norms
        for kind in ("h2", "hinf"):
            r = sg.rank_and_theta(rep, kind)
            assert np.all(np.diff(r.theta) >= 0)
            assert r.theta[-1] == 1.0

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_theta_monotone_property(self, norms):
        if sum(x * x for x in norms) == 0.0:
            return
        r = sg.rank_and_theta(report_from(norms))
        assert np.all(np.diff(r.theta) >= 0)
        assert r.theta[-1] == 1.0

    @pytest.mark.parametrize("seed", [3, 12, 21, 24, 30, 31])
    def test_theta_monotone_wide_norm_range(self, seed):
        # twelve decades of norms: the cumulative ratio before the last
        # entry rounds above 1 unless it is clipped
        norms = 10.0 ** np.random.default_rng(seed).uniform(-12, 0, 200)
        r = sg.rank_and_theta(report_from(norms))
        assert np.all(np.diff(r.theta) >= 0)
        assert r.theta[-1] == 1.0

    def test_minimal_r(self):
        r = sg.rank_and_theta(report_from([3.0, 4.0]))
        assert r.minimal_r(0.5) == 1
        assert r.minimal_r(1e-9) == 2
        assert r.minimal_r(0.0) == 2
        # theta never exceeds 1, so no r reaches 1 - delta > 1: an r of m + 1
        # would claim more outputs than there are
        with pytest.raises(ValueError, match=r"delta must be >= 0, got -0\.1"):
            r.minimal_r(-0.1)


class TestSelectIndices:
    def test_top_k_all(self):
        r = sg.rank_and_theta(report_from([1.0, 2.0, 3.0]))
        sel = sg.select_indices(r, "top_k", k=3)
        assert sel.kept == (0, 1, 2)
        cert = sg.theorem1_certificate(report_from([1.0, 2.0, 3.0]), sel)
        assert cert.bound_sup == 0.0 and cert.bound_l2 == 0.0

    def test_threshold_residual(self):
        r = sg.rank_and_theta(report_from([3.0, 4.0, 0.0]))
        sel = sg.select_indices(r, "threshold", delta=1.0)
        assert set(sel.kept) == {0, 1}

    def test_threshold_above_total(self):
        r = sg.rank_and_theta(report_from([0.3, 0.1]))
        sel = sg.select_indices(r, "threshold", delta=10.0)
        assert sel.kept == (0,)

    def test_invalid_parameters(self):
        r = sg.rank_and_theta(report_from([1.0, 2.0]))
        with pytest.raises(ValueError):
            sg.select_indices(r, "top_k", k=0)
        with pytest.raises(ValueError):
            sg.select_indices(r, "threshold", delta=-1.0)
        with pytest.raises(ValueError):
            sg.select_indices(r, "median")

    def test_constant_always_kept(self):
        r = sg.rank_and_theta(report_from([1e-12, 5.0, 4.0]))
        sel = sg.select_indices(r, "top_k", k=2)
        assert 0 in sel.kept

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=20),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold_is_minimal(self, norms, delta):
        r = sg.rank_and_theta(report_from(norms))
        sel = sg.select_indices(r, "threshold", delta=delta)
        arr = np.asarray(norms)
        total_sq = float(np.sum(arr**2))
        if delta**2 >= total_sq:
            assert sel.kept == (0,)
            return
        # brute-force oracle: smallest prefix of the ranking whose
        # complement satisfies the strict threshold, then force index 0
        sq_sorted = arr[r.order] ** 2
        residual = total_sq - np.cumsum(sq_sorted)
        # strict comparison is ill-posed within rounding of the boundary
        assume(np.abs(residual - delta**2).min() > 1e-9 * max(total_sq, delta**2))
        r_min = int(np.argmax(residual < delta**2)) + 1
        expect = tuple(sorted(set(int(i) for i in r.order[:r_min]) | {0}))
        assert sel.kept == expect
        assert float(np.sum(arr[list(sel.dropped)] ** 2)) < delta**2

    def test_threshold_tail_below_norm_spread(self):
        # the three 1e-9 outputs are lost in the total 1 + 3e-18, so a tail
        # taken as total - cumsum reads 0 after the first output
        norms = [1.0, 1e-9, 1e-9, 1e-9]
        rep = report_from(norms)
        sel = sg.select_indices(sg.rank_and_theta(rep), "threshold", delta=1.2e-9)
        assert sel.kept == (0, 1, 2)
        assert sg.theorem1_certificate(rep, sel).bound_sup < 1.2e-9

    @given(
        st.lists(st.floats(-12.0, 0.0), min_size=2, max_size=20),
        st.floats(-13.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_certified_over_wide_norm_spans(self, exponents, log_delta):
        # norms spanning up to 12 decades: every threshold selection is
        # certified below delta, and no shorter prefix of the ranking is
        norms = [10.0**e for e in exponents]
        delta = 10.0**log_delta
        rep = report_from(norms)
        r = sg.rank_and_theta(rep)
        sel = sg.select_indices(r, "threshold", delta=delta)
        # exact tails[k]: what keeping the k largest drops; a strict
        # comparison is ill-posed within the rounding of the boundary
        sq = [Fraction(norms[i]) ** 2 for i in r.order]
        tails = [sum(sq[k:], Fraction(0)) for k in range(len(sq))]
        d2 = Fraction(delta) ** 2
        assume(all(abs(t - d2) > Fraction(1, 10**9) * d2 for t in tails))
        assert sg.theorem1_certificate(rep, sel).bound_sup < delta
        r_min = next((k for k, t in enumerate(tails) if t < d2), len(sq))
        assert sel.kept == tuple(sorted({int(i) for i in r.order[:r_min]} | {0}))

    def test_threshold_total_rounding_to_delta(self):
        # 1 + 1e-16 rounds to delta^2 = 1: keeping output 0 alone would drop
        # output 1 and certify exactly delta, not below it
        rep = report_from([1e-8, 1.0])
        sel = sg.select_indices(sg.rank_and_theta(rep), "threshold", delta=1.0)
        assert sel.kept == (0, 1)
        assert sg.theorem1_certificate(rep, sel).bound_sup < 1.0


class TestCertificates:
    def test_theorem1_single_dropped(self):
        rep = report_from([1.0, 0.5])
        sel = Selection(kept=(0,), m=2)
        cert = sg.theorem1_certificate(rep, sel, input_l2=1.0)
        assert abs(cert.bound_sup - 0.5) < 1e-15

    def test_theorem1_two_dropped_scaled_input(self):
        rep = report_from([1.0, 0.3, 0.4], hinf=[1.0, 0.3, 0.4])
        sel = Selection(kept=(0,), m=3)
        cert = sg.theorem1_certificate(rep, sel, input_l2=2.0)
        assert abs(cert.bound_l2 - 1.0) < 1e-14

    def test_theorem2_identical(self):
        grid = FrequencyGrid(np.array([0.0, 1.0]))
        diff = sg.hardy_norms(np.zeros((3, 2)), grid)
        cert = sg.theorem2_certificate(diff)
        assert cert.bound_sup == 0.0 and cert.bound_l2 == 0.0

    def test_theorem2_floor(self, desk_galerkin, desk_norms):
        samples, grid, rep = desk_norms
        sel = Selection(kept=(0, 1, 3), m=desk_galerkin.m)
        small = sg.downsize(desk_galerkin, sel)
        diff = sg.hardy_norms(samples - sg.sample_transfer(small, grid), grid)
        cert = sg.theorem2_certificate(diff, full_report=rep, sel=sel)
        assert cert.bound_sup >= cert.lower_floor_sup - 1e-12
        assert cert.bound_l2 >= cert.lower_floor_l2 - 1e-12
        # the dropped outputs alone already contribute the floor
        dropped_sq = float(np.sum(rep.h2[list(sel.dropped)] ** 2))
        assert abs(cert.lower_floor_sup - np.sqrt(dropped_sq)) < 1e-12

    def test_conditional_flag(self):
        rep = report_from([1.0, 0.5])
        object.__setattr__(rep, "strictly_proper_ok", np.array([True, False]))
        cert = sg.theorem1_certificate(rep, Selection(kept=(0,), m=2))
        assert cert.conditional


class TestSparseOutputEval:
    def test_constant_selection(self, desk_spec):
        sel = Selection(kept=(0,), m=desk_spec.m)
        coeffs = np.zeros(desk_spec.m)
        coeffs[0] = 3.5
        p = np.array([0.2, -0.4, 0.9])
        assert sg.sparse_output_eval(coeffs, desk_spec, sel, p) == 3.5

    def test_full_selection_equals_dense_sum(self, desk_spec):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=desk_spec.m)
        sel = Selection(kept=tuple(range(desk_spec.m)), m=desk_spec.m)
        p = rng.uniform(-1, 1, (5, 3))
        phi = sg.eval_basis_matrix(desk_spec, p)
        expect = phi @ coeffs
        got = sg.sparse_output_eval(coeffs, desk_spec, sel, p)
        assert np.abs(got - expect).max() < 1e-12

    def test_parseval_truncation(self, desk_spec):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=desk_spec.m)
        sel = Selection(kept=(0, 2, 5), m=desk_spec.m)
        n = 100_000
        P = desk_spec.sample(n, rng)
        full = sg.sparse_output_eval(
            coeffs, desk_spec, Selection(kept=tuple(range(desk_spec.m)), m=desk_spec.m), P
        )
        pruned = sg.sparse_output_eval(coeffs, desk_spec, sel, P)
        mc = np.mean((full - pruned) ** 2)
        exact = float(np.sum(coeffs[list(sel.dropped)] ** 2))
        se = np.std((full - pruned) ** 2) / np.sqrt(n)
        assert abs(mc - exact) <= 3.0 * se
