"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line naming its criterion; the
heavier benchmark computations are shared through module-scoped fixtures.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import sgmor as sg
from sgmor.descriptor import DescriptorSystem
from sgmor.galerkin import Selection
from sgmor.mor import ReducedSystem
from tests.conftest import band_limited_input
from tests.oracles import build_quadrature, expectation_tensors, moment_oracle


@contextmanager
def criterion(num, desc):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc} ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def bench_d2(bench_psys):
    spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, sg.build_index_set(21, 2))
    gsys = sg.assemble(bench_psys, spec)
    grid = sg.FrequencyGrid.logspaced(-2, 10, 20)
    samples = sg.sample_transfer(gsys.system, grid)
    report = sg.hardy_norms(samples, grid)
    return gsys, grid, samples, report


def test_criterion_1_combinatorics(bench_psys):
    with criterion(1, "index set and Galerkin dimensions"):
        t0 = time.monotonic()
        iset = sg.build_index_set(21, 3)
        assert len(iset) == 2024
        spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, iset)
        gsys = sg.assemble(bench_psys, spec)
        assert gsys.dimension == 40480
        assert gsys.m == 2024
        assert gsys.system.A.shape == (40480, 40480)
        assert gsys.system.C.shape == (2024, 40480)
        assert time.monotonic() - t0 < 60.0


def test_criterion_2_orthonormality():
    with criterion(2, "Gram deviation below 1e-10 for q=1..6, d=1..4"):
        for q in range(1, 7):
            for d in range(1, 5):
                spec = sg.BasisSpec.uniform(
                    [(-1.0, 1.0)] * q, sg.build_index_set(q, d)
                )
                quad = build_quadrature(spec, mode="tensor", level=d + 1)
                G = expectation_tensors(spec, quad)
                assert np.abs(G - np.eye(spec.m)).max() < 1e-10, (q, d)


def test_criterion_3_analytic_hardy_norms():
    with criterion(3, "analytic H2 and Hinf of 1/(s+1) on the default grid"):
        sys = DescriptorSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        grid = sg.FrequencyGrid.default()
        rep = sg.hardy_norms(sg.sample_transfer(sys, grid), grid)
        assert abs(rep.h2[0] - 0.70711) < 1e-4
        assert abs(rep.hinf[0] - 1.0) < 1e-6


def test_criterion_4_moment_matching(desk_galerkin):
    with criterion(4, "Arnoldi moment matching on the 40-dimensional system"):
        assert desk_galerkin.dimension == 40 and desk_galerkin.m == 10
        s0 = 1.0
        red8 = sg.arnoldi_reduce(desk_galerkin, s0, 8)
        assert red8.r == 8
        mf = moment_oracle(desk_galerkin, s0, 8)
        mr = moment_oracle(red8.system, s0, 8)
        rel = np.abs(mf - mr) / np.maximum(np.abs(mf), 1e-300)
        assert rel.max() < 1e-6
        red40 = sg.arnoldi_reduce(desk_galerkin, s0, 40)
        grid = sg.FrequencyGrid.logspaced(-2.0, 2.9, 10, include_zero=False)
        assert len(grid) == 50
        Hf = sg.sample_transfer(desk_galerkin.system, grid)
        Hr = sg.sample_transfer(red40.system, grid)
        assert np.abs(Hf - Hr).max() < 1e-8


def test_criterion_5_theorem_1_2_monte_carlo(desk_galerkin, desk_spec, desk_norms):
    with criterion(5, "theorem 1/2 certificates validated by Monte Carlo"):
        t0 = time.monotonic()
        samples, grid, rep = desk_norms
        ranking = sg.rank_and_theta(rep, "h2")
        sel = sg.select_indices(ranking, "top_k", k=4)
        dropped = list(sel.dropped)

        red = sg.arnoldi_reduce(desk_galerkin, 1.0, 12)
        diff = sg.hardy_norms(samples - sg.sample_transfer(red.system, grid), grid)

        rng = np.random.default_rng(1234)
        n_mc = 100_000
        phi = sg.eval_basis_matrix(desk_spec, desk_spec.sample(n_mc, rng))
        G = (phi.T @ phi) / n_mc  # empirical Gram of the basis functions
        Gd = G[np.ix_(dropped, dropped)]

        horizon, step = 12.0, 0.005
        tol = 1.0 + 5e-3
        for trial in range(20):
            u = band_limited_input(900 + trial)
            traj = sg.simulate_transient(desk_galerkin.system, u, horizon, step)
            W = traj.outputs
            cert1 = sg.theorem1_certificate(rep, sel, input_l2=traj.input_l2)
            Wd = W[:, dropped]
            err2 = np.einsum("ti,ij,tj->t", Wd, Gd, Wd)
            assert np.sqrt(err2.max()) <= cert1.bound_sup * tol
            assert np.sqrt(np.trapezoid(err2, traj.times)) <= cert1.bound_l2 * tol

            rtraj = sg.simulate_transient(red.system, u, horizon, step)
            cert2 = sg.theorem2_certificate(diff, input_l2=traj.input_l2)
            D = W - rtraj.outputs
            err2m = np.einsum("ti,ij,tj->t", D, G, D)
            assert np.sqrt(err2m.max()) <= cert2.bound_sup * tol
            assert np.sqrt(np.trapezoid(err2m, traj.times)) <= cert2.bound_l2 * tol
        assert time.monotonic() - t0 < 300.0


def test_criterion_6_theorem_3_trials():
    with criterion(6, "theorem 3 deflation certificates on 100 random trials"):
        t0 = time.monotonic()
        spec = sg.BasisSpec.uniform([(-1.0, 1.0)] * 2, sg.build_index_set(2, 4))
        quad = build_quadrature(spec, mode="tensor", level=5)
        phi = sg.eval_basis_matrix(spec, quad.nodes)
        rng = np.random.default_rng(7)
        for trial in range(100):
            r = int(rng.integers(3, 9))
            scales = 10.0 ** (-rng.uniform(0.0, 6.0, r))
            Cbar = rng.normal(size=(spec.m, r)) * scales
            dummy = ReducedSystem(
                system=DescriptorSystem(np.eye(r), -np.eye(r), np.ones((r, 1)), Cbar),
                T=np.eye(r),
            )
            basis = sg.svd_basis(dummy)
            assert np.all((basis.kappa >= 0.0) & (basis.kappa <= 1.0 + 1e-12))
            assert abs(np.sum(basis.kappa**2) - basis.rank) < 1e-10
            vbar = rng.normal(size=(30, r))
            thr = basis.singular_values[0] * 10.0 ** (-rng.uniform(0.5, 5.0))
            r_prime, cert = sg.deflate(basis, thr, vbar)
            # brute-force evaluation of both representations on the exact
            # quadrature of the parameter measure
            vstar = sg.transform_coefficients(basis, vbar)
            psi = phi @ basis.U
            full = vstar @ psi.T
            defl = vstar[:, :r_prime] @ psi[:, :r_prime].T
            err2 = ((full - defl) ** 2) @ quad.weights
            assert np.all(np.sqrt(err2) <= cert.pointwise + 1e-14), trial
            assert np.sqrt(err2.sum()) <= cert.aggregate + 1e-14
        assert time.monotonic() - t0 < 60.0


def test_criterion_7_norm_decay_theta_and_floor(bench_d2):
    with criterion(7, "per-degree norm decay, theta curve, downsize floor"):
        t0 = time.monotonic()
        gsys, grid, samples, report = bench_d2
        assert gsys.m == 253 and gsys.dimension == 5060
        degrees = gsys.spec.index_set.total_degrees()
        med_low = np.median(report.h2[degrees <= 1])
        med_high = np.median(report.h2[degrees == 2])
        assert med_low > med_high

        ranking = sg.rank_and_theta(report, "h2")
        assert np.all(np.diff(ranking.theta) >= -1e-15)
        assert ranking.theta[-1] == 1.0

        for r in (10, 60, 120, 253):
            sel = sg.select_indices(ranking, "top_k", k=r)
            small = sg.downsize(gsys, sel)
            diff = sg.hardy_norms(samples - sg.sample_transfer(small.system, grid), grid)
            cert = sg.theorem2_certificate(diff, full_report=report, sel=sel)
            assert cert.bound_sup >= cert.lower_floor_sup * (1 - 1e-10)
            assert cert.bound_l2 >= cert.lower_floor_l2 * (1 - 1e-10)
        assert time.monotonic() - t0 < 1800.0


def test_criterion_8_bound_decay_and_deflation(bench_d2):
    with criterion(8, "Arnoldi bound decay and deflation below full order"):
        t0 = time.monotonic()
        gsys, grid, samples, _ = bench_d2
        s0 = 5.0e5
        red = sg.arnoldi_reduce(gsys, s0, 120)
        assert red.r == 120
        bounds = {}
        stable = {}
        for r in range(20, 121, 20):
            sub = red.truncate(r).system
            diff = sg.hardy_norms(samples - sg.sample_transfer(sub, grid), grid)
            bounds[r] = sg.theorem2_certificate(diff).bound_sup
            stable[r] = sg.pencil_spectrum(sub).stable
        r_small = min(r for r in stable if stable[r])
        assert bounds[r_small] / bounds[r_small + 40] >= 1e3

        rng = np.random.default_rng(88)
        for r in (40, 60, 100):
            basis = sg.svd_basis(red.truncate(r))
            r_prime, _ = sg.deflate(basis, 1e-4, rng.normal(size=(20, r)))
            assert r_prime < r
        assert time.monotonic() - t0 < 1800.0


def test_criterion_9_parser():
    with criterion(9, "netlist round-trip and line-numbered diagnostics"):
        from sgmor.circuits import NetlistError, lowpass_benchmark_text

        for text in (
            "G1 1 2 1.0 0.1\nC1 2 0 1e-6 0.1\nVIN 1 0\nOUT 2\n",
            lowpass_benchmark_text(),
        ):
            net = sg.parse_netlist(text)
            assert sg.parse_netlist(sg.serialize_netlist(net)) == net

        cases = [
            ("X1 1 0 1.0 0.1\nVIN 1 0\nOUT 1", 1),
            ("G1 1 0 1.0 0.1\nC1 2 0 oops 0.1\nVIN 1 0\nOUT 1", 2),
            ("G1 1 0 -1.0 0.1\nVIN 1 0\nOUT 1", 1),
            ("G1 1 0 1.0 0.1\nVIN 1 0\nVIN 1 0\nOUT 1", 3),
            ("G1 1 0 1.0 0.1\nVIN 1 0\nOUT 9", 3),
        ]
        for text, lineno in cases:
            with pytest.raises(NetlistError) as exc:
                sg.parse_netlist(text)
            assert exc.value.line == lineno
            assert f"line {lineno}:" in str(exc.value)
