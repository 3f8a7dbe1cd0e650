"""Shared fixtures: a small dense test system with three parameters and
the circuit benchmark at low polynomial degree; a hypothesis strategy for
index sets that are not total-degree sets."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

import sgmor as sg
from sgmor import solver
from sgmor.galerkin import ParametricSystem


def make_desk_parametric() -> ParametricSystem:
    """Dense 4-state system, affine in three parameters on [-1, 1]^3.

    Stable over the whole parameter box (diagonally dominant drift with
    small couplings); E depends on the third parameter only.
    """
    n = 4
    A0 = np.array([
        [-2.0, 1.0, 0.0, 0.0],
        [-1.0, -3.0, 0.5, 0.0],
        [0.0, -0.5, -1.5, 1.0],
        [0.2, 0.0, -1.0, -2.5],
    ])
    A1 = np.diag([-1.0, -0.5, -0.8, -0.3])
    A2 = np.array([
        [0.0, 0.3, 0.0, 0.0],
        [0.3, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.4],
        [0.0, 0.0, 0.4, 0.0],
    ])
    A3 = np.array([
        [0.0, 0.0, 0.2, 0.0],
        [0.0, 0.0, 0.0, 0.2],
        [0.2, 0.0, 0.0, 0.0],
        [0.0, 0.2, 0.0, 0.0],
    ])
    B0 = np.array([[1.0], [0.5], [0.0], [0.0]])
    C0 = np.array([[0.0, 0.0, 1.0, 0.5]])
    return ParametricSystem(
        n=n,
        q=3,
        E0=np.eye(n),
        A0=A0,
        B0=B0,
        C0=C0,
        E_terms=[None, None, 0.05 * np.eye(n)],
        A_terms=[A1, A2, A3],
    )


def scalar_galerkin(A):
    """GalerkinSystem of block size 1 over a one-parameter basis of degree
    len(A) - 1 (block i has degree i) with E = I."""
    spec = sg.BasisSpec.uniform([(-1.0, 1.0)], sg.build_index_set(1, len(A) - 1))
    eye = sp.identity(len(A), format="csr")
    B = np.zeros((len(A), 1))
    B[0] = 1.0
    system = sg.DescriptorSystem(eye, sp.csr_matrix(A), B, eye)
    return sg.GalerkinSystem(system=system, spec=spec, block_dim=1)


DESK_BOUNDS = [(-1.0, 1.0)] * 3


@st.composite
def scattered_index_sets(draw, q: int, max_entry: int = 4, max_size: int = 40) -> sg.MultiIndexSet:
    """Index sets grown from zero by raising a drawn member in a drawn
    dimension (entries up to max_entry), then shuffled behind the zero
    index with a drawn subset removed: not total-degree sets, and with
    neighbours missing."""
    zero = (0,) * q
    grown = [zero]
    for pick, dim in draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, q - 1)), max_size=max_size)):
        base = grown[pick % len(grown)]
        raised = base[:dim] + (base[dim] + 1,) + base[dim + 1 :]
        if base[dim] < max_entry and raised not in grown:
            grown.append(raised)
    rest = draw(st.permutations(grown[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    return sg.MultiIndexSet(q=q, indices=(zero, *(idx for idx, k in zip(rest, keep) if k)))


def band_limited_input(seed: int, tau: float = 3.0):
    """Random decaying sum of sines with u(0) = 0 (not L2-normalized)."""
    r = np.random.default_rng(seed)
    freqs = r.uniform(0.3, 3.0, 5)
    amps = r.normal(size=5)

    def u(t):
        acc = np.zeros_like(t)
        for a, w in zip(amps, freqs):
            acc += a * np.sin(w * t)
        return acc * np.exp(-t / tau)

    return u


def perturbed_gmres(real_gmres, *args):
    """real_gmres's x times 1 + 1e-8, with its iterations and the true
    residual norm of that x: a near miss, which the residual check must reject."""
    x, iterations, _ = real_gmres(*args)
    coupling, mean_block, _, b = args[:4]
    x = x * (1.0 + 1e-8)
    return x, iterations, float(np.linalg.norm(solver._residual(coupling, mean_block, b, x)))


@pytest.fixture
def lying_gmres(monkeypatch):
    """GMRES that returns x * (1 + 1e-8) at every solve (perturbed_gmres)."""
    real_gmres = solver._gmres_schur
    monkeypatch.setattr(solver, "_gmres_schur", lambda *args: perturbed_gmres(real_gmres, *args))


@pytest.fixture(scope="session")
def desk_psys():
    return make_desk_parametric()


@pytest.fixture(scope="session")
def desk_spec():
    return sg.BasisSpec.uniform(DESK_BOUNDS, sg.build_index_set(3, 2))


@pytest.fixture(scope="session")
def desk_galerkin(desk_psys, desk_spec):
    return sg.assemble(desk_psys, desk_spec)


@pytest.fixture(scope="session")
def desk_norms(desk_galerkin):
    grid = sg.FrequencyGrid.default()
    samples = sg.sample_transfer(desk_galerkin.system, grid)
    return samples, grid, sg.hardy_norms(samples, grid)


@pytest.fixture(scope="session")
def bench_psys():
    return sg.mna_assemble(sg.lowpass_benchmark())


@pytest.fixture(scope="session")
def bench_galerkin_d1(bench_psys):
    spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, sg.build_index_set(21, 1))
    return sg.assemble(bench_psys, spec)


@pytest.fixture(scope="session")
def bench_galerkin_d2(bench_psys):
    spec = sg.BasisSpec.uniform(bench_psys.parameter_bounds, sg.build_index_set(21, 2))
    return sg.assemble(bench_psys, spec)
