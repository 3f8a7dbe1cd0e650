"""Netlist parsing and modified nodal analysis."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sgmor as sg
from sgmor.circuits import ModellingError, NetlistError, lowpass_benchmark_text
from sgmor.galerkin import ParametricSystem
from sgmor.solver import PoleProximityError

from oracles import nodal_transfer

RC_NETLIST = """\
G1 1 2 1.0 0.1
C1 2 0 1e-6 0.1
VIN 1 0
OUT 2
"""


class TestParseNetlist:
    def test_rc_lowpass(self):
        net = sg.parse_netlist(RC_NETLIST)
        assert net.counts() == {"C": 1, "L": 0, "G": 1}
        assert net.q == 2
        assert net.input_nodes == ("1", "0")
        assert net.output_node == "2"

    def test_benchmark_counts(self):
        net = sg.lowpass_benchmark()
        assert net.counts() == {"C": 7, "L": 6, "G": 8}
        assert net.q == 21
        assert len(net.nodes()) == 15  # 14 internal nodes plus the driven node

    def test_comments_and_blank_lines(self):
        net = sg.parse_netlist("# header\n\nG1 1 2 1.0 0.1  # inline\nC1 2 0 1e-6 0\nVIN 1 0\nOUT 2\n")
        assert net.q == 1  # zero-tolerance element is deterministic

    def test_round_trip_identity(self):
        for text in (RC_NETLIST, lowpass_benchmark_text()):
            net = sg.parse_netlist(text)
            again = sg.parse_netlist(sg.serialize_netlist(net))
            assert again == net

    @pytest.mark.parametrize(
        "text,lineno,match",
        [
            ("X1 1 0 1.0 0.1\nVIN 1 0\nOUT 1", 1, "unknown element kind"),
            ("G1 1 0 1.0\nVIN 1 0\nOUT 1", 1, "element line"),
            ("G1 1 0 -1.0 0.1\nVIN 1 0\nOUT 1", 1, "non-positive"),
            ("G1 1 0 1.0 0.1\nC1 2 0 abc 0.1\nVIN 1 0\nOUT 1", 2, "malformed"),
            ("G1 1 0 1.0 0.1\nVIN 1 0\nVIN 1 0\nOUT 1", 3, "duplicate VIN"),
            ("G1 1 0 1.0 0.1\nG1 1 0 2.0 0.1\nVIN 1 0\nOUT 1", 2, "duplicate element"),
            ("G1 1 0 1.0 0.1\nVIN 1 2\nOUT 1", 2, "ground"),
            ("G1 1 1 1.0 0.1\nVIN 1 0\nOUT 1", 1, "shorts"),
            ("G1 1 0 1.0 -0.5\nVIN 1 0\nOUT 1", 1, "negative tolerance"),
        ],
    )
    def test_error_cases_carry_line_numbers(self, text, lineno, match):
        with pytest.raises(NetlistError, match=match) as exc:
            sg.parse_netlist(text)
        assert exc.value.line == lineno
        assert f"line {lineno}:" in str(exc.value)

    def test_tolerance_below_one(self):
        # at tolerance >= 1 an element's value reaches 0 or below on its box
        lines = lowpass_benchmark_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("C"))
        nominal = float(lines[first].split()[3])

        def capacitors_at(tolerance: str) -> str:
            return "\n".join(
                " ".join(line.split()[:4] + [tolerance]) if line.startswith("C") else line for line in lines
            )

        for tolerance in (1.5, 1.0):
            with pytest.raises(NetlistError, match="non-positive lower value") as exc:
                sg.parse_netlist(capacitors_at(str(tolerance)))
            assert exc.value.line == first + 1
            assert f"tolerance {tolerance} >= 1 gives the non-positive lower value {nominal * (1 - tolerance):.6g}" in str(
                exc.value
            )
        net = sg.parse_netlist(capacitors_at("0.999"))
        assert {el.tolerance for el in net.elements if el.kind == "C"} == {0.999}
        assert min(lower for lower, _ in sg.mna_assemble(net).parameter_bounds) > 0.0

    def test_missing_statements(self):
        with pytest.raises(NetlistError, match="missing VIN"):
            sg.parse_netlist("G1 1 0 1.0 0.1\nOUT 1")
        with pytest.raises(NetlistError, match="missing OUT"):
            sg.parse_netlist("G1 1 0 1.0 0.1\nVIN 1 0")

    def test_dangling_output(self):
        with pytest.raises(NetlistError, match="dangling"):
            sg.parse_netlist("G1 1 0 1.0 0.1\nVIN 1 0\nOUT 9")

    def test_disconnected_island(self):
        text = "G1 1 0 1.0 0.1\nG2 5 6 1.0 0.1\nVIN 1 0\nOUT 1"
        with pytest.raises(NetlistError, match="not connected"):
            sg.parse_netlist(text)


class TestMnaAssemble:
    def test_rc_transfer(self):
        psys = sg.mna_assemble(sg.parse_netlist(RC_NETLIST))
        assert psys.n == 1
        G, C = 1.0, 1e-6
        nominal = psys.system_at(np.array([G, C]))
        assert abs(sg.transfer_eval(nominal, 0.0)[0, 0] - 1.0) < 1e-12
        # corner frequency: |H| = 1/sqrt(2) at omega = G/C
        h = sg.transfer_eval(nominal, 1j * G / C)[0, 0]
        assert abs(abs(h) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_benchmark_dimension(self, bench_psys):
        assert bench_psys.n == 20  # 14 node voltages + 6 inductor currents
        assert bench_psys.q == 21
        assert len(bench_psys.parameter_bounds) == 21

    def test_parameter_bounds_ten_percent(self, bench_psys):
        for (lo, hi), nom in zip(bench_psys.parameter_bounds, bench_psys.nominal_parameters):
            assert abs(lo - 0.9 * nom) < 1e-15 * nom
            assert abs(hi - 1.1 * nom) < 1e-15 * nom

    def test_parameter_metadata_fields(self, bench_psys):
        names = {f.name for f in dataclasses.fields(ParametricSystem)}
        assert {"parameter_bounds", "nominal_parameters"} <= names
        assert not hasattr(bench_psys, "parameter_distributions")
        assert bench_psys.nominal_parameters.shape == (21,)
        bare = ParametricSystem(n=1, q=1, A0=-np.eye(1))
        assert bare.parameter_bounds is None and bare.nominal_parameters is None

    def test_affine_faithfulness(self, bench_psys):
        rng = np.random.default_rng(21)
        lo = np.array([b[0] for b in bench_psys.parameter_bounds])
        hi = np.array([b[1] for b in bench_psys.parameter_bounds])
        for _ in range(3):
            p = rng.uniform(lo, hi)
            E, A, B, C = bench_psys.evaluate(p)
            # brute-force reconstruction from the stamps
            E2 = bench_psys.E0.toarray().copy()
            A2 = bench_psys.A0.toarray().copy()
            B2 = bench_psys.B0.copy()
            for l in range(bench_psys.q):
                if bench_psys.E_terms[l] is not None:
                    E2 += p[l] * bench_psys.E_terms[l].toarray()
                if bench_psys.A_terms[l] is not None:
                    A2 += p[l] * bench_psys.A_terms[l].toarray()
                if bench_psys.B_terms[l] is not None:
                    B2 += p[l] * bench_psys.B_terms[l]
            assert np.abs(E - E2).max() < 1e-12
            assert np.abs(A - A2).max() < 1e-12
            assert np.abs(B - B2).max() < 1e-12

    def test_nominal_benchmark_index_one_stable_lowpass(self, bench_psys):
        nominal = bench_psys.system_at(bench_psys.nominal_parameters)
        rep = sg.pencil_spectrum(nominal.dense())
        assert rep.stable
        grid = sg.FrequencyGrid.default()
        assert sg.hardy_norms(sg.sample_transfer(nominal, grid), grid).strictly_proper_ok.all()
        assert rep.infinite_count == 7  # eight algebraic rows minus one coupling
        h0 = abs(sg.transfer_eval(nominal, 0.0)[0, 0])
        assert 0.0 < h0 <= 1.0 + 1e-12
        # monotone-decaying magnitude well above the cutoff
        w_hi = abs(sg.transfer_eval(nominal, 1j * 1e8)[0, 0])
        assert w_hi < 1e-3 * h0

    def test_capacitor_on_source_rejected(self):
        text = "C1 1 0 1e-6 0.1\nG1 1 2 1.0 0.1\nVIN 1 0\nOUT 2"
        with pytest.raises(ModellingError, match="conductances"):
            sg.mna_assemble(sg.parse_netlist(text))

    def test_inductor_loop_rejected(self):
        text = (
            "G1 1 2 1.0 0.1\nL1 2 3 1e-3 0.1\nL2 3 0 1e-3 0.1\nL3 2 0 1e-3 0.1\n"
            "VIN 1 0\nOUT 2"
        )
        with pytest.raises(ModellingError, match="inductor-only loop"):
            sg.mna_assemble(sg.parse_netlist(text))

    def test_output_must_be_internal(self):
        text = "G1 1 2 1.0 0.1\nC1 2 0 1e-6 0.1\nVIN 1 0\nOUT 1"
        with pytest.raises(ModellingError, match="internal"):
            sg.mna_assemble(sg.parse_netlist(text))

    def test_stability_over_parameter_box(self, bench_psys):
        rng = np.random.default_rng(22)
        lo = np.array([b[0] for b in bench_psys.parameter_bounds])
        hi = np.array([b[1] for b in bench_psys.parameter_bounds])
        for _ in range(5):
            p = rng.uniform(lo, hi)
            rep = sg.pencil_spectrum(bench_psys.system_at(p).dense())
            assert rep.stable


@st.composite
def random_netlists(draw):
    """Netlist text of a small random RCL circuit driven at `in`: node k > 1
    hangs off ground or an earlier node, then a few more elements join any
    two nodes, and only conductances touch `in`.  Inductor loops, which MNA
    rejects, are not excluded here."""
    k = draw(st.integers(1, 4))
    internal = [str(i) for i in range(1, k + 1)]
    kinds = st.sampled_from("CLG")
    pairs = [("G", "in", "1")]
    pairs += [(draw(kinds), nd, draw(st.sampled_from(["0"] + internal[:i]))) for i, nd in enumerate(internal[1:], 1)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(kinds)
        ends = ["0", "in"] + internal if kind == "G" else ["0"] + internal
        a, b = draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True))
        pairs.append((kind, a, b))
    lines = [
        f"{kind}{j} {a} {b} {draw(st.floats(0.5, 2.0)):.17g} {draw(st.sampled_from([0.0, 0.1]))}"
        for j, (kind, a, b) in enumerate(pairs)
    ]
    return "\n".join(lines + ["VIN in 0", f"OUT {draw(st.sampled_from(internal))}"]) + "\n"


@given(random_netlists(), st.floats(0.1, 10.0), st.data())
@settings(max_examples=150, deadline=None)
def test_mna_matches_nodal_analysis(text, omega, data):
    # the MNA system at a parameter point has the transfer function that
    # plain nodal analysis gives with the same element values
    netlist = sg.parse_netlist(text)
    try:
        psys = sg.mna_assemble(netlist)
    except ModellingError:
        assume(False)
    p = np.array([data.draw(st.floats(lo, hi)) for lo, hi in psys.parameter_bounds])
    drawn = iter(p)
    values = [next(drawn) if el.tolerance > 0 else el.nominal for el in netlist.elements]
    try:
        h = sg.transfer_eval(psys.system_at(p), 1j * omega)[0, 0]
    except PoleProximityError:
        # an LC tank cut off from the source, hit at its resonance
        # (L = 0.5, C = 2, omega = 1): no transfer function exists there
        assume(False)
    expected = nodal_transfer(netlist, values, 1j * omega)
    assert abs(h - expected) <= 1e-9 * max(abs(expected), 1.0)


@st.composite
def dissipative_netlists(draw):
    """Netlist text of a small random RCL circuit driven at `in` through a
    conductance, in which every internal node has a capacitor and a
    conductance to ground: node k > 1 hangs off an earlier node by a C, L
    or G, and a few more capacitors and conductances join two internal
    nodes.  Values lie in [0.5, 2]; one to four elements, drawn, have a
    tolerance below 1."""
    k = draw(st.integers(1, 4))
    internal = [str(i) for i in range(1, k + 1)]
    pairs = [("G", "in", "1")] + [(kind, nd, "0") for nd in internal for kind in "CG"]
    pairs += [(draw(st.sampled_from("CLG")), nd, draw(st.sampled_from(internal[:i]))) for i, nd in enumerate(internal[1:], 1)]
    if k > 1:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.lists(st.sampled_from(internal), min_size=2, max_size=2, unique=True))
            pairs.append((draw(st.sampled_from("CG")), a, b))
    toleranced = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=4, unique=True))
    lines = [
        f"{kind}{j} {a} {b} {draw(st.floats(0.5, 2.0)):.17g} "
        f"{draw(st.floats(0.01, 0.95)) if j in toleranced else 0.0:.17g}"
        for j, (kind, a, b) in enumerate(pairs)
    ]
    return "\n".join(lines + ["VIN in 0", f"OUT {draw(st.sampled_from(internal))}"]) + "\n"


@given(dissipative_netlists(), st.integers(0, 2), st.floats(-2.0, 2.0), st.data())
@settings(max_examples=25, deadline=None)
def test_galerkin_pencil_passive_and_krylov_models_stable(text, d, log_s0, data):
    # the MNA stamps put the Galerkin pencil in the form of PRIMA (Odabasioglu,
    # Celik & Pileggi, IEEE TCAD 17, 1998): E = E^T >= 0 and A + A^T <= 0.
    # Arnoldi projects by a congruence, which keeps that form, so every
    # reduced model of this circuit is stable, at any real shift and order
    psys = sg.mna_assemble(sg.parse_netlist(text))
    gsys = sg.assemble(psys, sg.BasisSpec.uniform(psys.parameter_bounds, sg.build_index_set(psys.q, d)))
    E, A = gsys.system.E.toarray(), gsys.system.A.toarray()
    eig_E = np.linalg.eigvalsh(E)
    assert np.abs(E - E.T).max() <= 1e-15 * eig_E.max()
    assert eig_E.min() >= -1e-12 * eig_E.max()
    assert np.linalg.eigvalsh(A + A.T).max() <= 1e-12 * np.abs(A).max()
    r = data.draw(st.integers(1, gsys.dimension))
    reduced = sg.arnoldi_reduce(gsys, 10.0**log_s0, r)
    assert sg.pencil_spectrum(reduced.system).stable
