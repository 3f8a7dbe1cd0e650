"""Netlist parsing and modified nodal analysis."""

import dataclasses

import numpy as np
import pytest

import sgmor as sg
from sgmor.circuits import ModellingError, NetlistError, lowpass_benchmark_text
from sgmor.galerkin import ParametricSystem

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
        assert rep.strictly_proper
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
