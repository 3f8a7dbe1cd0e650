"""Netlist parsing and modified nodal analysis for RCL circuits.

Produces affine parametric descriptor systems: one stamp per element,
scaled by its (random) parameter and built from the element's incidence
vector a (+1 at node+, -1 at node-, no entry for ground or the driven node):
a a^T in E for a capacitor, -a a^T in A for a conductance, and for an
inductor -a in its current's column of A, +a in its flux row.  The ideal
voltage source is handled by extended MNA followed by elimination of the
driven node, which requires the source node to touch only conductances.

Netlist grammar (one statement per line, `#` starts a comment):

    KIND name node+ node- nominal tolerance     KIND in {C, L, G}
    VIN node+ node-                             node- must be ground `0`
    OUT node

Element order in the file defines the parameter order p_1..p_q; elements
with tolerance 0 are folded into the constant part and contribute no
random parameter.  A tolerance lies in [0, 1), so that every element value
stays positive on its parameter box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galerkin import ParametricSystem

__all__ = [
    "CircuitElement",
    "CircuitNetlist",
    "NetlistError",
    "ModellingError",
    "parse_netlist",
    "serialize_netlist",
    "mna_assemble",
    "lowpass_benchmark",
]

GROUND = "0"


class NetlistError(ValueError):
    """Parse or validation failure, carrying the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModellingError(ValueError):
    """The netlist is structurally unsuited for index-1 MNA modelling."""


@dataclass(frozen=True)
class CircuitElement:
    kind: str  # "C" | "L" | "G"
    name: str
    node_a: str
    node_b: str
    nominal: float
    tolerance: float


@dataclass(frozen=True)
class CircuitNetlist:
    elements: tuple[CircuitElement, ...]
    input_nodes: tuple[str, str]  # (plus, minus); minus is ground
    output_node: str

    def counts(self) -> dict[str, int]:
        out = {"C": 0, "L": 0, "G": 0}
        for el in self.elements:
            out[el.kind] += 1
        return out

    @property
    def q(self) -> int:
        return sum(1 for el in self.elements if el.tolerance > 0)

    def nodes(self) -> list[str]:
        """Non-ground nodes in order of first appearance."""
        seen: dict[str, None] = {}
        for el in self.elements:
            for nd in (el.node_a, el.node_b):
                if nd != GROUND:
                    seen.setdefault(nd)
        if self.input_nodes[0] != GROUND:
            seen.setdefault(self.input_nodes[0])
        return list(seen)


def parse_netlist(text: str) -> CircuitNetlist:
    elements: list[CircuitElement] = []
    names: set[str] = set()
    vin: tuple[str, str] | None = None
    out_node: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].upper()
        if head == "VIN":
            if vin is not None:
                raise NetlistError("duplicate VIN source", lineno)
            if len(tokens) != 3:
                raise NetlistError("VIN requires exactly two nodes", lineno)
            if tokens[2] != GROUND:
                raise NetlistError("VIN negative terminal must be ground (0)", lineno)
            vin = (tokens[1], tokens[2])
        elif head == "OUT":
            if out_node is not None:
                raise NetlistError("duplicate OUT statement", lineno)
            if len(tokens) != 2:
                raise NetlistError("OUT requires exactly one node", lineno)
            out_node = tokens[1]
        else:
            kind = head[0]
            if kind not in ("C", "L", "G"):
                raise NetlistError(f"unknown element kind {tokens[0]!r}", lineno)
            if len(tokens) != 5:
                raise NetlistError(
                    "element line must be: KIND node+ node- nominal tolerance", lineno
                )
            name = tokens[0]
            if name in names:
                raise NetlistError(f"duplicate element name {name!r}", lineno)
            names.add(name)
            try:
                nominal = float(tokens[3])
                tolerance = float(tokens[4])
            except ValueError:
                raise NetlistError(f"malformed numeric value in {line!r}", lineno) from None
            if nominal <= 0:
                raise NetlistError(f"non-positive element value {nominal}", lineno)
            if tolerance < 0:
                raise NetlistError(f"negative tolerance {tolerance}", lineno)
            if tolerance >= 1:
                # the value's lower bound nominal * (1 - tolerance) is not
                # positive: E or A would leave the passive (PRIMA) form
                raise NetlistError(
                    f"tolerance {tolerance} >= 1 gives the non-positive lower value {nominal * (1 - tolerance):.6g}",
                    lineno,
                )
            if tokens[1] == tokens[2]:
                raise NetlistError("element shorts a node to itself", lineno)
            elements.append(CircuitElement(kind, name, tokens[1], tokens[2], nominal, tolerance))
    nlines = text.count("\n") + 1
    if vin is None:
        raise NetlistError("missing VIN source", nlines)
    if out_node is None:
        raise NetlistError("missing OUT statement", nlines)
    if not elements:
        raise NetlistError("no circuit elements", nlines)
    netlist = CircuitNetlist(tuple(elements), vin, out_node)
    _validate_connectivity(netlist, nlines)
    return netlist


def _find(parent: dict[str, str], x: str) -> str:
    """Root of x in the union-find forest `parent`, adding x as its own root."""
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _validate_connectivity(netlist: CircuitNetlist, lineno: int) -> None:
    parent: dict[str, str] = {}
    for a, b in [(el.node_a, el.node_b) for el in netlist.elements] + [(netlist.input_nodes[0], GROUND)]:
        parent[_find(parent, a)] = _find(parent, b)
    if netlist.output_node not in parent:
        raise NetlistError(f"output node {netlist.output_node!r} is dangling", lineno)
    root = _find(parent, GROUND)
    missing = [nd for nd in parent if _find(parent, nd) != root]
    if missing:
        raise NetlistError(f"nodes not connected to ground: {sorted(missing)}", lineno)


def serialize_netlist(netlist: CircuitNetlist) -> str:
    lines = [
        f"{el.name} {el.node_a} {el.node_b} {el.nominal:.17g} {el.tolerance:.17g}"
        for el in netlist.elements
    ]
    lines.append(f"VIN {netlist.input_nodes[0]} {netlist.input_nodes[1]}")
    lines.append(f"OUT {netlist.output_node}")
    return "\n".join(lines) + "\n"


def _check_inductor_loops(netlist: CircuitNetlist) -> None:
    """Reject cycles made of inductors only (structural index > 1)."""
    parent: dict[str, str] = {}
    for el in netlist.elements:
        if el.kind != "L":
            continue
        ra, rb = _find(parent, el.node_a), _find(parent, el.node_b)
        if ra == rb:
            raise ModellingError(f"inductor-only loop through {el.name}")
        parent[ra] = rb


def mna_assemble(netlist: CircuitNetlist) -> ParametricSystem:
    """Affine parametric descriptor system from modified nodal analysis.

    Unknowns: non-ground node voltages (driven source node eliminated)
    followed by inductor currents.  Each random parameter is uniform on
    [nominal*(1-tol), nominal*(1+tol)] in element file order.
    """
    _check_inductor_loops(netlist)
    source = netlist.input_nodes[0]
    if source == GROUND:
        raise ModellingError("source positive terminal cannot be ground")
    for el in netlist.elements:
        if el.kind in ("C", "L") and source in (el.node_a, el.node_b):
            raise ModellingError(
                f"element {el.name}: only conductances may touch the driven node {source!r}"
            )
    nodes = [nd for nd in netlist.nodes() if nd != source]
    if netlist.output_node == source or netlist.output_node == GROUND:
        raise ModellingError("output node must be an internal node")
    node_pos = {nd: i for i, nd in enumerate(nodes)}
    inductors = [el for el in netlist.elements if el.kind == "L"]
    ind_pos = {el.name: len(nodes) + k for k, el in enumerate(inductors)}
    n = len(nodes) + len(inductors)

    E0 = np.zeros((n, n))
    A0 = np.zeros((n, n))
    B0 = np.zeros(n)
    E_terms: list = []
    A_terms: list = []
    B_terms: list = []
    bounds: list[tuple[float, float]] = []
    for el in netlist.elements:
        a = np.zeros(n)  # incidence vector
        for nd, sign in ((el.node_a, 1.0), (el.node_b, -1.0)):
            if nd in node_pos:
                a[node_pos[nd]] = sign
        # each stamp is built into zeros by += or -=, so that no -0.0 survives
        Es, As, Bs = np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
        if el.kind == "C":
            Es += np.outer(a, a)
        elif el.kind == "G":
            # KCL rows: E x' = A x + B u, so the conductance enters A negated
            # and the driven node's voltage column moves to the input vector
            As -= np.outer(a, a)
            Bs -= a * ((el.node_a == source) - (el.node_b == source))
        else:  # inductor: branch current k from a to b, flux equation in row k
            k = ind_pos[el.name]
            A0[:, k] -= a
            A0[k, :] += a
            Es[k, k] = 1.0  # scaled by the inductance parameter
        if el.tolerance > 0:
            bounds.append((el.nominal * (1 - el.tolerance), el.nominal * (1 + el.tolerance)))
            E_terms.append(Es if Es.any() else None)
            A_terms.append(As if As.any() else None)
            B_terms.append(Bs if Bs.any() else None)
        else:
            E0 += el.nominal * Es
            A0 += el.nominal * As
            B0 += el.nominal * Bs
    q = len(bounds)
    C0 = np.zeros((1, n))
    C0[0, node_pos[netlist.output_node]] = 1.0
    return ParametricSystem(
        n=n,
        q=q,
        E0=E0,
        A0=A0,
        B0=B0,
        C0=C0,
        E_terms=E_terms,
        A_terms=A_terms,
        B_terms=B_terms,
        C_terms=[None] * q,
        parameter_bounds=bounds,
        nominal_parameters=np.array(
            [el.nominal for el in netlist.elements if el.tolerance > 0], dtype=float
        ),
    )


# Built-in low-pass ladder: source -> G1, then alternating L / G series
# chain with shunt capacitors at every second node; the load capacitor
# sits at the output node.  14 internal nodes, 7 C / 6 L / 8 G, 10%
# tolerances; assembles to an index-1 DAE of dimension 20.
_LOWPASS_NETLIST = """\
# low pass filter ladder benchmark
G1 in 1 3.1623e-3 0.1
C1 2 0 1.0e-8 0.1
L1 1 2 1.0e-3 0.1
G2 2 3 3.1623e-3 0.1
C2 4 0 1.0e-8 0.1
L2 3 4 1.0e-3 0.1
G3 4 5 3.1623e-3 0.1
C3 6 0 1.0e-8 0.1
L3 5 6 1.0e-3 0.1
G4 6 7 3.1623e-3 0.1
C4 8 0 1.0e-8 0.1
L4 7 8 1.0e-3 0.1
G5 8 9 3.1623e-3 0.1
C5 10 0 1.0e-8 0.1
L5 9 10 1.0e-3 0.1
G6 10 11 3.1623e-3 0.1
C6 12 0 1.0e-8 0.1
L6 11 12 1.0e-3 0.1
G7 12 13 3.1623e-3 0.1
G8 13 14 3.1623e-3 0.1
C7 14 0 1.0e-8 0.1
VIN in 0
OUT 14
"""


def lowpass_benchmark() -> CircuitNetlist:
    """Built-in 14-node low-pass ladder with 7 C, 6 L, 8 G (q = 21)."""
    return parse_netlist(_LOWPASS_NETLIST)


def lowpass_benchmark_text() -> str:
    return _LOWPASS_NETLIST
