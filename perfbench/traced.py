"""Run `sgmor.cli.main` with spans around the calls it makes into each module.

Usage: python3 perfbench/traced.py SPANS_JSON run --config CFG --out DIR

The wrappers are installed from here, in this process only; no file of the
package changes.  `sgmor.cli` binds the public functions it uses with
`from .module import name`, so they are replaced in the `sgmor.cli`
namespace; the stages are replaced in `sgmor.cli.STAGES`, which `run`
looks up per stage.  scipy's `splu` and `lu_factor` are replaced on their
modules, which the package reaches through `spla.splu` / `sla.lu_factor`,
to count factorizations without a span each.

Each span records its name, start, end, the index of its parent span and
a few attributes taken from the call (grid points, nonzeros, bytes).
Spans are kept in memory and written to SPANS_JSON when `main` returns.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def record(self, name: str, start: float, end: float, parent: int | None, **attrs) -> int:
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, **attrs})
        return len(self.spans) - 1

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span per call; attrs(args, result) adds span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            idx = self.record(name, time.perf_counter(), None, parent)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx]["end"] = time.perf_counter()
            if attrs is not None:
                self.spans[idx].update(attrs(args, result))
            return result

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def _written(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _written_by_method(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def install(tracer: Tracer):
    import numpy as np
    import scipy.io
    import scipy.linalg
    import scipy.sparse.linalg

    import sgmor.cli as cli
    from sgmor.descriptor import Trajectory
    from sgmor.hardy import HardyNormReport

    def sample_attrs(args, _result):
        system, grid = args[0], args[1]
        return {"points": len(grid), "full": bool(system.is_sparse)}

    def assemble_attrs(_args, gsys):
        return {"nnz": int(gsys.system.E.nnz + gsys.system.A.nnz)}

    calls = {
        "parse_netlist": ("circuits.parse_netlist", None),
        "mna_assemble": ("circuits.mna_assemble", None),
        "build_index_set": ("basis.build_index_set", None),
        "assemble": ("galerkin.assemble", assemble_attrs),
        "downsize": ("galerkin.downsize", None),
        "sample_transfer": ("hardy.sample_transfer", sample_attrs),
        "hardy_norms": ("hardy.hardy_norms", None),
        "pencil_spectrum": ("descriptor.pencil_spectrum", None),
        "simulate_transient": (
            "descriptor.simulate_transient",
            lambda _a, traj: {"steps": len(traj.times) - 1},
        ),
        "rank_and_theta": ("sparsify.rank_and_theta", None),
        "select_indices": ("sparsify.select_indices", None),
        "theorem1_certificate": ("sparsify.theorem1_certificate", None),
        "theorem2_certificate": ("sparsify.theorem2_certificate", None),
        "arnoldi_reduce": ("mor.arnoldi_reduce", lambda _a, red: {"vectors": red.r}),
        "svd_basis": ("mor.svd_basis", None),
        "deflate": ("mor.deflate", None),
        "_load_galerkin": ("cli.load", None),
        "_load_samples": ("cli.load", None),
        "_write_csv": ("cli.write", _written),
        "_write_json": ("cli.write", _written),
    }
    for attr, (name, attrs) in calls.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), attrs))
    for stage, fn in list(cli.STAGES.items()):
        cli.STAGES[stage] = tracer.wrap(f"cli.{stage}", fn)

    scipy.io.mmwrite = tracer.wrap("cli.write", scipy.io.mmwrite, _written)
    np.savez_compressed = tracer.wrap("cli.write", np.savez_compressed, _written)
    Trajectory.to_csv = tracer.wrap("cli.write", Trajectory.to_csv, _written_by_method)
    HardyNormReport.to_json = tracer.wrap("cli.write", HardyNormReport.to_json, _written_by_method)
    scipy.sparse.linalg.splu = tracer.count("splu", scipy.sparse.linalg.splu)
    scipy.linalg.lu_factor = tracer.count("lu_factor", scipy.linalg.lu_factor)
    return cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    tracer.record("startup.import", T_START, time.perf_counter(), None)
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
