"""Pipeline configuration: YAML schema, resolution with defaults, hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

__all__ = ["PipelineConfig", "load_config", "config_hash"]


@dataclass
class BasisConfig:
    degree: int = 2


@dataclass
class FrequencyGridConfig:
    decade_min: float = -2.0
    decade_max: float = 10.0
    points_per_decade: int = 60
    include_zero: bool = True


@dataclass
class SparsifyConfig:
    norm: str = "h2"  # h2 | hinf
    mode: str = "threshold"  # threshold | top_k
    delta: float = 1.0e-2
    k: int | None = None
    table_deltas: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    downsize_sweep: tuple[int, int, int] | None = None  # start, stop, step over r


@dataclass
class MorConfig:
    s0: float = 5.0e5
    r: int = 50
    r_sweep: tuple[int, int, int] | None = None
    deflation_thresholds: tuple[float, ...] = (1e-4, 1e-8, 1e-12)


TRANSIENT_INPUTS = ("smooth_step", "sine_burst")


@dataclass
class TransientConfig:
    enabled: bool = False
    horizon: float = 2.0e-3
    step: float = 1.0e-6
    input: str = "smooth_step"  # one of TRANSIENT_INPUTS


@dataclass
class PipelineConfig:
    netlist: str = "builtin:lowpass"
    basis: BasisConfig = field(default_factory=BasisConfig)
    frequency_grid: FrequencyGridConfig = field(default_factory=FrequencyGridConfig)
    sparsify: SparsifyConfig = field(default_factory=SparsifyConfig)
    mor: MorConfig = field(default_factory=MorConfig)
    transient: TransientConfig = field(default_factory=TransientConfig)
    output_dir: str = "sgmor_out"
    seed: int = 0

    def resolved(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return config_hash(self.resolved())


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=list).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_SECTIONS = {
    "basis": BasisConfig,
    "frequency_grid": FrequencyGridConfig,
    "sparsify": SparsifyConfig,
    "mor": MorConfig,
    "transient": TransientConfig,
}


def _build_section(key: str, data):
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ValueError(f"{key} must be a mapping of its settings, got {data!r}")
    cls = _SECTIONS[key]
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key, val in kwargs.items():
        if isinstance(val, list):
            kwargs[key] = tuple(val)
    return cls(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    """The config in the YAML file at `path`; ValueError, on one line, where
    the file is not valid YAML or its settings are invalid."""
    try:
        raw = yaml.safe_load(Path(path).read_text()) or {}
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValueError(f"not valid YAML{where}: {problem}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a YAML mapping")
    cfg = PipelineConfig()
    for key, val in raw.items():
        if key in _SECTIONS:
            setattr(cfg, key, _build_section(key, val))
        elif key in ("netlist", "output_dir", "seed"):
            setattr(cfg, key, val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    _validate(cfg)
    return cfg


def _real(v, kinds=(int, float)) -> float:
    """v as a float; NaN, which fails every comparison, if v is not of `kinds`."""
    return float(v) if isinstance(v, kinds) and not isinstance(v, bool) else math.nan


def _is_sweep(v) -> bool:
    triple = isinstance(v, tuple) and len(v) == 3
    return v is None or triple and 1 <= _real(v[0], int) <= _real(v[1], int) and _real(v[2], int) >= 1


def _all_reals(v, ok) -> bool:
    """v is a list whose entries are all reals that pass ok."""
    return isinstance(v, tuple) and all(ok(_real(x)) for x in v)


def _validate(cfg: PipelineConfig) -> None:
    """Reject, before any stage runs, a config that some stage cannot run."""
    spa, fg, tr, mor, degree = cfg.sparsify, cfg.frequency_grid, cfg.transient, cfg.mor, cfg.basis.degree
    ppd, lo, hi = fg.points_per_decade, fg.decade_min, fg.decade_max
    deltas, thresholds = spa.table_deltas, mor.deflation_thresholds
    sweep = "must be [start, stop, step], integers with 1 <= start <= stop and step >= 1"
    checks = [
        ("netlist", cfg.netlist, isinstance(cfg.netlist, str), "must be a string"),
        ("output_dir", cfg.output_dir, isinstance(cfg.output_dir, str), "must be a string"),
        ("seed", cfg.seed, not math.isnan(_real(cfg.seed, int)), "must be an integer"),
        ("sparsify.norm", spa.norm, spa.norm in ("h2", "hinf"), "must be h2 or hinf"),
        ("sparsify.mode", spa.mode, spa.mode in ("threshold", "top_k"), "must be threshold or top_k"),
        ("sparsify.k", spa.k, spa.mode != "top_k" or _real(spa.k, int) >= 1, "must be an integer >= 1 in mode top_k"),
        ("sparsify.delta", spa.delta, spa.mode != "threshold" or _real(spa.delta) > 0, "must be > 0 in mode threshold"),
        ("sparsify.table_deltas", deltas, _all_reals(deltas, lambda d: d >= 0), "must be a list of numbers >= 0"),
        ("sparsify.downsize_sweep", spa.downsize_sweep, _is_sweep(spa.downsize_sweep), sweep),
        ("mor.r_sweep", mor.r_sweep, _is_sweep(mor.r_sweep), sweep),
        ("mor.r", mor.r, _real(mor.r, int) >= 1, "must be an integer >= 1"),
        ("mor.s0", mor.s0, math.isfinite(_real(mor.s0)), "must be a finite real number"),
        ("mor.deflation_thresholds", thresholds, _all_reals(thresholds, lambda t: t > 0),
         "must be a list of numbers > 0"),
        ("basis.degree", degree, _real(degree, int) >= 0, "must be an integer >= 0"),
        ("frequency_grid.points_per_decade", ppd, 1 <= _real(ppd) < math.inf, "must be >= 1 and finite"),
        ("frequency_grid.decade_max", hi, math.isfinite(_real(hi)), "must be a finite real number"),
        ("frequency_grid.decade_min", lo, -math.inf < _real(lo) < _real(hi),
         f"must be below decade_max = {hi!r} and finite"),
        ("frequency_grid.include_zero", fg.include_zero, isinstance(fg.include_zero, bool), "must be true or false"),
        ("transient.enabled", tr.enabled, isinstance(tr.enabled, bool), "must be true or false"),
        ("transient.input", tr.input, tr.input in TRANSIENT_INPUTS, f"must be one of {TRANSIENT_INPUTS}"),
        ("transient.step", tr.step, 0 < _real(tr.step) < math.inf, "must be > 0 and finite"),
        ("transient.horizon", tr.horizon, 0 < _real(tr.horizon) < math.inf, "must be > 0 and finite"),
        ("transient.step", tr.step, _real(tr.step) <= _real(tr.horizon),
         f"must be at most transient.horizon = {tr.horizon!r}"),
    ]
    for name, value, ok, rule in checks:
        if not ok:
            raise ValueError(f"{name} {rule}, got {value!r}")
