"""Pipeline configuration: YAML schema, resolution with defaults, hashing."""

from __future__ import annotations

import hashlib
import json
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


@dataclass
class TransientConfig:
    enabled: bool = False
    horizon: float = 2.0e-3
    step: float = 1.0e-6
    input: str = "smooth_step"  # smooth_step | sine_burst


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


def _build_section(cls, data: dict):
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
    raw = yaml.safe_load(Path(path).read_text()) or {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a YAML mapping")
    cfg = PipelineConfig()
    for key, val in raw.items():
        if key in _SECTIONS:
            setattr(cfg, key, _build_section(_SECTIONS[key], val or {}))
        elif key in ("netlist", "output_dir"):
            setattr(cfg, key, str(val))
        elif key == "seed":
            cfg.seed = int(val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if cfg.sparsify.norm not in ("h2", "hinf"):
        raise ValueError("sparsify.norm must be h2 or hinf")
    if cfg.sparsify.mode not in ("threshold", "top_k"):
        raise ValueError("sparsify.mode must be threshold or top_k")
    return cfg
