"""Declarative experiment configuration.

One YAML file describes an experiment: model parameters, the motility
family, and per-command blocks.  Validation is strict; unknown keys are
rejected and every diagnostic carries the offending key path and, when
available, the source line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import yaml

from .errors import ConfigError
from .linear_analysis import ModelParams
from .motility import ExponentialDecay, LogisticDecay, MotilityModel
from .pde_solver import AsymptoticMode, SimConfig, UniformPerturbed

__all__ = [
    "ExperimentConfig",
    "AnalyzeSettings",
    "ExpandSettings",
    "SimulateSettings",
    "ContinuationSettings",
    "ReproduceSettings",
    "load_config",
    "parse_config",
]


def _compose_with_lines(text: str):
    """Parse YAML into plain data plus a parallel tree of source lines."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
    finally:
        loader.dispose()
    if node is None:
        return {}, {}

    constructor = yaml.SafeLoader("")

    def build(nd):
        if isinstance(nd, yaml.MappingNode):
            data, lines = {}, {}
            for key_node, val_node in nd.value:
                key = constructor.construct_object(key_node, deep=True)
                val, sub = build(val_node)
                data[key] = val
                lines[key] = (key_node.start_mark.line + 1, sub)
            return data, lines
        if isinstance(nd, yaml.SequenceNode):
            items = [build(child) for child in nd.value]
            return [v for v, _ in items], {i: (nd.value[i].start_mark.line + 1, s)
                                           for i, (_, s) in enumerate(items)}
        return constructor.construct_object(nd, deep=True), {}

    try:
        return build(node)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc


class _Section:
    """A mapping under validation: typed reads, then unknown-key rejection."""

    def __init__(self, data, lines, path):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'top level'}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.lines = lines or {}
        self.path = path
        self.seen = set()

    def _where(self, key):
        entry = self.lines.get(key)
        loc = f" (line {entry[0]})" if entry else ""
        prefix = f"{self.path}." if self.path else ""
        return f"{prefix}{key}{loc}"

    def has(self, key) -> bool:
        return key in self.data

    def take(self, key, kind, default=None, required=False, minimum=None, exclusive=False,
             choices=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                prefix = f"{self.path}." if self.path else ""
                raise ConfigError(f"missing required key {prefix}{key}")
            return default
        val = self.data[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if kind is not None and (not isinstance(val, kind) or isinstance(val, bool) and kind is not bool):
            raise ConfigError(
                f"{self._where(key)}: expected {getattr(kind, '__name__', kind)}, got {val!r}"
            )
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{self._where(key)}: must be a finite number, got {val}")
        if minimum is not None:
            if exclusive and not val > minimum:
                raise ConfigError(f"{self._where(key)}: must be > {minimum}, got {val}")
            if not exclusive and not val >= minimum:
                raise ConfigError(f"{self._where(key)}: must be >= {minimum}, got {val}")
        if choices is not None and val not in choices:
            raise ConfigError(f"{self._where(key)}: must be one of {sorted(choices)}, got {val!r}")
        return val

    def subsection(self, key, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                prefix = f"{self.path}." if self.path else ""
                raise ConfigError(f"missing required section {prefix}{key}")
            return None
        entry = self.lines.get(key, (None, {}))
        sub_path = f"{self.path}.{key}" if self.path else key
        return _Section(self.data[key], entry[1], sub_path)

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"unknown key {self._where(key)}")


@dataclass(frozen=True)
class AnalyzeSettings:
    j_max: int | None = None


@dataclass(frozen=True)
class ExpandSettings:
    modes: tuple[int, ...] | None = None  # None: every mode with a positive bifurcation value


@dataclass(frozen=True)
class SimulateSettings:
    init: AsymptoticMode | UniformPerturbed
    n: int = 512
    dt: float | None = None
    t_end: float = 5000.0
    steady_tol: float = 1e-8
    snapshot_every: float = 1.0
    b_max: float = 100.0
    snapshot_format: str = "csv"

    def sim_config(self, params: ModelParams, motility: MotilityModel) -> SimConfig:
        return SimConfig(
            params=params,
            motility=motility,
            init=self.init,
            n=self.n,
            dt=self.dt,
            t_end=self.t_end,
            steady_tol=self.steady_tol,
            snapshot_every=self.snapshot_every,
            b_max=self.b_max,
        )


@dataclass(frozen=True)
class ContinuationSettings:
    j: int
    sigma_min: float
    ds: float = 1e-3
    n: int = 256
    seed_offset: float = 1e-3


@dataclass(frozen=True)
class ReproduceSettings:
    n: int = 512


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    motility: MotilityModel
    seed: int
    analyze: AnalyzeSettings
    expand: ExpandSettings
    simulate: SimulateSettings | None
    continuation: ContinuationSettings | None
    reproduce: ReproduceSettings
    raw: dict = dataclass_field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_motility(sec: _Section) -> MotilityModel:
    family = sec.take("family", str, required=True,
                      choices={"logistic_decay", "exponential_decay"})
    if family == "logistic_decay":
        k = sec.take("steepness", float, default=8.0, minimum=0.0, exclusive=True)
        center = sec.take("center", float, default=1.0)
        sec.finish()
        return LogisticDecay(steepness=k, center=center)
    r0 = sec.take("r0", float, default=1.0, minimum=0.0, exclusive=True)
    rate = sec.take("rate", float, default=1.0, minimum=0.0, exclusive=True)
    sec.finish()
    return ExponentialDecay(r0=r0, rate=rate)


def _parse_init(sec: _Section, default_seed: int):
    kind = sec.take("kind", str, required=True,
                    choices={"uniform_perturbed", "asymptotic_mode"})
    if kind == "uniform_perturbed":
        amp = sec.take("amplitude", float, default=0.01, minimum=0.0, exclusive=True)
        seed = sec.take("seed", int, default=default_seed)
        sec.finish()
        return UniformPerturbed(amplitude=amp, seed=seed)
    j = sec.take("j", int, required=True, minimum=1)
    eps = sec.take("epsilon", float, default=0.01)
    scale = sec.take("u1_scale", float, default=1.0)
    sec.finish()
    return AsymptoticMode(j=j, epsilon=eps, u1_scale=scale)


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    data, lines = _compose_with_lines(text)
    top = _Section(data, lines, "")

    config_seed = top.take("seed", int, default=0)
    seed = seed_override if seed_override is not None else config_seed

    psec = top.subsection("params", required=True)
    try:
        params = ModelParams(
            D=psec.take("D", float, default=1.0),
            sigma=psec.take("sigma", float, required=True),
            l=psec.take("l", float, default=20.0),
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc
    psec.finish()

    msec = top.subsection("motility", required=True)
    try:
        motility = _parse_motility(msec)
    except ValueError as exc:
        raise ConfigError(f"motility: {exc}") from exc

    analyze = AnalyzeSettings()
    if (asec := top.subsection("analyze")) is not None:
        analyze = AnalyzeSettings(j_max=asec.take("j_max", int, default=None, minimum=1))
        asec.finish()

    expand = ExpandSettings()
    if (esec := top.subsection("expand")) is not None:
        modes = esec.take("modes", (list, str), default=None)
        if isinstance(modes, str):
            if modes != "unstable":
                raise ConfigError(f"expand.modes: must be 'unstable' or a list of mode indices")
            modes = None
        if modes is not None:
            if not all(isinstance(j, int) and j >= 1 for j in modes):
                raise ConfigError("expand.modes: entries must be integers >= 1")
            modes = tuple(modes)
        expand = ExpandSettings(modes=modes)
        esec.finish()

    simulate = None
    if (ssec := top.subsection("simulate")) is not None:
        init_sec = ssec.subsection("init", required=True)
        init = _parse_init(init_sec, seed)
        dt = ssec.take("dt", (float, str), default=None)
        if isinstance(dt, str):
            if dt != "auto":
                raise ConfigError("simulate.dt: must be a positive number or 'auto'")
            dt = None
        simulate = SimulateSettings(
            init=init,
            n=ssec.take("n", int, default=512, minimum=16),
            dt=dt,
            t_end=ssec.take("t_end", float, default=5000.0, minimum=0.0, exclusive=True),
            steady_tol=ssec.take("steady_tol", float, default=1e-8, minimum=0.0, exclusive=True),
            snapshot_every=ssec.take("snapshot_every", float, default=1.0, minimum=0.0, exclusive=True),
            b_max=ssec.take("b_max", float, default=100.0, minimum=0.0, exclusive=True),
            snapshot_format=ssec.take("snapshot_format", str, default="csv",
                                      choices={"csv", "binary"}),
        )
        ssec.finish()

    continuation = None
    if (csec := top.subsection("continuation")) is not None:
        continuation = ContinuationSettings(
            j=csec.take("j", int, required=True, minimum=1),
            sigma_min=csec.take("sigma_min", float, required=True, minimum=0.0),
            ds=csec.take("ds", float, default=1e-3, minimum=0.0, exclusive=True),
            n=csec.take("n", int, default=256, minimum=16),
            seed_offset=csec.take("seed_offset", float, default=1e-3, minimum=0.0, exclusive=True),
        )
        csec.finish()

    reproduce = ReproduceSettings()
    if (rsec := top.subsection("reproduce")) is not None:
        reproduce = ReproduceSettings(n=rsec.take("n", int, default=512, minimum=16))
        rsec.finish()

    top.finish()
    return ExperimentConfig(
        params=params,
        motility=motility,
        seed=seed,
        analyze=analyze,
        expand=expand,
        simulate=simulate,
        continuation=continuation,
        reproduce=reproduce,
        raw=data,
    )


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, seed_override=seed_override)
