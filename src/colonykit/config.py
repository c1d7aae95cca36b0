"""Declarative experiment configuration.

One YAML file describes an experiment: model parameters, the motility
family, and per-command blocks.  It is read as UTF-8 and loaded by one
PyYAML SafeLoader whose mappings record the source line of each key and
which reads YAML 1.2's exponent floats such as 2e1 as numbers; any
failure to read or load it, from invalid UTF-8 to a recursive alias, is a
ConfigError.  Validation is strict; unknown keys are rejected and every
diagnostic carries the offending key path and, when available, the source
line.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
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
    "load_config",
    "parse_config",
]


class _Mapping(dict):
    """A YAML mapping; lines maps each key to its 1-based source line."""

    lines: dict = {}


def _construct_mapping(loader, node):
    data = _Mapping(loader.construct_mapping(node, deep=True))
    # construct_mapping flattened merge keys into node.value and cached every key
    data.lines = {loader.construct_object(key_node): key_node.start_mark.line + 1
                  for key_node, _ in node.value}
    return data


class _Loader(yaml.SafeLoader):
    """SafeLoader whose mappings are ``_Mapping`` and whose floats include
    YAML 1.2's exponent forms without a dot or an exponent sign (2e1,
    1.0e308), which YAML 1.1 reads as strings."""


_Loader.add_constructor("tag:yaml.org,2002:map", _construct_mapping)
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _load_yaml(text: str):
    try:
        data = yaml.load(text, _Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return _Mapping() if data is None else data


class _Section:
    """A mapping under validation: typed reads, then unknown-key rejection."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'top level'}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen = set()

    def _key(self, key):
        """The dotted path of key."""
        return f"{self.path}.{key}" if self.path else key

    def _where(self, key):
        line = self.data.lines.get(key)
        return f"{self._key(key)} (line {line})" if line else self._key(key)

    def take(self, key, kind, default=None, required=False, minimum=None, exclusive=False,
             choices=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"missing required key {self._key(key)}")
            return default
        val = self.data[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
            raise ConfigError(f"{self._where(key)}: expected {kind.__name__}, got {val!r}")
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

    def take_given(self, keys, kind, **checks) -> dict:
        """The keys among keys that the file sets, each read by take; unset
        keys are left out, so the library's own defaults apply to them."""
        return {key: self.take(key, kind, **checks) for key in keys if key in self.data}

    def subsection(self, key, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"missing required section {self._key(key)}")
            return None
        return _Section(self.data[key], self._key(key))

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = min(unknown, key=str)
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
    options: dict  # the SimConfig fields the file sets
    snapshot_format: str = "csv"

    def sim_config(self, params: ModelParams, motility: MotilityModel) -> SimConfig:
        return SimConfig(params=params, motility=motility, init=self.init, **self.options)


@dataclass(frozen=True)
class ContinuationSettings:
    j: int
    sigma_min: float
    options: dict  # the trace_branch keyword arguments the file sets


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    motility: MotilityModel
    seed: int
    analyze: AnalyzeSettings
    expand: ExpandSettings
    simulate: SimulateSettings | None
    continuation: ContinuationSettings | None
    raw: dict = dataclass_field(repr=False, default_factory=dict)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_motility(sec: _Section) -> MotilityModel:
    family = sec.take("family", str, required=True,
                      choices={"logistic_decay", "exponential_decay"})
    if family == "logistic_decay":
        kwargs = sec.take_given(("steepness",), float, minimum=0.0, exclusive=True)
        kwargs |= sec.take_given(("center",), float)
        cls = LogisticDecay
    else:
        kwargs = sec.take_given(("r0", "rate"), float, minimum=0.0, exclusive=True)
        cls = ExponentialDecay
    sec.finish()
    return cls(**kwargs)


def _parse_init(sec: _Section, seed: int):
    kind = sec.take("kind", str, required=True,
                    choices={"uniform_perturbed", "asymptotic_mode"})
    if kind == "uniform_perturbed":
        kwargs = sec.take_given(("amplitude",), float, minimum=0.0, exclusive=True)
        sec.finish()
        return UniformPerturbed(seed=seed, **kwargs)
    j = sec.take("j", int, required=True, minimum=1)
    kwargs = sec.take_given(("epsilon", "u1_scale"), float)
    sec.finish()
    return AsymptoticMode(j=j, **kwargs)


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    data = _load_yaml(text)
    top = _Section(data, "")

    config_seed = top.take("seed", int, default=0, minimum=0)
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed_override}")
    seed = seed_override if seed_override is not None else config_seed

    psec = top.subsection("params", required=True)
    try:
        params = ModelParams(sigma=psec.take("sigma", float, required=True),
                             **psec.take_given(("D", "l"), float))
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
        analyze = AnalyzeSettings(j_max=asec.take("j_max", int, minimum=1))
        asec.finish()

    expand = ExpandSettings()
    if (esec := top.subsection("expand")) is not None:
        modes = esec.take("modes", list)
        if modes is not None:
            if not all(isinstance(j, int) and not isinstance(j, bool) and j >= 1 for j in modes):
                raise ConfigError(f"{esec._where('modes')}: must be a list of integers >= 1")
            expand = ExpandSettings(modes=tuple(modes))
        esec.finish()

    simulate = None
    if (ssec := top.subsection("simulate")) is not None:
        init = _parse_init(ssec.subsection("init", required=True), seed)
        options = ssec.take_given(("n",), int, minimum=16)
        options |= ssec.take_given(("t_end", "dt", "steady_tol", "snapshot_every"), float,
                                   minimum=0.0, exclusive=True)
        simulate = SimulateSettings(
            init=init,
            options=options,
            snapshot_format=ssec.take("snapshot_format", str, default="csv",
                                      choices={"csv", "binary"}),
        )
        ssec.finish()

    continuation = None
    if (csec := top.subsection("continuation")) is not None:
        j = csec.take("j", int, required=True, minimum=1)
        sigma_min = csec.take("sigma_min", float, required=True, minimum=0.0)
        options = csec.take_given(("n",), int, minimum=16)
        continuation = ContinuationSettings(j=j, sigma_min=sigma_min, options=options)
        csec.finish()

    top.finish()
    return ExperimentConfig(
        params=params,
        motility=motility,
        seed=seed,
        analyze=analyze,
        expand=expand,
        simulate=simulate,
        continuation=continuation,
        raw=data,
    )


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, seed_override=seed_override)
