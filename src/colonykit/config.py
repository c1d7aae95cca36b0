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

    def take_given(self, keys, kind, **checks) -> dict:
        """The keys among keys that the file sets, each read by take; unset
        keys are left out, so the library's own defaults apply to them."""
        return {key: self.take(key, kind, **checks) for key in keys if key in self.data}

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
    reproduce: dict  # the ReproductionContext keyword arguments the file sets
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
    model = cls(**kwargs)
    # the linear analysis divides by r(1) and the time step by max r
    if not model.evaluate(1.0) > 0:
        raise ValueError(f"r(1) underflows to 0 for {model}")
    return model


def _parse_init(sec: _Section, default_seed: int):
    kind = sec.take("kind", str, required=True,
                    choices={"uniform_perturbed", "asymptotic_mode"})
    if kind == "uniform_perturbed":
        kwargs = sec.take_given(("amplitude",), float, minimum=0.0, exclusive=True)
        seed = sec.take("seed", int, default=default_seed, minimum=0)
        sec.finish()
        return UniformPerturbed(seed=seed, **kwargs)
    j = sec.take("j", int, required=True, minimum=1)
    kwargs = sec.take_given(("epsilon", "u1_scale"), float)
    sec.finish()
    return AsymptoticMode(j=j, **kwargs)


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    data, lines = _compose_with_lines(text)
    top = _Section(data, lines, "")

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
            if not all(isinstance(j, int) and not isinstance(j, bool) and j >= 1 for j in modes):
                raise ConfigError("expand.modes: entries must be integers >= 1")
            modes = tuple(modes)
        expand = ExpandSettings(modes=modes)
        esec.finish()

    simulate = None
    if (ssec := top.subsection("simulate")) is not None:
        init = _parse_init(ssec.subsection("init", required=True), seed)
        options = ssec.take_given(("n",), int, minimum=16)
        options |= ssec.take_given(("t_end", "steady_tol", "snapshot_every", "b_max"), float,
                                   minimum=0.0, exclusive=True)
        dt = ssec.take("dt", (float, int, str), default="auto")
        if dt != "auto":
            if isinstance(dt, str) or not dt > 0:
                raise ConfigError(f"{ssec._where('dt')}: must be a number > 0 or 'auto', got {dt!r}")
            options["dt"] = float(dt)
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
        options = csec.take_given(("ds", "seed_offset"), float, minimum=0.0, exclusive=True)
        options |= csec.take_given(("n",), int, minimum=16)
        continuation = ContinuationSettings(j=j, sigma_min=sigma_min, options=options)
        csec.finish()

    reproduce = {}
    if (rsec := top.subsection("reproduce")) is not None:
        reproduce = rsec.take_given(("n",), int, minimum=16)
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
