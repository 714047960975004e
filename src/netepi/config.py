"""JSON run-configuration parsing and validation.

Every value is checked against its type here, once. A value of the wrong type,
a non-finite number or a block that is not an object is a ConfigError;
a missing or null optional field takes its default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ParameterError
from .experiments import NETWORK_FIELDS, OPTIONAL_NETWORK_FIELDS, NetworkSource, SweepSpec
from .interventions import InterventionSpec

ENGINES = ("gillespie", "abm", "ode")

_JSON_TYPES = {str: "a string", bool: "a boolean", dict: "an object", list: "an array"}
_REQUIRED = object()


def _coerce(value, typ: type, where: str):
    """`value` as `typ`: JSON types must match. A number field takes any
    finite JSON number, an integer field one with no fractional part (1e3
    is 1000); a boolean or a string is neither."""
    if typ in _JSON_TYPES:
        if not isinstance(value, typ):
            raise ConfigError(f"{where} must be {_JSON_TYPES[typ]}, got {value!r}")
        return value
    noun = "an integer" if typ is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    try:
        return typ(value)
    except OverflowError as exc:  # an integer past the largest double
        raise ConfigError(f"{where}: {exc}") from exc


def _field(block: dict, key: str, typ: type, path: str, default=_REQUIRED):
    if block.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {path}.{key}")
        return default
    return _coerce(block[key], typ, f"{path}.{key}")


def _positive(value: float, where: str) -> float:
    if value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    return value


def _check_keys(block, allowed: set, path: str) -> dict:
    _coerce(block, dict, path)
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) under {path}: {sorted(unknown)}")
    return block


def _load(text: str, path: str, allowed: set) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return _check_keys(doc, allowed, path)


def parse_network_block(block: dict, path: str = "network") -> NetworkSource:
    """One of er/ws/ba/edge_list/well_mixed; exactly one source allowed."""
    _check_keys(block, set(NETWORK_FIELDS), path)
    if len(block) != 1:
        raise ConfigError(f"{path} must name exactly one source, got {sorted(block) or 'none'}")
    ((kind, inner),) = block.items()
    fields = NETWORK_FIELDS[kind]
    _check_keys(inner, set(fields), f"{path}.{kind}")
    values = {
        name: _field(inner, name, typ, f"{path}.{kind}")
        for name, typ in fields.items()
        if inner.get(name) is not None or name not in OPTIONAL_NETWORK_FIELDS
    }
    if kind == "well_mixed":  # the other sources check their ranges as they build
        if values["n"] < 1:
            raise ConfigError(f"{path}.well_mixed.n must be at least 1, got {values['n']}")
        if values["k_avg"] < 0:
            raise ConfigError(
                f"{path}.well_mixed.k_avg must be non-negative, got {values['k_avg']}")
    return getattr(NetworkSource, kind)(**values)


def parse_intervention_block(block: dict, path: str = "intervention") -> InterventionSpec:
    """One scheduled measure: `t` and `action`, with `cap` or `target` and a `seed`."""
    _check_keys(block, {"t", "action", "cap", "target", "seed"}, path)
    try:
        return InterventionSpec(
            trigger_time=_field(block, "t", float, path),
            action=_field(block, "action", str, path),
            cap=_field(block, "cap", int, path, None),
            target=_field(block, "target", float, path, None),
            seed=_field(block, "seed", int, path, 0),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved single-run configuration."""

    network: NetworkSource
    beta: float
    gamma: float
    alpha: float
    initial_infected: int | float
    seed: int
    t_max: float
    engine: str = "gillespie"
    dt: float = 0.01
    interventions: tuple[InterventionSpec, ...] = ()
    trajectory_path: Optional[str] = None
    summary_path: Optional[str] = None

    def to_dict(self) -> dict:
        init: dict = {"seed": self.seed}
        if isinstance(self.initial_infected, float):
            init["fraction"] = self.initial_infected
        else:
            init["count"] = self.initial_infected
        out: dict = {
            "network": self.network.to_dict(),
            "rates": {"beta": self.beta, "gamma": self.gamma, "alpha": self.alpha},
            "init": init,
            "t_max": self.t_max,
            "engine": self.engine,
            "dt": self.dt,
            "interventions": [iv.to_dict() for iv in self.interventions],
        }
        paths = {"trajectory": self.trajectory_path, "summary": self.summary_path}
        if any(paths.values()):
            out["output"] = {key: path for key, path in paths.items() if path}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a single-run JSON config; defaults are resolved."""
    doc = _load(
        text, "config",
        {"network", "rates", "init", "t_max", "engine", "dt", "interventions", "output"},
    )
    network = parse_network_block(_field(doc, "network", dict, "config"))

    rates = _check_keys(_field(doc, "rates", dict, "config"), {"beta", "gamma", "alpha"}, "rates")
    init = _check_keys(_field(doc, "init", dict, "config"), {"fraction", "count", "seed"}, "init")
    if ("fraction" in init) == ("count" in init):
        raise ConfigError("init must give exactly one of 'fraction' or 'count'")
    initial: int | float = (
        _field(init, "fraction", float, "init") if "fraction" in init
        else _field(init, "count", int, "init")
    )
    seed = _field(init, "seed", int, "init")
    if seed < 0:
        raise ConfigError(f"init.seed must be >= 0, got {seed}")

    engine = _field(doc, "engine", str, "config", "gillespie")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine in ("abm", "ode") and network.kind != "well_mixed":
        raise ConfigError(f"engine {engine!r} requires a well_mixed network block")

    interventions = tuple(
        parse_intervention_block(d, f"interventions[{i}]")
        for i, d in enumerate(_field(doc, "interventions", list, "config", []))
    )
    if interventions and engine != "gillespie":
        raise ConfigError("interventions are only supported by the gillespie engine")

    output = _check_keys(_field(doc, "output", dict, "config", {}), {"trajectory", "summary"}, "output")

    cfg = RunConfig(
        network=network,
        beta=_field(rates, "beta", float, "rates"),
        gamma=_field(rates, "gamma", float, "rates"),
        alpha=_field(rates, "alpha", float, "rates", 0.0),
        initial_infected=initial,
        seed=seed,
        t_max=_positive(_field(doc, "t_max", float, "config"), "t_max"),
        engine=engine,
        dt=_positive(_field(doc, "dt", float, "config", 0.01), "dt"),
        interventions=interventions,
        trajectory_path=_field(output, "trajectory", str, "output", None),
        summary_path=_field(output, "summary", str, "output", None),
    )
    if engine == "abm" and cfg.gamma > 1.0:  # the ABM's per-step recovery probability
        raise ConfigError(f"rates.gamma must be at most 1 under the abm engine, got {cfg.gamma}")
    return cfg


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a sweep-spec JSON document into a SweepSpec.

    Only the keys the document gives are passed on, so SweepSpec's own
    defaults apply to the rest.
    """
    fields = dataclasses.fields(SweepSpec)
    doc = _load(text, "sweep", {f.name for f in fields})
    spec: dict = {
        "networks": [
            parse_network_block(b, f"networks[{i}]")
            for i, b in enumerate(_field(doc, "networks", list, "sweep"))
        ],
        "betas": [
            _coerce(b, float, f"sweep.betas[{i}]")
            for i, b in enumerate(_field(doc, "betas", list, "sweep"))
        ],
    }
    if doc.get("intervention") is not None:
        spec["intervention"] = parse_intervention_block(doc["intervention"], "sweep.intervention")
    for f in fields:
        if f.name not in spec and doc.get(f.name) is not None:
            # Scalars take their default's type; measure_from (default None) is a time.
            typ = float if f.default is None else type(f.default)
            spec[f.name] = _field(doc, f.name, typ, "sweep")
    if "t_max" in spec:
        _positive(spec["t_max"], "sweep.t_max")
    return SweepSpec(**spec)
