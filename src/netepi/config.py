"""JSON run-configuration parsing and validation.

Every block is declared once, as a table of its fields, and read by one
reader, `_read`, which checks every value against its type. A value of the
wrong type, a non-finite number, an unknown key or a block that is not an
object is a ConfigError; a missing or null optional field takes its default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .dynamics import RateParams, resolve_infected_count
from .errors import ConfigError, ParameterError
from .experiments import NETWORK_FIELDS, NetworkSource, SweepSpec
from .interventions import InterventionSpec
from .ode import DEFAULT_DT

ENGINES = ("gillespie", "ode")

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


def _read(block, fields: dict, path: str) -> dict:
    """Every field of `block` as `fields` declares it: each key maps to its
    type, or to (type, default) if it is optional. A block that is not an
    object, an unknown key or a missing required field is a ConfigError."""
    _coerce(block, dict, path)
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) under {path}: {sorted(unknown)}")
    values = {}
    for key, spec in fields.items():
        typ, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
        if block.get(key) is not None:
            values[key] = _coerce(block[key], typ, f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field {path}.{key}")
        else:
            values[key] = default
    return values


def _positive(value: float, where: str) -> float:
    if value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    return value


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def parse_network_block(block: dict, path: str = "network") -> NetworkSource:
    """One of er/ws/ba/edge_list/well_mixed; exactly one source allowed."""
    _read(block, dict.fromkeys(NETWORK_FIELDS, (dict, None)), path)
    if len(block) != 1:
        raise ConfigError(f"{path} must name exactly one source, got {sorted(block) or 'none'}")
    ((kind, inner),) = block.items()
    values = _read(inner, NETWORK_FIELDS[kind], f"{path}.{kind}")
    if kind == "well_mixed":  # the other sources check their ranges as they build
        if values["n"] < 1:
            raise ConfigError(f"{path}.well_mixed.n must be at least 1, got {values['n']}")
        if values["k_avg"] < 0:
            raise ConfigError(
                f"{path}.well_mixed.k_avg must be non-negative, got {values['k_avg']}")
    return getattr(NetworkSource, kind)(**values)


def parse_intervention_block(block: dict, path: str = "intervention") -> InterventionSpec:
    """One scheduled measure: `t` and `action`, with `cap` or `target` and a `seed`."""
    # In the order of InterventionSpec's fields; `t` is its trigger_time.
    values = _read(block, {"t": float, "action": str, "cap": (int, None),
                           "target": (float, None), "seed": (int, 0)}, path)
    try:
        return InterventionSpec(*values.values())
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved single-run configuration, each block as it was read."""

    network: NetworkSource
    rates: RateParams
    init: dict  # "seed", then "fraction" or "count"
    t_max: float
    engine: str
    dt: float
    interventions: tuple[InterventionSpec, ...]
    output: dict  # only the paths given: "trajectory", "summary"

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out.update(network=self.network.to_dict(), rates=dataclasses.asdict(self.rates),
                   interventions=[iv.to_dict() for iv in self.interventions])
        if not self.output:
            del out["output"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a single-run JSON config; defaults are resolved."""
    doc = _read(_load(text), {
        "network": dict, "rates": dict, "init": dict, "t_max": float,
        "engine": (str, "gillespie"), "dt": (float, DEFAULT_DT),
        "interventions": (list, []), "output": (dict, {}),
    }, "config")
    network = parse_network_block(doc["network"])
    rates = _read(doc["rates"], {"beta": float, "gamma": float, "alpha": (float, 0.0)}, "rates")
    init = doc["init"]  # an object: checked with the top level
    if (init.get("fraction") is None) == (init.get("count") is None):
        raise ConfigError("init must give exactly one of 'fraction' or 'count'")
    init = _read(init, {"fraction": (float, None), "count": (int, None), "seed": int}, "init")
    if init["seed"] < 0:
        raise ConfigError(f"init.seed must be >= 0, got {init['seed']}")
    given = "count" if init["fraction"] is None else "fraction"
    init = {"seed": init["seed"], given: init[given]}
    if network.kind == "well_mixed":  # a graph's n is known only once it is built
        try:
            resolve_infected_count(network.n, init[given])
        except ParameterError as exc:
            raise ConfigError(f"init: {exc}") from exc

    engine = doc["engine"]
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "ode" and network.kind != "well_mixed":
        raise ConfigError(f"engine {engine!r} requires a well_mixed network block")

    interventions = tuple(parse_intervention_block(d, f"interventions[{i}]")
                          for i, d in enumerate(doc["interventions"]))
    if interventions and (engine != "gillespie" or network.kind == "well_mixed"):
        raise ConfigError("interventions need the gillespie engine on a network with a graph")

    output = _read(doc["output"], {"trajectory": (str, None), "summary": (str, None)}, "output")
    output = {key: path for key, path in output.items() if path}
    if engine == "ode" and "summary" in output:
        raise ConfigError("output.summary: the ode engine writes no summary")
    t_max, dt = _positive(doc["t_max"], "t_max"), _positive(doc["dt"], "dt")
    return RunConfig(network=network, rates=RateParams(**rates), init=init, t_max=t_max,
                     engine=engine, dt=dt, interventions=interventions, output=output)


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a sweep-spec JSON document into a SweepSpec.

    Each scalar field takes its default's type and default; measure_from
    (default None) is a time.
    """
    fields = {f.name: (float if f.default is None else type(f.default), f.default)
              for f in dataclasses.fields(SweepSpec)}
    fields.update(networks=list, betas=list, intervention=(dict, None))
    spec = _read(_load(text), fields, "sweep")
    spec["networks"] = [parse_network_block(b, f"sweep.networks[{i}]")
                        for i, b in enumerate(spec["networks"])]
    spec["betas"] = [_coerce(b, float, f"sweep.betas[{i}]") for i, b in enumerate(spec["betas"])]
    if spec["intervention"] is not None:
        spec["intervention"] = parse_intervention_block(spec["intervention"], "sweep.intervention")
    _positive(spec["t_max"], "sweep.t_max")
    return SweepSpec(**spec)
