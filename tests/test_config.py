import dataclasses
import json
import re

import pytest

from netepi.config import parse_config, parse_network_block, parse_sweep_config
from netepi.dynamics import RateParams
from netepi.errors import ConfigError, ParameterError
from netepi.experiments import NetworkSource, SweepSpec
from netepi.interventions import InterventionSpec

MINIMAL = {
    "network": {"er": {"n": 100, "p": 0.1}},
    "rates": {"beta": 0.2, "gamma": 1.0},
    "init": {"fraction": 0.01, "seed": 42},
    "t_max": 10.0,
}


def minimal(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


class TestParseNetworkBlock:
    def test_er(self):
        src = parse_network_block({"er": {"n": 100, "p": 0.1}})
        assert (src.kind, src.n, src.p) == ("er", 100, 0.1)

    def test_well_mixed(self):
        src = parse_network_block({"well_mixed": {"n": 500, "k_avg": 10}})
        assert (src.kind, src.k_avg) == ("well_mixed", 10.0)
        edge = parse_network_block({"well_mixed": {"n": 1, "k_avg": 0}})  # the ranges' ends
        assert (edge.n, edge.k_avg) == (1, 0.0)

    def test_two_sources_rejected(self):
        with pytest.raises(ConfigError):
            parse_network_block({"er": {"n": 10, "p": 0.1}, "ba": {"n": 10, "m": 2}})

    def test_no_source_rejected(self):
        with pytest.raises(ConfigError):
            parse_network_block({})

    def test_unknown_inner_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_network_block({"er": {"n": 10, "p": 0.1, "rho": 1}})
        assert "rho" in str(err.value)

    def test_missing_required_field(self):
        with pytest.raises(ConfigError) as err:
            parse_network_block({"ws": {"n": 10, "k": 4}})
        assert "p_rewire" in str(err.value)

    @pytest.mark.parametrize("src", [
        NetworkSource.er(30, 0.2),
        NetworkSource.ws(30, 4, 0.1),
        NetworkSource.ba(30, 2),
        NetworkSource.edge_list("g.txt", compact_ids=True),
        NetworkSource.well_mixed(30, 5.0),
    ])
    def test_round_trip_every_kind(self, src):
        assert parse_network_block(src.to_dict()) == src

    def test_optional_field_defaults(self):
        assert parse_network_block({"edge_list": {"path": "g.txt"}}).compact_ids is False
        assert parse_network_block({"edge_list": {"path": "g.txt", "compact_ids": None}}) == (
            NetworkSource.edge_list("g.txt")
        )

    def test_wrong_type_named(self):
        with pytest.raises(ConfigError) as err:
            parse_network_block({"er": {"n": "fifty", "p": 0.1}})
        assert "network.er.n" in str(err.value)

    @pytest.mark.parametrize("inner, field", [
        ({"n": 0, "k_avg": 10}, "network.well_mixed.n"),
        ({"n": -3, "k_avg": 10}, "network.well_mixed.n"),
        ({"n": 100, "k_avg": -5}, "network.well_mixed.k_avg"),
    ])
    def test_well_mixed_range_named(self, inner, field):
        with pytest.raises(ConfigError) as err:
            parse_network_block({"well_mixed": inner})
        assert field in str(err.value)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.rates == RateParams(0.2, 1.0, 0.0)
        assert cfg.engine == "gillespie"
        assert cfg.dt == 0.01
        assert cfg.interventions == ()
        assert cfg.init == {"seed": 42, "fraction": 0.01}
        assert cfg.output == {}

    def test_count_init(self):
        cfg = parse_config(minimal(init={"count": 5, "seed": 1}))
        assert list(cfg.init.items()) == [("seed", 1), ("count", 5)]
        assert isinstance(cfg.init["count"], int)

    def test_fraction_and_count_conflict(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(init={"fraction": 0.01, "count": 5, "seed": 1}))

    def test_neither_fraction_nor_count(self):
        with pytest.raises(ConfigError):
            parse_config(minimal(init={"seed": 1}))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal(extra=1))
        assert "extra" in str(err.value)

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_unknown_engine(self):
        # "abm" names a discrete-time agent-based model, which has no contact structure.
        well_mixed = {"well_mixed": {"n": 100, "k_avg": 10}}
        for engine in ("euler", "abm"):
            message = f"engine must be one of ('gillespie', 'ode'), got '{engine}'"
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(minimal(engine=engine, network=well_mixed))

    def test_ode_requires_well_mixed(self):
        # On a graph, k_avg would be 0 and the ODE would never leave its start.
        with pytest.raises(ConfigError, match="requires a well_mixed"):
            parse_config(minimal(engine="ode"))
        cfg = parse_config(
            minimal(engine="ode", network={"well_mixed": {"n": 100, "k_avg": 10}})
        )
        assert cfg.engine == "ode"

    def test_interventions_gillespie_only(self):
        iv = [{"t": 1.0, "action": "degree_cap", "cap": 3}]
        cfg = parse_config(minimal(interventions=iv))
        assert cfg.interventions[0].cap == 3
        with pytest.raises(ConfigError):
            parse_config(
                minimal(
                    engine="ode",
                    network={"well_mixed": {"n": 100, "k_avg": 10}},
                    interventions=iv,
                )
            )
        # A well-mixed gillespie run has no graph to transform.
        with pytest.raises(ConfigError, match="interventions need the gillespie engine"):
            parse_config(minimal(network={"well_mixed": {"n": 100, "k_avg": 10}},
                                 interventions=iv))

    @pytest.mark.parametrize("engine", ["gillespie", "ode"])
    @pytest.mark.parametrize("init, message", [
        ({"count": 0}, "count must be in 1..100, got 0"),
        ({"count": 101}, "count must be in 1..100, got 101"),
        ({"fraction": 0.0}, "fraction must be in (0, 1], got 0.0"),
        ({"fraction": 1.5}, "fraction must be in (0, 1], got 1.5"),
    ])
    def test_well_mixed_init_checked_at_parse_time(self, engine, init, message):
        doc = minimal(engine=engine, network={"well_mixed": {"n": 100, "k_avg": 10}},
                      init={**init, "seed": 1})
        with pytest.raises(ConfigError, match=re.escape(f"init: initial infected {message}")):
            parse_config(doc)

    def test_round_trip_idempotent(self):
        cfg = parse_config(minimal(engine="gillespie", output={"trajectory": "out.csv"}))
        again = parse_config(cfg.to_json())
        assert again == cfg

    def test_output_paths(self):
        cfg = parse_config(minimal(output={"trajectory": "a.csv", "summary": "b.json"}))
        assert cfg.output == {"trajectory": "a.csv", "summary": "b.json"}
        assert parse_config(minimal(output={"summary": "b.json"})).output == {"summary": "b.json"}

    def test_negative_rate_rejected_after_every_other_error(self):
        with pytest.raises(ParameterError, match="rates must be finite and non-negative"):
            parse_config(minimal(rates={"beta": -0.1, "gamma": 1.0}))
        with pytest.raises(ConfigError, match="engine must be one of"):
            parse_config(minimal(rates={"beta": -0.1, "gamma": 1.0}, engine="euler"))


class TestParseSweepConfig:
    def test_minimal(self):
        spec = parse_sweep_config(json.dumps({
            "networks": [{"ba": {"n": 100, "m": 3}}],
            "betas": [0.1, 0.2],
        }))
        assert spec.gamma == 1.0
        assert spec.replicates == 50
        assert [s.kind for s in spec.networks] == ["ba"]

    def test_intervention_block(self):
        spec = parse_sweep_config(json.dumps({
            "networks": [{"ba": {"n": 100, "m": 3}}],
            "betas": [0.1],
            "intervention": {"t": 0.5, "action": "thin", "target": 0.01},
            "measure_from": 2.0,
        }))
        assert spec.intervention.action == "thin"
        assert spec.measure_from == 2.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_sweep_config(json.dumps({
                "networks": [{"ba": {"n": 100, "m": 3}}],
                "betas": [0.1],
                "bogus": True,
            }))


FULL = {  # every block of a run config, every optional field given
    "network": {"er": {"n": 100, "p": 0.1}},
    "rates": {"beta": 0.2, "gamma": 1.0, "alpha": 0.1},
    "init": {"fraction": 0.01, "seed": 42},
    "t_max": 10.0,
    "engine": "gillespie",
    "dt": 0.05,
    "interventions": [{"t": 1.0, "action": "degree_cap", "cap": 3, "seed": 2}],
    "output": {"trajectory": "a.csv", "summary": "b.json"},
}
SWEEP = {
    "networks": [{"ba": {"n": 100, "m": 3}}, {"edge_list": {"path": "g.txt", "compact_ids": True}}],
    "betas": [0.1, 0.2],
    "gamma": 0.5,
    "alpha": 0.1,
    "initial_fraction": 0.05,
    "t_max": 12.0,
    "replicates": 3,
    "base_seed": 7,
    "intervention": {"t": 0.5, "action": "thin", "target": 0.01, "seed": 1},
    "measure_from": 2.0,
}


def edited(doc: dict, keys: tuple, key: str, value=None, delete: bool = False) -> str:
    """`doc` as JSON with the block at `keys` given `key: value`, or without `key`."""
    doc = json.loads(json.dumps(doc))
    block = doc
    for k in keys:
        block = block[k]
    if delete:
        del block[key]
    else:
        block[key] = value
    return json.dumps(doc)


class TestOneReader:
    """Every block is read by one reader: the same rules, the same messages."""

    def test_sweep_spec_with_every_field_round_trips(self):
        spec = SweepSpec(
            networks=[NetworkSource.er(30, 0.2), NetworkSource.ws(30, 4, 0.1),
                      NetworkSource.ba(30, 2), NetworkSource.edge_list("g.txt", compact_ids=True),
                      NetworkSource.well_mixed(30, 5.0)],
            betas=[0.0, 0.25], gamma=0.5, alpha=0.1, initial_fraction=0.05, t_max=12.5,
            replicates=3, base_seed=7, measure_from=4.0,
            intervention=InterventionSpec(2.0, "degree_cap", cap=3, seed=4),
        )
        for f in dataclasses.fields(SweepSpec):
            if f.default is not dataclasses.MISSING:
                assert getattr(spec, f.name) != f.default, f.name
        doc = spec.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(SweepSpec)]
        assert parse_sweep_config(json.dumps(doc)) == spec

    @pytest.mark.parametrize("overrides", [
        {},
        {"init": {"count": 3, "seed": 0}, "interventions": [], "output": {"summary": "s.json"}},
        {"engine": "ode", "network": {"well_mixed": {"n": 50, "k_avg": 4.0}},
         "interventions": [], "output": {}},
    ], ids=["gillespie", "gillespie-count", "ode"])
    def test_run_config_round_trips(self, overrides):
        cfg = parse_config(json.dumps({**FULL, **overrides}))
        assert parse_config(cfg.to_json()) == cfg

    @pytest.mark.parametrize("parse, doc, keys, path", [
        (parse_config, FULL, (), "config"),
        (parse_config, FULL, ("network",), "network"),
        (parse_config, FULL, ("network", "er"), "network.er"),
        (parse_config, FULL, ("rates",), "rates"),
        (parse_config, FULL, ("init",), "init"),
        (parse_config, FULL, ("interventions", 0), "interventions[0]"),
        (parse_config, FULL, ("output",), "output"),
        (parse_sweep_config, SWEEP, (), "sweep"),
        (parse_sweep_config, SWEEP, ("networks", 1), "sweep.networks[1]"),
        (parse_sweep_config, SWEEP, ("networks", 1, "edge_list"), "sweep.networks[1].edge_list"),
        (parse_sweep_config, SWEEP, ("intervention",), "sweep.intervention"),
    ])
    def test_unknown_key_named_with_its_path(self, parse, doc, keys, path):
        with pytest.raises(ConfigError) as err:
            parse(edited(doc, keys, "bogus", 1))
        assert str(err.value) == f"unknown key(s) under {path}: ['bogus']"

    @pytest.mark.parametrize("parse, doc, keys, key", [
        (parse_config, FULL, (), "engine"),
        (parse_config, FULL, (), "dt"),
        (parse_config, FULL, (), "interventions"),
        (parse_config, FULL, (), "output"),
        (parse_config, FULL, ("rates",), "alpha"),
        (parse_config, FULL, ("output",), "trajectory"),
        (parse_config, FULL, ("output",), "summary"),
        (parse_config, FULL, ("interventions", 0), "seed"),
        (parse_sweep_config, SWEEP, ("networks", 1, "edge_list"), "compact_ids"),
        (parse_sweep_config, SWEEP, ("intervention",), "seed"),
    ] + [(parse_sweep_config, SWEEP, (), key) for key in SWEEP if key not in ("networks", "betas")])
    def test_null_optional_field_takes_its_default(self, parse, doc, keys, key):
        assert parse(edited(doc, keys, key, None)) == parse(edited(doc, keys, key, delete=True))

    @pytest.mark.parametrize("init, initial", [
        ({"fraction": 0.01, "count": None, "seed": 1}, 0.01),
        ({"fraction": None, "count": 5, "seed": 1}, 5),
    ])
    def test_null_init_field_counts_as_absent(self, init, initial):
        kind = "fraction" if isinstance(initial, float) else "count"
        assert parse_config(minimal(init=init)).init == {"seed": 1, kind: initial}

    @pytest.mark.parametrize("init, message", [
        ({"fraction": None, "seed": 1}, "init must give exactly one of 'fraction' or 'count'"),
        ({"count": None, "seed": 1}, "init must give exactly one of 'fraction' or 'count'"),
        ({"fraction": None, "count": None, "seed": 1},
         "init must give exactly one of 'fraction' or 'count'"),
        ({}, "init must give exactly one of 'fraction' or 'count'"),
    ])
    def test_init_without_a_count_or_fraction(self, init, message):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal(init=init))
        assert str(err.value) == message
