import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab import config
from pinlab.config import (
    ConfigError,
    ModelBlock,
    RunConfig,
    load_config,
    save_config,
)
from pinlab.theorems import CHECK_IDS, CheckContext


def test_defaults_validate_and_build():
    cfg = RunConfig()
    cfg.validate()
    law = cfg.law()
    assert law.n_max == 512
    # alpha = 1: p(2t) / p(t) = 2^-(alpha+1)
    assert law.log_p[2] - law.log_p[1] == pytest.approx(-2.0 * math.log(2.0))
    assert cfg.disorder_law().family == "gaussian"


def test_dict_round_trip_is_lossless():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # and the dict form is pure JSON
    json.dumps(cfg.to_dict())


def test_file_round_trip(tmp_path):
    cfg = RunConfig()
    p = tmp_path / "cfg.json"
    save_config(cfg, str(p))
    assert load_config(str(p)) == cfg
    # all defaults are expanded on disk
    data = json.loads(p.read_text())
    assert set(data) == {"model", "disorder", "grids", "run", "checks"}
    assert data["run"]["samples"] == 200


def test_partial_configs_inherit_defaults():
    cfg = RunConfig.from_dict({"run": {"samples": 50}})
    assert cfg.run.samples == 50
    assert cfg.model.kind == "power"
    assert RunConfig.from_dict({}) == RunConfig()


def test_model_kinds():
    geom = RunConfig.from_dict(
        {"model": {"kind": "geometric", "n_max": 64},
         "grids": {"n_values": [16, 32, 64]}}).law()
    assert math.exp(geom.log_p[3]) == pytest.approx(0.125)
    table = RunConfig.from_dict(
        {"model": {"kind": "table", "table": [0.5, 0.25], "n_max": 2},
         "grids": {"n_values": [2], "window": 16}}).law()
    assert math.exp(table.log_p[1]) == 0.5 and table.n_max == 2


def test_unknown_block_and_field_anchors():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"modle": {}})
    assert err.value.anchor == "modle"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"model": {"alpha": 1.0, "bogus": 3}})
    assert err.value.anchor == "model.bogus"
    assert "alpha" in err.value.message  # lists the known fields


@pytest.mark.parametrize("patch,anchor", [
    ({"model": {"alpha": 0.5}}, "model.alpha"),
    ({"model": {"kind": "spectral"}}, "model.kind"),
    ({"model": {"kind": "table", "table": [0.5]}}, "model.table"),
    ({"disorder": {"family": "cauchy"}}, "disorder.family"),
    ({"disorder": {"param": -1.0}}, "disorder.param"),
    ({"grids": {"n_values": [64, 32]}}, "grids.n_values"),
    ({"grids": {"n_values": [32, 32]}}, "grids.n_values"),
    ({"grids": {"window": 4}}, "grids.window"),
    ({"grids": {"r_max": 1}}, "grids.r_max"),
    ({"run": {"samples": 1}}, "run.samples"),
    ({"run": {"jet_order": 8}}, "run.jet_order"),  # removed field
    ({"checks": {"ids": ["C1", "C99"]}}, "checks.ids"),
    ({"grids": {"n_values": [64, 999]}}, "grids.n_values"),  # beyond horizon
    # a table law's horizon is its length, not model.n_max
    ({"model": {"kind": "table", "table": [0.5, 0.25]}}, "grids.n_values"),
    # a repeated h would run (and write) each of its cells twice
    ({"grids": {"h_values": [2.0, 2.0]}}, "grids.h_values"),
])
def test_validation_anchors(patch, anchor):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(patch)
    assert err.value.anchor == anchor


@pytest.mark.parametrize("block,field,value", [
    ("run", "samples", 200.7),
    ("run", "samples", "200"),
    ("run", "samples", 200.0),
    ("run", "master_seed", 1.5),
    ("run", "master_seed", 2 ** 64),
    ("run", "threads", True),
    ("run", "threads", 0),
    ("grids", "window", 16.9),
    ("grids", "r_max", 6.5),
    ("grids", "r_max", False),
    ("model", "n_max", 512.5),
    ("model", "n_max", None),
    ("grids", "n_values", [64.0, 128]),
    ("model", "table", [0.5, True, 0.125]),
])
def test_integer_fields_reject_non_integers(tmp_path, block, field, value):
    raw = {block: {field: value}}
    if field == "table":
        raw["model"]["kind"] = "table"  # after "table", so its line is 3
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    assert err.value.anchor == f"{block}.{field}"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw, indent=2))
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    # path:line: block.field: why, the line being the field's own
    assert str(err.value).startswith(f"{p}:3: {block}.{field}: must ")


def test_load_errors_carry_path_and_line(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError) as err:
        load_config(str(missing))
    assert "cannot read config" in str(err.value)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{\n  "model": {,}\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(bad_json))
    assert err.value.line == 2 and "not valid JSON" in err.value.message

    bad_field = tmp_path / "field.json"
    bad_field.write_text(json.dumps(
        {"model": {"alpha": 0.25}}, indent=2))
    with pytest.raises(ConfigError) as err:
        load_config(str(bad_field))
    rendered = str(err.value)
    assert rendered.startswith(str(bad_field))
    assert "model.alpha" in rendered and "alpha < 1" in rendered
    assert err.value.line is not None  # points at the "alpha" line


def test_mc_config_mapping():
    cfg = RunConfig.from_dict({
        "grids": {"h_values": [1.0, 2.0], "n_values": [16, 32], "window": 16},
        "run": {"samples": 10, "master_seed": 7, "threads": 2},
        "model": {"n_max": 32},
    })
    mc_cfg = cfg.mc_config()
    assert mc_cfg.h_values == (1.0, 2.0)
    assert mc_cfg.n_values == (16, 32)
    assert mc_cfg.samples == 10 and mc_cfg.master_seed == 7
    assert mc_cfg.window == 16
    # threads is accepted and kept in the config, and reaches no estimator
    assert cfg.to_dict()["run"]["threads"] == 2
    assert "threads" not in {f.name for f in dataclasses.fields(mc_cfg)}


def test_check_context_mapping(monkeypatch):
    cfg = RunConfig.from_dict({
        "model": {"n_max": 256},
        "grids": {"h_values": [1.5, 2.5], "n_values": [32, 64], "window": 32},
        "run": {"samples": 8},
    })
    ctx = cfg.check_context()
    assert ctx.h == 2.5  # defaults to the largest grid point
    assert ctx.clt_n_values == (128, 256)  # clipped at the horizon
    assert ctx.excursion_n_values == (64, 128, 256)
    assert ctx.mc.window == 32  # the C7 fit range follows from the window
    explicit = RunConfig.from_dict({"checks": {"h": 1.25}})
    assert explicit.check_context().h == 1.25
    # every CheckContext field is one a config sets: no test-only knob
    fields = {f.name for f in dataclasses.fields(CheckContext)}
    assert fields == {"mc", "h", "h_grid", "u_values", "clt_n_values",
                      "excursion_n_values", "hl_n_max", "r_max"}
    set_by_config = {}

    def recording(**kw):
        set_by_config.update(kw)
        return CheckContext(**kw)

    monkeypatch.setattr(config, "CheckContext", recording)
    cfg.check_context()
    assert set(set_by_config) == fields


def test_checks_block_defaults_to_all():
    assert RunConfig().checks.ids == CHECK_IDS


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=500),
       st.integers(min_value=0, max_value=2 ** 63),
       st.sampled_from(["zero", "gaussian", "uniform_centered", "rademacher",
                        "shifted_exponential"]))
def test_random_configs_round_trip(samples, seed, family):
    cfg = RunConfig.from_dict({
        "run": {"samples": samples, "master_seed": seed},
        "disorder": {"family": family, "param": 0.5},
    })
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
