"""Configuration defaults, validation, file parsing, and round trips."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from lidarmaps.config import (
    OUTPUT_NAMES,
    PipelineConfig,
    _check_finite,
    _check_positive,
    apply_overrides,
    load_config,
    parse_config,
    serialize_config,
)
from lidarmaps.errors import ConfigError
from lidarmaps.extract import ExtractParams
from lidarmaps.grid import GridSpec
from lidarmaps.hydro import WaterParams


def test_robust_defaults():
    cfg = PipelineConfig()
    assert (cfg.gsd, cfg.ht, cfg.k1, cfg.k2, cfg.rt, cfg.dt, cfg.k3) == (
        0.5,
        1.5,
        7,
        5,
        4,
        0.1,
        5,
    )
    assert cfg.kernel_shape == "square"
    assert cfg.slope_threshold == 1.0
    assert (cfg.water_window, cfg.water_sigma_k) == (9, 2.0)
    assert (cfg.water_min_area, cfg.water_buffer) == (1000.0, 5.0)
    assert (cfg.window_size_m, cfg.overlap_m) == (1000.0, 100.0)
    assert cfg.median_roof == 0
    assert cfg.outputs == ("map2d", "map3d")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gsd": 0.0},
        {"gsd": -0.5},
        {"ht": 0.0},
        {"k1": 6},
        {"k2": 0},
        {"k3": -3},
        {"rt": 0},
        {"dt": 1.2},
        {"dt": -0.01},
        {"kernel_shape": "circle"},
        {"median_roof": 4},
        {"map3d_source": "raw"},
        {"water_window": 8},
        {"water_sigma_k": 0.0},
        {"water_min_area": -1.0},
        {"window_size_m": 0.0},
        {"outputs": ("map2d", "shadow")},
        {"overlap_m": float("nan")},
        {"overlap_m": float("inf")},
        {"overlap_m": "50"},
        {"dt": "0.1"},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize(
    "owner, key, bad",
    [
        (ExtractParams, "ht", 0.0),
        (ExtractParams, "ht", math.nan),
        (ExtractParams, "ht", math.inf),
        (ExtractParams, "k1", 4),
        (ExtractParams, "k2", 0),
        (ExtractParams, "k3", -3),
        (ExtractParams, "rt", 0),
        (ExtractParams, "dt", 1.5),
        (ExtractParams, "dt", "0.1"),
        (ExtractParams, "kernel_shape", "disc"),
        (ExtractParams, "median_roof", 2),
        (ExtractParams, "map3d_source", "dtm"),
        (WaterParams, "water_window", 4),
        (WaterParams, "water_sigma_k", math.nan),
        (WaterParams, "water_min_area", -1.0),
        (WaterParams, "water_buffer", math.nan),
        (WaterParams, "water_buffer", -1.0),
    ],
)
def test_each_setting_has_one_validator(owner, key, bad):
    field = key.removeprefix("water_") if owner is WaterParams else key
    with pytest.raises(ConfigError) as owned:
        owner(**{field: bad})
    with pytest.raises(ConfigError) as configured:
        PipelineConfig(**{key: bad})
    assert str(configured.value) == str(owned.value)


def test_parameter_views_have_the_owners_defaults():
    assert PipelineConfig().extract_params() == ExtractParams()
    assert PipelineConfig().water_params() == WaterParams()


def test_zero_water_buffer_is_valid():
    assert PipelineConfig(water_buffer=0).water_params().buffer == 0


def test_overlap_must_cover_stage_support():
    # (k1 + water_window) * gsd = (7 + 9) * 0.5 = 8 m
    assert PipelineConfig(overlap_m=8.0).overlap_m == 8.0
    with pytest.raises(ConfigError):
        PipelineConfig(overlap_m=7.9)
    with pytest.raises(ConfigError):
        PipelineConfig(overlap_m=100.0, gsd=10.0)  # support grows with gsd


def test_outputs_canonicalized():
    cfg = PipelineConfig(outputs=("diff", "map2d", "dsm"))
    assert cfg.outputs == ("map2d", "dsm", "diff")
    assert PipelineConfig(outputs=OUTPUT_NAMES).outputs == OUTPUT_NAMES


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # experiment 12
        ht = 2.0
        k1=9   # wider opening
        outputs = diff, map2d
        """
    )
    assert cfg.ht == 2.0 and cfg.k1 == 9
    assert cfg.outputs == ("map2d", "diff")
    assert cfg.k2 == 5  # untouched default


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        parse_config("mystery=1\n")
    with pytest.raises(ConfigError):
        parse_config("just a line\n")
    with pytest.raises(ConfigError):
        parse_config("k1=seven\n")


def test_parse_validates_result():
    with pytest.raises(ConfigError):
        parse_config("k1=6\n")


NUMERIC_KEYS = [f.name for f in fields(PipelineConfig) if type(f.default) in (int, float)]


@pytest.mark.parametrize(
    "key, bad",
    [(key, True) for key in NUMERIC_KEYS]
    + [("median_roof", False), ("median_roof", 0.0), ("water_buffer", False)],
)
def test_bools_rejected(key, bad):
    # True is an int to isinstance; a setting that took it would be written
    # to config.txt as `key=True` (and median_roof=0.0 as `0.0`), which
    # parse_config cannot read back.
    with pytest.raises(ConfigError, match=f"^{key} "):
        PipelineConfig(**{key: bad})
    with pytest.raises(ConfigError):
        parse_config(f"{key}={bad}\n")


@pytest.mark.parametrize(
    "value, valid",
    [
        # An int too large for a float64 has no finite float64 value.
        (10**400, False),
        (-(10**400), False),
        (np.float32("nan"), False),
        (np.float64("inf"), False),
        (True, False),
        (np.int64(5), True),
        (5, True),
        (1.5, True),
    ],
    ids=["huge_int", "huge_negative_int", "float32_nan", "float64_inf", "bool", "int64", "int",
         "float"],
)
def test_finite_and_positive_validators(value, valid):
    """The two real-number validators accept a value iff it is a non-bool
    real with a finite float64 value (and above zero, for positive); every
    other value raises ConfigError, never another error."""
    checks = [
        lambda: _check_finite(value, "x"),
        lambda: _check_positive(value, "x"),
        lambda: GridSpec(value, 0.0, 1.0, 2, 2),
        lambda: GridSpec(0.0, 0.0, value, 2, 2),
    ]
    for check in checks:
        if valid:
            check()
        else:
            with pytest.raises(ConfigError):
                check()
    # overlap_m is checked for finiteness before the stage support.
    if not valid:
        with pytest.raises(ConfigError, match="^overlap_m must be a finite number"):
            PipelineConfig(overlap_m=value)


def test_serialize_parse_round_trip():
    cfg = PipelineConfig(ht=2.25, k1=9, dt=0.3, outputs=("ndhm", "map2d"))
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gsd=1.0\noverlap_m=50\n")
    cfg = load_config(str(path))
    assert cfg.gsd == 1.0 and cfg.overlap_m == 50.0
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))


def test_overrides_skip_none_and_revalidate():
    cfg = PipelineConfig()
    same = apply_overrides(cfg, {"ht": None, "k1": None})
    assert same == cfg
    changed = apply_overrides(cfg, {"ht": 2.0, "k1": None})
    assert changed.ht == 2.0 and changed.k1 == 7
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"k1": 4})


def test_parameter_views_match():
    cfg = PipelineConfig(ht=2.0, k1=9, median_roof=3, water_buffer=2.0)
    ep = cfg.extract_params()
    assert (ep.ht, ep.k1, ep.median_roof) == (2.0, 9, 3)
    wp = cfg.water_params()
    assert (wp.window, wp.sigma_k, wp.min_area, wp.buffer) == (9, 2.0, 1000.0, 2.0)
