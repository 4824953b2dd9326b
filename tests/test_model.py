"""Model value objects, validation, and configuration loading."""

import json

import pytest

from slipflow.cli import (
    ENV_PREFIX,
    ConfigError,
    apply_env_overrides,
    channel_from_config,
    load_config,
)
from slipflow.model import (
    ChannelConfig,
    LatticeSweep,
    ModeProblem,
    SlipPair,
    ValidationError,
)


def test_slip_pair_accepts_one_inert_wall():
    pair = SlipPair(0.0, 1.0)
    assert pair.total == 1.0


def test_slip_pair_allows_both_walls_inert():
    assert SlipPair(0.0, 0.0).total == 0.0


def test_slip_pair_rejects_bad_values():
    with pytest.raises(ValidationError):
        SlipPair(-0.1, 1.0)
    with pytest.raises(ValidationError):
        SlipPair(1.0, float("nan"))
    with pytest.raises(ValidationError):
        SlipPair(1.0, float("inf"))


def test_channel_config_validation():
    with pytest.raises(ValidationError):
        ChannelConfig(L=0.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    with pytest.raises(ValidationError):
        ChannelConfig(L=1.0, mu=-1.0, slip=SlipPair(1.0, 1.0))


def test_wavenumber_lattice():
    sweep = LatticeSweep(L=2.0, mu=0.5, slip=SlipPair(1.0, 1.0), n_max=4)
    assert sweep.problem(3).k == 1.5
    with pytest.raises(ValidationError):
        sweep.problem(0)


def test_mode_problem_from_config():
    slip = SlipPair(0.5, 1.5)
    problem = LatticeSweep(L=2.0, mu=0.3, slip=slip, n_max=4).problem(4)
    assert problem.k == 2.0
    assert problem.mu == 0.3
    assert problem.slip == slip


def test_mode_problem_validation():
    with pytest.raises(ValidationError):
        ModeProblem(k=0.0, mu=0.5, slip=SlipPair(1.0, 1.0))
    with pytest.raises(ValidationError):
        ModeProblem(k=1.0, mu=0.0, slip=SlipPair(1.0, 1.0))


def test_lattice_sweep():
    sweep = LatticeSweep(L=0.5, mu=0.2, slip=SlipPair(1.0, 1.0), n_max=4)
    assert [sweep.problem(n).k for n in range(1, 5)] == [2.0, 4.0, 6.0, 8.0]
    with pytest.raises(ValidationError):
        sweep.problem(5)
    with pytest.raises(ValidationError):
        LatticeSweep(L=1.0, mu=0.2, slip=SlipPair(1.0, 1.0), n_max=0)


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "period_length": 2.0,
        "viscosity": 0.25,
        "slip": {"xi_minus": 0.5, "xi_plus": 1.5},
    }))
    channel = channel_from_config(load_config(path))
    assert channel.L == 2.0
    assert channel.mu == 0.25
    assert channel.slip == SlipPair(0.5, 1.5)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_env_overrides_scalar_and_nested():
    raw = {
        "period_length": 1.0,
        "viscosity": 0.5,
        "slip": {"xi_minus": 1.0, "xi_plus": 1.0},
    }
    env = {ENV_PREFIX + "VISCOSITY": "0.25", ENV_PREFIX + "SLIP__XI_PLUS": "2"}
    out = apply_env_overrides(raw, env)
    assert out["viscosity"] == 0.25
    assert out["slip"]["xi_plus"] == 2
    assert out["slip"]["xi_minus"] == 1.0
    assert raw["viscosity"] == 0.5  # input untouched


def test_env_overrides_create_missing_section():
    out = apply_env_overrides({}, {ENV_PREFIX + "SIM__DT": "0.001"})
    assert out["sim"]["dt"] == 0.001


def test_env_overrides_match_keys_in_any_case():
    out = apply_env_overrides({}, {ENV_PREFIX + "SIM__M": "6"})
    assert out["sim"] == {"m": 6}
    raw = {"sim": {"M": 32, "dt": 0.1}}
    env = {ENV_PREFIX + "SIM__M": "6", ENV_PREFIX + "SIM__DT": "0.01"}
    assert apply_env_overrides(raw, env)["sim"] == {"M": 6, "dt": 0.01}


def test_env_overrides_malformed_name():
    with pytest.raises(ConfigError):
        apply_env_overrides({}, {ENV_PREFIX + "SLIP__": "1"})


def test_env_overrides_scalar_section_conflict():
    with pytest.raises(ConfigError):
        apply_env_overrides({"slip": 3.0}, {ENV_PREFIX + "SLIP__XI_PLUS": "1"})


def test_channel_from_config_errors():
    good_slip = {"xi_minus": 1.0, "xi_plus": 1.0}
    with pytest.raises(ConfigError):
        channel_from_config({"viscosity": 0.5, "slip": good_slip})
    with pytest.raises(ConfigError):
        channel_from_config({
            "period_length": 1.0, "viscosity": "fast", "slip": good_slip,
        })
    with pytest.raises(ConfigError):
        channel_from_config({"period_length": 1.0, "viscosity": 0.5})
    with pytest.raises(ConfigError):
        channel_from_config({
            "period_length": 1.0,
            "viscosity": 0.5,
            "slip": {"xi_minus": -1.0, "xi_plus": 1.0},
        })


def test_channel_from_config_rejects_boolean_numbers():
    with pytest.raises(ConfigError):
        channel_from_config({
            "period_length": True,
            "viscosity": 0.5,
            "slip": {"xi_minus": 1.0, "xi_plus": 1.0},
        })
