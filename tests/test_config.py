"""Configuration document parsing and validation."""

from dataclasses import fields

import pytest

from sircontrol import ConfigError, ModelParams, ShootingOptions, parse_config
from sircontrol.config import config_lines

MINIMAL = """
# minimal document
beta = 0.01
alpha = 0.1
c1 = 1
c2 = 1
c3 = 10
u1_max = 0.9
u2_max = 0.9
horizon = 10
s0 = 95
i0 = 5
r0 = 0
"""


def test_minimal_document_applies_defaults():
    config = parse_config(MINIMAL)
    assert config.params.n_steps == 2000
    assert config.params.functional == "new"
    assert config.shooting.residual_tol == 1e-10
    assert config.shooting.max_newton_iters == 50
    assert config.alpha_points == 10
    assert (config.oracle_intervals, config.oracle_levels) == (3, 4)


def test_legacy_functional_maps_weights():
    from sircontrol import running_cost

    config = parse_config(MINIMAL + "functional = legacy\n")
    cost = running_cost(config.params)
    assert (cost.a_i, cost.w1, cost.w2) == (1.0, 10.0, 1.0)


def test_inline_comments_and_blank_lines_are_ignored():
    config = parse_config(MINIMAL.replace("beta = 0.01", "beta = 0.01  # per node-day"))
    assert config.params.beta == 0.01


def test_zero_c1_is_rejected_with_field_message():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("c1 = 1", "c1 = 0"))
    assert ("c1", "must be positive") in err.value.problems


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "gamma = 0.3\n")
    assert ("gamma", "unknown key") in err.value.problems


def test_every_violation_is_reported_not_just_the_first():
    text = MINIMAL.replace("c1 = 1", "c1 = 0").replace("horizon = 10", "horizon = -2")
    text += "bogus = 1\nn_steps = nope\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    fields = [field for field, _ in err.value.problems]
    assert "c1" in fields
    assert "horizon" in fields
    assert "bogus" in fields
    assert "n_steps" in fields


def test_missing_required_keys_are_each_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("beta = 0.01\n")
    missing = {field for field, reason in err.value.problems if reason == "required key missing"}
    assert {"alpha", "c1", "horizon", "s0"} <= missing


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "beta = 0.02\nthis is not a pair\n")
    reasons = dict(err.value.problems)
    assert reasons.get("beta") == "duplicate key"
    assert any(field.startswith("line ") for field in reasons)


def test_functional_value_is_validated():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "functional = quadratic\n")
    assert ("functional", "must be 'new' or 'legacy'") in err.value.problems


def test_solver_keys_parse_and_validate():
    config = parse_config(MINIMAL + "residual_tol = 1e-9\nmax_newton_iters = 10\n")
    assert config.shooting.residual_tol == 1e-9
    assert config.shooting.max_newton_iters == 10
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "residual_tol = -1\n")
    assert ("residual_tol", "must be positive") in err.value.problems


def test_sweep_grid_validation():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "alpha_min = 0.5\nalpha_max = 0.1\n")
    assert any(field == "alpha_max" for field, _ in err.value.problems)
    single = parse_config(MINIMAL + "alpha_min = 0.2\nalpha_points = 1\n")
    assert single.alpha_points == 1


def test_oracle_size_is_validated_with_the_other_problems():
    # Sizes the enumeration cannot run are config errors, reported with
    # the other problems, not failures after the shooting solve.
    text = MINIMAL.replace("c1 = 1", "c1 = 0")
    with pytest.raises(ConfigError) as err:
        parse_config(text + "n_steps = 4\noracle_intervals = 5\n")
    assert ("oracle_intervals", "must not exceed n_steps") in err.value.problems
    assert ("c1", "must be positive") in err.value.problems
    with pytest.raises(ConfigError) as err:
        parse_config(text + "oracle_intervals = 5\noracle_levels = 4\n")
    fields = [field for field, _ in err.value.problems]
    assert fields.count("oracle_levels") == 1
    assert "c1" in fields
    # 10^(2*3) sits exactly on the guard, and a huge interval count is
    # rejected without computing its power.
    edge = parse_config(MINIMAL + "oracle_intervals = 3\noracle_levels = 10\n")
    assert (edge.oracle_intervals, edge.oracle_levels) == (3, 10)
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "n_steps = 1000000000\noracle_intervals = 999999999\noracle_levels = 10\n")
    assert [field for field, _ in err.value.problems] == ["oracle_levels"]


# Every optional key, each set to a value other than its default.
EVERY_OPTIONAL_KEY = MINIMAL + """
n_steps = 500
functional = legacy
residual_tol = 1e-9
max_newton_iters = 7
alpha_min = 0.1
alpha_max = 0.4
alpha_points = 4
oracle_intervals = 2
oracle_levels = 3
"""


def test_config_lines_round_trip():
    header_order = (
        [f.name for f in fields(ModelParams)]
        + [f.name for f in fields(ShootingOptions)]
        + ["alpha_min", "alpha_max", "alpha_points", "oracle_intervals", "oracle_levels"]
    )
    for text in (MINIMAL, EVERY_OPTIONAL_KEY):
        config = parse_config(text)
        lines = config_lines(config)
        assert parse_config("\n".join(lines)) == config
        assert [line.split(" = ", 1)[0] for line in lines] == header_order
    defaults = parse_config(MINIMAL).resolved_values()
    values = parse_config(EVERY_OPTIONAL_KEY).resolved_values()
    optional = [key for key in header_order if f"{key} = " not in MINIMAL]
    assert len(optional) == 9
    assert all(values[key] != defaults[key] for key in optional)
