"""Configuration document parsing and validation."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from sircontrol import ConfigError, ModelParams, parse_config
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
    assert config.residual_tol == 1e-10
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


def with_keys(**keys):
    """MINIMAL with each given key set to its value, or removed when the value is None."""
    lines = [line for line in MINIMAL.splitlines() if line.split(" = ")[0] not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items() if v is not None]) + "\n"


GUARD = "oracle_levels^(2*oracle_intervals) exceeds the enumeration guard (1000000)"

# Documents that break several rules at once, with every problem in the
# order parse_config reports it.  A rule that reads a key which did not
# parse is skipped: the first five cases would otherwise add a cross-key
# problem on n_steps, alpha_max, alpha_points, oracle_intervals or c3.
PROBLEM_LISTS = {
    "n_steps_unparsed": (
        with_keys(n_steps="2.5", oracle_intervals="5", c1="0"),
        [("n_steps", "cannot parse '2.5' as int"), ("c1", "must be positive"), ("oracle_levels", GUARD)],
    ),
    "alpha_max_unparsed": (
        with_keys(alpha_max="z", alpha_points="5", alpha_min="-1"),
        [("alpha_max", "cannot parse 'z' as float"), ("alpha_min", "must be a finite number >= 0")],
    ),
    "alpha_points_unparsed": (
        with_keys(alpha_points="z", alpha_min="0.5", alpha_max="0.1", residual_tol="0"),
        [("alpha_points", "cannot parse 'z' as int"), ("residual_tol", "must be positive")],
    ),
    "oracle_intervals_unparsed": (
        with_keys(oracle_intervals="z", oracle_levels="11", horizon="-1"),
        [("oracle_intervals", "cannot parse 'z' as int"), ("horizon", "must be positive")],
    ),
    "c3_unparsed_under_legacy": (
        with_keys(c3="z", functional="legacy", beta="nan"),
        [("c3", "cannot parse 'z' as float"), ("beta", "must be a finite number >= 0")],
    ),
    "first_rule_of_each_pair": (
        with_keys(c3="0", functional="LEGACY", alpha_points="0", alpha_min="0.5", alpha_max="0.1",
                  oracle_intervals="0", oracle_levels="0"),
        [
            ("c3", "must be positive under the legacy functional"),
            ("alpha_points", "must be >= 1"),
            ("oracle_intervals", "must be >= 1"),
            ("oracle_levels", "must be >= 1"),
        ],
    ),
    "second_rule_of_each_pair": (
        with_keys(n_steps="4", alpha_points="3", alpha_min="0.5", alpha_max="0.5",
                  oracle_intervals="5", oracle_levels="5"),
        [
            ("alpha_max", "must exceed alpha_min for a multi-point sweep"),
            ("oracle_intervals", "must not exceed n_steps"),
            ("oracle_levels", GUARD),
        ],
    ),
    "non_finite": (
        with_keys(u1_max="inf", residual_tol="inf", alpha_min="inf", alpha_max="nan", alpha_points="2"),
        [
            ("u1_max", "must be a finite number >= 0"),
            ("residual_tol", "must be positive"),
            ("alpha_min", "must be a finite number >= 0"),
            ("alpha_max", "must be a finite number"),
            ("alpha_max", "must exceed alpha_min for a multi-point sweep"),
        ],
    ),
    "missing_required": (
        with_keys(beta=None, s0=None, n_steps="1", oracle_intervals="2"),
        [
            ("beta", "required key missing"),
            ("s0", "required key missing"),
            ("n_steps", "must be an integer >= 2"),
            ("oracle_intervals", "must not exceed n_steps"),
        ],
    ),
    "syntax": (
        MINIMAL + "gamma = 1\nbeta = 0.2\nfoo\nn_steps =\noracle_levels = 0\n",
        [
            ("gamma", "unknown key"),
            ("beta", "duplicate key"),
            ("line 16", "expected 'key = value', got 'foo'"),
            ("n_steps", "empty value"),
            ("oracle_levels", "must be >= 1"),
        ],
    ),
    "huge_sizes": (
        with_keys(n_steps="1000000000", oracle_intervals="999999999", oracle_levels="0", c2="-1"),
        [("c2", "must be positive"), ("oracle_levels", "must be >= 1")],
    ),
    "zero_c3_under_an_unknown_functional": (
        with_keys(functional="quadratic", c3="0", i0="-5", alpha_points="1", alpha_min="0.4", alpha_max="0.1"),
        [("i0", "must be a finite number >= 0"), ("functional", "must be 'new' or 'legacy'")],
    ),
}


@pytest.mark.parametrize("text, problems", PROBLEM_LISTS.values(), ids=PROBLEM_LISTS.keys())
def test_every_problem_is_reported_in_order(text, problems):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == problems


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


def test_legacy_functional_needs_positive_c3():
    # The legacy functional weights u1^2 by c3; the new one accepts c3 = 0.
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("c3 = 10", "c3 = 0") + "functional = legacy\n")
    assert err.value.problems == [("c3", "must be positive under the legacy functional")]
    assert parse_config(MINIMAL.replace("c3 = 10", "c3 = 0")).params.c3 == 0.0
    # A negative c3 gets one problem, not a second from the legacy rule.
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("c3 = 10", "c3 = -1") + "functional = legacy\n")
    assert err.value.problems == [("c3", "must be a finite number >= 0")]


def test_functional_value_is_validated():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "functional = quadratic\n")
    assert ("functional", "must be 'new' or 'legacy'") in err.value.problems


def test_solver_keys_parse_and_validate():
    config = parse_config(MINIMAL + "residual_tol = 1e-9\n")
    assert config.residual_tol == 1e-9
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "residual_tol = -1\n")
    assert ("residual_tol", "must be positive") in err.value.problems
    # Reported after the model's invariants (the legacy functional's c3
    # rule among them), before the cross-key checks.
    text = MINIMAL.replace("c1 = 1", "c1 = 0").replace("c3 = 10", "c3 = 0")
    with pytest.raises(ConfigError) as err:
        parse_config(text + "functional = legacy\nresidual_tol = nan\nalpha_points = 0\n")
    assert err.value.problems == [
        ("c1", "must be positive"),
        ("c3", "must be positive under the legacy functional"),
        ("residual_tol", "must be positive"),
        ("alpha_points", "must be >= 1"),
    ]


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
alpha_min = 0.1
alpha_max = 0.4
alpha_points = 4
oracle_intervals = 2
oracle_levels = 3
"""


def test_config_lines_round_trip():
    header_order = (
        [f.name for f in fields(ModelParams)]
        + ["residual_tol", "alpha_min", "alpha_max", "alpha_points", "oracle_intervals", "oracle_levels"]
    )
    for text in (MINIMAL, EVERY_OPTIONAL_KEY):
        config = parse_config(text)
        lines = config_lines(config)
        assert parse_config("\n".join(lines)) == config
        assert [line.split(" = ", 1)[0] for line in lines] == header_order
    defaults = dict(line.split(" = ", 1) for line in config_lines(parse_config(MINIMAL)))
    values = dict(line.split(" = ", 1) for line in config_lines(parse_config(EVERY_OPTIONAL_KEY)))
    optional = [key for key in header_order if f"{key} = " not in MINIMAL]
    assert len(optional) == 8
    assert all(values[key] != defaults[key] for key in optional)


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Configuration files are flat"):].split("\n\n", 1)[0]
    listed = re.search(r"Required keys: `([^`]*)`", paragraph).group(1)
    with pytest.raises(ConfigError) as err:
        parse_config("")
    required = [field for field, reason in err.value.problems if reason == "required key missing"]
    assert [key.strip() for key in listed.split(",")] == required
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", paragraph))))
    every_key = [line.split(" = ", 1)[0] for line in config_lines(parse_config(MINIMAL))]
    assert [key for key in every_key if key not in required and key not in named] == []
