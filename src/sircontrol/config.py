"""Flat key = value configuration documents.

The grammar is deliberately trivial: one ``key = value`` pair per line,
``#`` starts a comment, blank lines ignored.  Unknown keys are rejected
and every violation is reported at once, not just the first.

The keys are not listed here: they are the fields of ModelParams, then
ResolvedConfig's own fields after params.  Each field gives its key's
type, its default and its place in the header; a field without a default
is a required key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace
from typing import get_type_hints

from .brute_force import ENUMERATION_GUARD, exceeds_guard
from .errors import ConfigError
from .model import FUNCTIONAL_LEGACY, PARAM_CHECKS, ModelParams

__all__ = ["ResolvedConfig", "parse_config"]


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully validated parameter set with every default applied."""

    params: ModelParams
    residual_tol: float = 1e-10
    alpha_min: float = 0.05
    alpha_max: float = 0.5
    alpha_points: int = 10
    oracle_intervals: int = 3
    oracle_levels: int = 4


def _typed_fields(cls) -> dict[str, tuple[type, object]]:
    """{name: (type, default or MISSING)} of a dataclass's fields, in order."""
    hints = get_type_hints(cls)  # f.type is only a string here
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


# Every key as {key: (type, default or MISSING)}, in header order: the
# fields of ModelParams, then ResolvedConfig's own.
_OWN_KEYS = {k: v for k, v in _typed_fields(ResolvedConfig).items() if k != "params"}
_SCHEMA = _typed_fields(ModelParams) | _OWN_KEYS


# (field, predicate, reason) rules on a parsed config, run after the model's
# PARAM_CHECKS in this order.  Where two rules report on one key, the
# second passes in the first one's failing case, so a key gets at most one
# problem from the pair.
_CONFIG_CHECKS = [
    ("residual_tol", lambda c: 0.0 < c.residual_tol < math.inf, "must be positive"),
    # running_cost puts c3 on u1^2 under the legacy functional; a negative
    # c3 fails PARAM_CHECKS already.
    ("c3", lambda c: c.functional != FUNCTIONAL_LEGACY or c.c3 != 0.0,
     "must be positive under the legacy functional"),
    ("alpha_min", lambda c: math.isfinite(c.alpha_min) and c.alpha_min >= 0.0,
     "must be a finite number >= 0"),
    ("alpha_max", lambda c: math.isfinite(c.alpha_max), "must be a finite number"),
    ("alpha_points", lambda c: c.alpha_points >= 1, "must be >= 1"),
    ("alpha_max", lambda c: c.alpha_points <= 1 or c.alpha_max > c.alpha_min,
     "must exceed alpha_min for a multi-point sweep"),
    ("oracle_intervals", lambda c: c.oracle_intervals >= 1, "must be >= 1"),
    ("oracle_intervals", lambda c: c.oracle_intervals < 1 or c.oracle_intervals <= c.n_steps,
     "must not exceed n_steps"),
    ("oracle_levels", lambda c: c.oracle_levels >= 1, "must be >= 1"),
    ("oracle_levels", lambda c: c.oracle_levels < 1 or not exceeds_guard(c.oracle_intervals, c.oracle_levels),
     f"oracle_levels^(2*oracle_intervals) exceeds the enumeration guard ({ENUMERATION_GUARD})"),
]


def parse_config(text: str) -> ResolvedConfig:
    """Parse and validate a configuration document.

    Raises ConfigError carrying every (field, reason) violation found:
    syntax problems, unknown or duplicate keys, unparsable values, missing
    required keys and model-invariant violations.
    """
    problems: list[tuple[str, str]] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append((f"line {lineno}", f"expected 'key = value', got {stripped!r}"))
            continue
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            problems.append((key, "unknown key"))
            continue
        if key in raw:
            problems.append((key, "duplicate key"))
            continue
        if not value:
            problems.append((key, "empty value"))
            continue
        raw[key] = value

    values: dict[str, object] = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in raw:
            try:
                values[key] = raw[key].lower() if kind is str else kind(raw[key])
            except ValueError:
                problems.append((key, f"cannot parse {raw[key]!r} as {kind.__name__}"))
        elif default is MISSING:
            problems.append((key, "required key missing"))
        else:
            values[key] = default

    # Keys that parsed are validated even when sibling keys are broken: a
    # rule that reads a key which did not parse is skipped.
    candidate = SimpleNamespace(**values)
    for field, ok, reason in PARAM_CHECKS + _CONFIG_CHECKS:
        try:
            if not ok(candidate):
                problems.append((field, reason))
        except AttributeError:
            pass

    if problems:
        raise ConfigError(problems)

    own = {key: values.pop(key) for key in _OWN_KEYS}
    return ResolvedConfig(params=ModelParams(**values), **own)


def config_lines(config: ResolvedConfig) -> list[str]:
    """Canonical ``key = value`` lines of a resolved configuration, every key in header order."""
    values = {key: getattr(config if key in _OWN_KEYS else config.params, key) for key in _SCHEMA}
    return [
        f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
        for key, value in values.items()
    ]
