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

__all__ = ["ResolvedConfig", "parse_config", "config_lines"]


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

    # Each invariant predicate reads only its own field, so fields that
    # parsed fine are validated even when sibling keys are broken.
    candidate = SimpleNamespace(**values)
    for field, ok, reason in PARAM_CHECKS:
        if values.get(field) is not None and not ok(candidate):
            problems.append((field, reason))
    tol = values.get("residual_tol")
    if tol is not None and not 0.0 < tol < math.inf:
        problems.append(("residual_tol", "must be positive"))
    # running_cost puts c3 on u1^2 under the legacy functional; a negative
    # c3 is reported above already.
    if values.get("functional") == FUNCTIONAL_LEGACY and values.get("c3") == 0.0:
        problems.append(("c3", "must be positive under the legacy functional"))
    alpha_min, alpha_max, points = (values.get(k) for k in ("alpha_min", "alpha_max", "alpha_points"))
    if alpha_min is not None and not (math.isfinite(alpha_min) and alpha_min >= 0.0):
        problems.append(("alpha_min", "must be a finite number >= 0"))
    if alpha_max is not None and not math.isfinite(alpha_max):
        problems.append(("alpha_max", "must be a finite number"))
    if points is not None and points < 1:
        problems.append(("alpha_points", "must be >= 1"))
    elif points is not None and points > 1 and None not in (alpha_min, alpha_max):
        if not alpha_max > alpha_min:
            problems.append(("alpha_max", "must exceed alpha_min for a multi-point sweep"))
    intervals, levels = values.get("oracle_intervals"), values.get("oracle_levels")
    if intervals is not None and intervals < 1:
        problems.append(("oracle_intervals", "must be >= 1"))
    elif intervals is not None and values.get("n_steps") is not None and intervals > values["n_steps"]:
        problems.append(("oracle_intervals", "must not exceed n_steps"))
    if levels is not None and levels < 1:
        problems.append(("oracle_levels", "must be >= 1"))
    elif intervals is not None and levels is not None and exceeds_guard(intervals, levels):
        problems.append((
            "oracle_levels",
            f"oracle_levels^(2*oracle_intervals) exceeds the enumeration guard ({ENUMERATION_GUARD})",
        ))

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
