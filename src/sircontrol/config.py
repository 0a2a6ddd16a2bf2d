"""Flat key = value configuration documents.

The grammar is deliberately trivial: one ``key = value`` pair per line,
``#`` starts a comment, blank lines ignored.  Unknown keys are rejected
and every violation is reported at once, not just the first.

The keys are not listed here: they are the fields of ResolvedConfig, with
its dataclass fields (params, shooting) expanded into theirs.  Each field
gives its key's type, its default and its place in the header; a field
without a default is a required key.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import get_type_hints

from .brute_force import ENUMERATION_GUARD, exceeds_guard
from .errors import ConfigError
from .model import FUNCTIONAL_LEGACY, PARAM_CHECKS, ModelParams
from .solvers import SHOOTING_CHECKS, ShootingOptions

__all__ = ["ResolvedConfig", "parse_config", "config_lines"]


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully validated parameter set with every default applied."""

    params: ModelParams
    shooting: ShootingOptions
    alpha_min: float = 0.05
    alpha_max: float = 0.5
    alpha_points: int = 10
    oracle_intervals: int = 3
    oracle_levels: int = 4

    def resolved_values(self) -> dict[str, object]:
        """All keys in canonical order, for reproducibility headers."""
        return {
            key: getattr(getattr(self, section) if section else self, key)
            for section, key, _, _ in _KEYS
        }


def _typed_fields(cls) -> list[tuple[str, type, object]]:
    """(name, type, default or MISSING) of a dataclass's fields, in order."""
    hints = get_type_hints(cls)  # f.type is only a string here
    return [(f.name, hints[f.name], f.default) for f in fields(cls)]


def _config_keys():
    """Every key as (section, key, type, default or MISSING), in header order,
    and the sections as {name: dataclass}.

    A section is a dataclass-typed field of ResolvedConfig (params,
    shooting); section is None for ResolvedConfig's own fields.
    """
    keys, sections = [], {}
    for name, kind, default in _typed_fields(ResolvedConfig):
        if is_dataclass(kind):
            sections[name] = kind
            keys.extend((name, *field) for field in _typed_fields(kind))
        else:
            keys.append((None, name, kind, default))
    return keys, sections


_KEYS, _SECTIONS = _config_keys()


def parse_config(text: str) -> ResolvedConfig:
    """Parse and validate a configuration document.

    Raises ConfigError carrying every (field, reason) violation found:
    syntax problems, unknown or duplicate keys, unparsable values, missing
    required keys and model-invariant violations.
    """
    schema = {key: (kind, default) for _, key, kind, default in _KEYS}
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
        if key not in schema:
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
    for key, (kind, default) in schema.items():
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
    for field, ok, reason in PARAM_CHECKS + SHOOTING_CHECKS:
        if values.get(field) is not None and not ok(candidate):
            problems.append((field, reason))
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

    own: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for section, key, _, _ in _KEYS:
        (sections[section] if section else own)[key] = values[key]
    return ResolvedConfig(**own, **{name: _SECTIONS[name](**kw) for name, kw in sections.items()})


def config_lines(config: ResolvedConfig) -> list[str]:
    """Canonical ``key = value`` lines of a resolved configuration."""
    return [
        f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
        for key, value in config.resolved_values().items()
    ]
