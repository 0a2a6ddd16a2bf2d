"""Flat key = value configuration documents.

The grammar is deliberately trivial: one ``key = value`` pair per line,
``#`` starts a comment, blank lines ignored.  Unknown keys are rejected
and every violation is reported at once, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .brute_force import ENUMERATION_GUARD, exceeds_guard
from .errors import ConfigError
from .model import FUNCTIONALS, PARAM_CHECKS, ModelParams
from .solvers import SHOOTING_CHECKS, ShootingOptions

__all__ = ["ResolvedConfig", "parse_config", "config_lines"]

_MODEL_FLOAT_KEYS = (
    "beta", "alpha", "c1", "c2", "c3", "u1_max", "u2_max", "horizon", "s0", "i0", "r0",
)
_REQUIRED_KEYS = _MODEL_FLOAT_KEYS

# key -> (type tag, default); required keys have no default
_OPTIONAL_KEYS = {
    "n_steps": ("int", 2000),
    "functional": ("functional", "new"),
    "residual_tol": ("float", ShootingOptions.residual_tol),
    "max_newton_iters": ("int", ShootingOptions.max_newton_iters),
    "fd_epsilon": ("float", ShootingOptions.fd_epsilon),
    "damping_halvings": ("int", ShootingOptions.damping_halvings),
    "alpha_min": ("float", 0.05),
    "alpha_max": ("float", 0.5),
    "alpha_points": ("int", 10),
    "oracle_intervals": ("int", 3),
    "oracle_levels": ("int", 4),
}

KEY_ORDER = tuple(_MODEL_FLOAT_KEYS) + tuple(_OPTIONAL_KEYS)


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully validated parameter set with every default applied."""

    params: ModelParams
    shooting: ShootingOptions
    alpha_min: float
    alpha_max: float
    alpha_points: int
    oracle_intervals: int
    oracle_levels: int

    def resolved_values(self) -> dict[str, object]:
        """All keys in canonical order, for reproducibility headers."""
        p, s = self.params, self.shooting
        return {
            "beta": p.beta, "alpha": p.alpha,
            "c1": p.c1, "c2": p.c2, "c3": p.c3,
            "u1_max": p.u1_max, "u2_max": p.u2_max,
            "horizon": p.horizon, "s0": p.s0, "i0": p.i0, "r0": p.r0,
            "n_steps": p.n_steps, "functional": p.functional,
            "residual_tol": s.residual_tol,
            "max_newton_iters": s.max_newton_iters,
            "fd_epsilon": s.fd_epsilon,
            "damping_halvings": s.damping_halvings,
            "alpha_min": self.alpha_min, "alpha_max": self.alpha_max,
            "alpha_points": self.alpha_points,
            "oracle_intervals": self.oracle_intervals,
            "oracle_levels": self.oracle_levels,
        }


def _parse_value(key: str, raw: str, kind: str, problems: list[tuple[str, str]]):
    if kind == "functional":
        value = raw.strip().lower()
        if value not in FUNCTIONALS:
            problems.append((key, "must be 'new' or 'legacy'"))
            return None
        return value
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        problems.append((key, f"cannot parse {raw!r} as {kind}"))
        return None


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
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
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
    for key in _REQUIRED_KEYS:
        if key not in raw:
            problems.append((key, "required key missing"))
        else:
            parsed = _parse_value(key, raw[key], "float", problems)
            if parsed is not None:
                values[key] = parsed
    for key, (kind, default) in _OPTIONAL_KEYS.items():
        if key in raw:
            parsed = _parse_value(key, raw[key], kind, problems)
            if parsed is not None:
                values[key] = parsed
        else:
            values[key] = default

    # Each invariant predicate reads only its own field, so fields that
    # parsed fine are validated even when sibling keys are broken.
    candidate = SimpleNamespace(**values)
    for field, ok, reason in PARAM_CHECKS + SHOOTING_CHECKS:
        if values.get(field) is not None and not ok(candidate):
            problems.append((field, reason))
    if values.get("alpha_min") is not None and values["alpha_min"] < 0.0:
        problems.append(("alpha_min", "must be >= 0"))
    if (
        values.get("alpha_min") is not None
        and values.get("alpha_max") is not None
        and values.get("alpha_points") is not None
    ):
        if values["alpha_points"] < 1:
            problems.append(("alpha_points", "must be >= 1"))
        elif values["alpha_points"] > 1 and not values["alpha_max"] > values["alpha_min"]:
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

    params = ModelParams(**{k: values[k] for k in (*_MODEL_FLOAT_KEYS, "n_steps", "functional")})
    shooting = ShootingOptions(
        residual_tol=values["residual_tol"],
        max_newton_iters=values["max_newton_iters"],
        fd_epsilon=values["fd_epsilon"],
        damping_halvings=values["damping_halvings"],
    )
    return ResolvedConfig(
        params=params,
        shooting=shooting,
        alpha_min=values["alpha_min"],
        alpha_max=values["alpha_max"],
        alpha_points=values["alpha_points"],
        oracle_intervals=values["oracle_intervals"],
        oracle_levels=values["oracle_levels"],
    )


def config_lines(config: ResolvedConfig) -> list[str]:
    """Canonical ``key = value`` lines of a resolved configuration."""
    out = []
    for key, value in config.resolved_values().items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        out.append(f"{key} = {rendered}")
    return out
