"""Exception types shared across the package."""

from __future__ import annotations


class SirControlError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(SirControlError):
    """An integration produced a NaN or infinity.

    Carries the time at which the bad value was first detected; for the
    shooting solver this usually signals a divergent initial-costate guess.
    """

    def __init__(self, time: float, detail: str = ""):
        self.time = time
        msg = f"non-finite value encountered at t = {time:g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TooLargeError(SirControlError):
    """The brute-force enumeration guard tripped."""


class ConfigError(SirControlError):
    """One or more configuration violations.

    ``problems`` holds every (field, reason) pair found, not just the first.
    """

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = list(problems)
        lines = "; ".join(f"{field}: {reason}" for field, reason in self.problems)
        super().__init__(f"invalid configuration: {lines}")
