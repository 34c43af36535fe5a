"""Typed environment-variable parsing with errors that name the variable.

One helper per type, used by the engine options' declarations
(:mod:`repro.engine.options`): an unset or blank variable yields the
default, and a malformed one raises :class:`ValueError` naming the
variable instead of resolving silently (``REPRO_ENGINE_CACHE=ture``)
or failing with a bare ``invalid literal for int()``.
"""

from __future__ import annotations

import os

__all__ = ["BOOL_SPELLINGS", "env_bool", "env_int", "env_str"]

#: Accepted on/off spellings of a boolean variable (case-insensitive).
BOOL_SPELLINGS = {
    "1": True,
    "true": True,
    "yes": True,
    "on": True,
    "0": False,
    "false": False,
    "no": False,
    "off": False,
}


def env_str(name: str, default: str | None = None) -> str | None:
    """The variable's text, or ``default`` when it is unset or blank."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw


def env_bool(name: str, default: bool | None = None) -> bool | None:
    """An on/off variable: one of :data:`BOOL_SPELLINGS`."""
    raw = env_str(name)
    if raw is None:
        return default
    value = BOOL_SPELLINGS.get(raw.strip().lower())
    if value is None:
        raise ValueError(
            f"{name} must be one of {sorted(BOOL_SPELLINGS)}, got {raw!r}"
        )
    return value


def env_int(name: str, default: int | None, *, minimum: int | None = None):
    """An integer variable, at least ``minimum`` when one is given."""
    raw = env_str(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {raw!r}")
    return value
