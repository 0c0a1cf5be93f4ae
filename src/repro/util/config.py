"""Configuration with dotted keys.

Mirrors the Kompics config abstraction: components read typed values by
dotted key, and each read site states the key's default.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError

_MISSING = object()


class Config:
    """String-keyed configuration: the values a system or network was given."""

    def __init__(self, values: Optional[Mapping[str, Any]] = None) -> None:
        self._values: Dict[str, Any] = dict(values or {})

    def get(self, key: str, default: Any = _MISSING) -> Any:
        if key in self._values:
            return self._values[key]
        if default is _MISSING:
            raise ConfigError(f"missing config key {key!r}")
        return default

    def _typed(self, key: str, type_: type, default: Any) -> Any:
        value = self.get(key, default)
        if value is None:
            return None
        try:
            return type_(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}={value!r} is not a valid {type_.__name__}") from exc

    def get_int(self, key: str, default: Any = _MISSING) -> int:
        return self._typed(key, int, default)

    def get_float(self, key: str, default: Any = _MISSING) -> float:
        return self._typed(key, float, default)

    def get_str(self, key: str, default: Any = _MISSING) -> str:
        return self._typed(key, str, default)

    def get_bool(self, key: str, default: Any = _MISSING) -> bool:
        value = self.get(key, default)
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
        raise ConfigError(f"config key {key!r}={value!r} is not a valid bool")
