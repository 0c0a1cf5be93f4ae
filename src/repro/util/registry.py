"""One strict name -> entry registry (scenarios, cc policies)."""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Generic, List, Type, TypeVar

T = TypeVar("T")


class UnknownNameError(KeyError):
    """A lookup of a name nothing was registered under."""

    def __str__(self) -> str:  # KeyError wraps its message in repr()
        return self.args[0] if self.args else ""


class Registry(Generic[T]):
    """Name -> entry with strict registration semantics.

    Registering a taken name raises ``duplicate`` instead of silently
    shadowing the earlier entry; an unknown lookup raises ``unknown``
    with a did-you-mean suggestion and the registered names.  ``noun``
    names the kind of entry in both messages and ``owner`` picks what a
    duplicate error blames the existing entry on.
    """

    def __init__(
        self,
        noun: str,
        unknown: Type[UnknownNameError],
        duplicate: Type[Exception] = ValueError,
        owner: Callable[[T], object] = lambda entry: entry,
    ) -> None:
        self.noun = noun
        self._unknown = unknown
        self._duplicate = duplicate
        self._owner = owner
        self._entries: Dict[str, T] = {}

    def add(self, name: str, entry: T) -> T:
        if name in self._entries:
            raise self._duplicate(
                f"{self.noun} {name!r} is already registered "
                f"(by {self._owner(self._entries[name])!r}); "
                f"pick a distinct name or remove() the old entry first"
            )
        self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        """Drop a registration (test hygiene; unknown names are a no-op)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        entry = self._entries.get(name)
        return entry if entry is not None else self._miss(name)

    def _miss(self, name: str) -> T:
        close = difflib.get_close_matches(name, sorted(self._entries), n=3)
        hint = f"; did you mean {' or '.join(repr(c) for c in close)}?" if close else ""
        raise self._unknown(
            f"unknown {self.noun} {name!r}{hint} "
            f"(registered: {', '.join(sorted(self._entries))})"
        )

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def names(self) -> List[str]:
        return sorted(self._entries)

    def all(self) -> List[T]:
        return [self._entries[name] for name in sorted(self._entries)]
