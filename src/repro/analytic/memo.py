"""Identity-keyed memo over (library, config) object pairs.

The analytic tier memoizes two per-pair derivations — the band
fingerprint and the compiled predictor — because tier routing asks for
them on every call.  Both are functions of the pair's *canonical form*,
which tells apart values that compare equal (``mtu=9000`` and
``mtu=9000.0``, ``-0.0`` and ``0.0``).  A memo keyed by value would hand
one of them the other's answer, so :class:`PairMemo` keys by object
identity instead: an entry is reachable only while the very objects it
was computed from are alive, and dies with either of them.
"""

from __future__ import annotations

import weakref
from typing import Any, Generic, TypeVar

V = TypeVar("V")


class PairMemo(Generic[V]):
    """Weak, identity-keyed map from a (library, config) pair to a value.

    Entries are keyed on the two objects' ``id``s and hold a weak
    reference to each; a read checks both references still name the
    objects asked about, and either reference's callback drops the
    entry when its object dies, so a recycled id can never alias.
    """

    def __init__(self) -> None:
        self._entries: dict[
            tuple[int, int], tuple[weakref.ref, weakref.ref, V]
        ] = {}

    def get(self, library: Any, config: Any) -> V | None:
        """The value memoized for exactly these two objects, or None."""
        entry = self._entries.get((id(library), id(config)))
        if entry is None or entry[0]() is not library or entry[1]() is not config:
            return None
        return entry[2]

    def put(self, library: Any, config: Any, value: V) -> None:
        """Memoize ``value`` for this (library, config) object pair."""
        key = (id(library), id(config))
        entries = self._entries

        def forget(ref: weakref.ref) -> None:
            entry = entries.get(key)
            if entry is not None and (entry[0] is ref or entry[1] is ref):
                del entries[key]

        entries[key] = (
            weakref.ref(library, forget), weakref.ref(config, forget), value
        )

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
