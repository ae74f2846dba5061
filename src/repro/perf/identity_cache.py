"""Per-object memoisation keyed by identity, for immutable point matrices.

The distance engines and the quantizer each derive something expensive
from a corpus matrix (a cast plus norms; a compressed table, for PCA one
SVD) and every search call over that corpus wants it again.  Arrays are
unhashable and comparing contents would cost what the cache saves, so
the key is the object itself.

An entry lives exactly as long as its matrix: the weak reference that
guards the entry carries a callback that deletes it when the matrix is
collected.  Hence no capacity and no flush — any fixed cap turns a
cyclic access pattern over one more matrix than the cap (ten shards × two
replicas, say) into a miss on every call — and a recycled ``id()`` can
never see its predecessor's entry: that entry left with the predecessor,
and lookups check ``ref() is obj`` regardless.

Cached values must not reference the matrix they were derived from;
one that does keeps its own key alive and the entry never leaves.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Hashable, Tuple, TypeVar

T = TypeVar("T")


class IdentityCache:
    """``(object identity, variant) -> value``; entries die with the
    object."""

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.ref, dict]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: object, variant: Hashable,
            build: Callable[[], T]) -> T:
        """The cached ``build()`` for ``(obj, variant)``, built on a miss.

        Objects that cannot be weakly referenced are served uncached.
        """
        key = id(obj)
        entry = self._entries.get(key)
        if entry is None or entry[0]() is not obj:
            try:
                ref = weakref.ref(obj, lambda dead: self._forget(key, dead))
            except TypeError:
                return build()
            entry = self._entries[key] = (ref, {})
        variants = entry[1]
        if variant not in variants:
            variants[variant] = build()
        return variants[variant]

    def _forget(self, key: int, dead: weakref.ref) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry[0] is dead:
            del self._entries[key]
