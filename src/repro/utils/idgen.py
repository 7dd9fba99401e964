"""Deterministic id generation and design fingerprinting.

The timing model uses :func:`stable_fingerprint` to derive the seeded
"placement jitter" that reproduces the non-monotonic Fmax behaviour the
paper observed across Quartus runs (Section 5.3). The fingerprint depends
only on design content, so results are reproducible run to run. The lab
subsystem (:mod:`repro.lab.cache`) builds its content-addressed cache keys
on the same primitive.
"""

from __future__ import annotations

import hashlib


class IdGenerator:
    """Produces unique, readable names within one namespace.

    >>> g = IdGenerator()
    >>> g.next("tmp"), g.next("tmp"), g.next("st")
    ('tmp0', 'tmp1', 'st0')

    ``reserve()`` claims a literal name so later ``next()`` calls with the
    same prefix skip over it:

    >>> g.reserve("st1")
    'st1'
    >>> g.next("st")
    'st2'
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._reserved: set[str] = set()

    def next(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        name = f"{prefix}{n}"
        while name in self._reserved:
            n += 1
            name = f"{prefix}{n}"
        self._counters[prefix] = n + 1
        return name

    def reserve(self, name: str) -> str:
        """Claim ``name`` so no later ``next()`` can emit it again."""
        self._reserved.add(name)
        return name

    def state(self) -> tuple:
        """Everything that decides the names ``next()`` emits from here
        on, in a deterministic order (for content fingerprints)."""
        return (sorted(self._counters.items()), sorted(self._reserved))


def stable_fingerprint(*parts: object) -> int:
    """64-bit deterministic hash of the stringified parts.

    Unlike ``hash()`` this is stable across interpreter runs (no
    PYTHONHASHSEED dependence), which keeps benchmark output reproducible.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")
