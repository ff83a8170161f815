"""The one memo policy of the package's state-free factors.

A builder that depends only on scalars, axes and sizes (never on a
state) is decorated with :func:`memo`: a ``functools.lru_cache`` of at
most ``MEMO_KEYS`` keys, whose stored arrays are read-only, since every
caller of a key shares them.  A builder that raises stores nothing, so a
refused input raises on every call.  The registry lets one call clear or
count every cache.
"""

from __future__ import annotations

import functools

# Most keys of every cache.  One benchmark pass uses at most 28 keys of one
# cache (the quadrature weights, register_grid), 20 of the transfer maps and
# 15 of the theta factor, so this bound holds each with 2x headroom.
MEMO_KEYS = 64

_CACHES: dict[str, functools._lru_cache_wrapper] = {}


def memo(build):
    """``build`` memoized on its positional arguments, at most ``MEMO_KEYS``
    keys, and registered.  Every array it returns, bare or in a tuple
    (where ``None`` may stand for one), is made read-only before it is
    stored.  The cache itself is returned, so a hit never leaves C, and
    ``cache_clear``, ``cache_info`` and ``__wrapped__`` work as usual."""

    @functools.wraps(build)
    def frozen(*args):
        out = build(*args)
        for array in out if isinstance(out, tuple) else (out,):
            if array is not None:
                array.setflags(write=False)
        return out

    cache = functools.lru_cache(maxsize=MEMO_KEYS)(frozen)
    _CACHES[f"{build.__module__}.{build.__qualname__}"] = cache
    return cache


def clear_caches() -> None:
    """Empty every registered cache."""
    for cache in _CACHES.values():
        cache.cache_clear()


def cache_counts() -> dict:
    """The ``cache_info()`` (hits, misses, maxsize, currsize) of every
    registered cache, by the builder's qualified name."""
    return {name: cache.cache_info() for name, cache in _CACHES.items()}
