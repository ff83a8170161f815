"""The one memo policy: every module-level cache of the package goes
through ``_memo.memo``, holds at most ``MEMO_KEYS`` keys and hands out
read-only arrays."""

import functools
import importlib
import pkgutil

import numpy as np
import pytest

import spinwigner
from spinwigner import DistributionKind, _memo

# every module but __main__, which runs the command line when imported
MODULES = [
    importlib.import_module(f"spinwigner.{info.name}")
    for info in pkgutil.iter_modules(spinwigner.__path__)
    if info.name != "__main__"
]
WIGNER = DistributionKind.WIGNER
AXIS = np.linspace(0.0, 3.0, 4).tobytes()
# one key of each registered cache
KEYS = {
    "spinwigner.cli._digit_words": (),
    "spinwigner.quasiprob._point_weights": (WIGNER, ((0.3, 1.2), (2.0, 4.0), (0.3, 1.2)), False),
    "spinwigner.quasiprob._theta_factor": (WIGNER, AXIS, 3),
    "spinwigner.quasiprob._harmonics": (AXIS, 3),
    "spinwigner.quasiprob._quadrature_weights": (WIGNER, 3, True),
    "spinwigner.quasiprob._quadrature_mean": (WIGNER,),
    "spinwigner.rindler._transfer": ((0.1, 0.5),),
    "spinwigner.su2kernel._pauli_table": (WIGNER,),
}


def module_caches():
    """Every cache defined at the top level of a module of the package."""
    return {
        f"{module.__name__}.{name}": value
        for module in MODULES
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__
    }


def test_every_module_cache_is_registered_and_bounded():
    registered = _memo._CACHES
    assert module_caches() == registered
    assert set(registered) == set(KEYS)
    lru_type = type(functools.lru_cache(maxsize=1)(len))
    for cache in registered.values():
        # the lru_cache itself, so a hit stays in C
        assert type(cache) is lru_type
        assert cache.cache_info().maxsize == _memo.MEMO_KEYS


@pytest.mark.parametrize("name", sorted(KEYS))
def test_every_returned_array_is_read_only(name):
    _memo.clear_caches()
    out = _memo._CACHES[name](*KEYS[name])
    arrays = [a for a in (out if isinstance(out, tuple) else (out,)) if a is not None]
    assert arrays and all(isinstance(a, np.ndarray) for a in arrays)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def test_clear_caches_empties_every_cache_and_cache_counts_counts_lookups():
    _memo.clear_caches()
    assert {info.currsize for info in _memo.cache_counts().values()} == {0}
    for _ in range(3):
        for name, key in KEYS.items():
            _memo._CACHES[name](*key)
    counts = _memo.cache_counts()
    assert set(counts) == set(KEYS)
    for name, info in counts.items():
        # one miss; other builders' misses may look the key up too
        assert info.misses == 1, name
        assert info.hits >= 2, name
        assert info.currsize == 1, name

