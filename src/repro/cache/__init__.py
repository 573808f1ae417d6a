"""repro.cache — content-addressed memoization of container runs.

DetTrace makes a run a pure function of (image, config, program, host);
this package makes that purity *pay rent*: hash the inputs into a
:class:`RunKey`, store the run's result itself in an on-disk CAS, and
serve later identical runs from the cache with zero guest execution.
``--cache=verify`` inverts the bet — always re-execute, compare the
fresh run's capture with the entry's, and report any divergence.

See DESIGN.md "Cache invariants" for the key-composition and
durability contract.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.container import ContainerResult
from .key import RunKey, code_digest, image_fingerprint, run_key
from .store import (
    STORE_FORMAT,
    CacheEntryError,
    CacheStore,
    StoreStats,
)

#: Valid ``CacheConfig.mode`` values, in escalating-trust order.
CACHE_MODES = ("off", "read", "write", "verify")


class RunCache:
    """Facade tying key computation to one :class:`CacheStore`.

    The container core and the CLI both speak through this: ``key_for``
    computes the content address of a prospective run, ``lookup`` reads
    (torn entries are misses), ``store_result`` writes a finished result
    — refusing anything but a clean ``ok`` run, so a transient failure
    can never become sticky.
    """

    def __init__(self, directory: str):
        self.store = CacheStore(directory)

    @property
    def directory(self) -> str:
        return self.store.directory

    def key_for(self, image, config, command: str,
                argv: Optional[List[str]], host) -> RunKey:
        return run_key(image, config, command, argv, host)

    def lookup(self, key: RunKey) -> Optional[ContainerResult]:
        return self.store.get(key)

    def store_result(self, key: RunKey, result) -> Optional[str]:
        """Store *result* under *key*; None when it is not cacheable."""
        if result.status != "ok":
            return None
        return self.store.put(key, result)


__all__ = [
    "CACHE_MODES",
    "CacheEntryError",
    "CacheStore",
    "RunCache",
    "RunKey",
    "STORE_FORMAT",
    "StoreStats",
    "code_digest",
    "image_fingerprint",
    "run_key",
]
