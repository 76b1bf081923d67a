"""Memoized operator costings for the deterministic cost plane.

Every sweep in :mod:`repro.bench` re-costs the same column scans many
times — the inner loops vary one knob (PCIe bandwidth, OLTP share, bulk
size) while the storage geometry stays fixed, so the memory/compute
cycle pair produced by
:func:`repro.execution.operators.column_scan_cost` is recomputed for
identical inputs over and over.  Those costings are pure functions of

* the **platform fingerprint** — every numeric field of the frozen
  hardware models (CPU, GPU, interconnect, memory model, disk), which
  is exactly the state the analytic formulas read; and
* the **fragment fingerprint** — linearization, row/column orientation,
  filled row count, allocation size, schema widths and compression.

:class:`CostCache` memoizes on that key.  Two rules keep it honest:

* **Fault-injection bypass** — when the platform carries an armed
  :class:`~repro.faults.FaultInjector`, the cache is never consulted
  and never written: a faulted run must re-execute every operator so
  the injector observes every check (and its RNG draws stay a pure
  function of the workload).
* **Freshness by key** — the key covers every input the formulas
  read, so a layout swap or a recovery that changes fragment geometry
  simply misses; an entry can never serve a fragment whose geometry
  differs from the one it was priced on, and nothing has to be dropped.

The default process-wide cache is reachable via
:func:`active_cost_cache`; tests scope it with
:func:`cost_cache_disabled` or :func:`set_cost_cache`.  It is the one
module-level mutable default left in the package: the benchmark
installs a fresh :class:`CostCache` per run through
:func:`set_cost_cache` and reads its hit/miss counts.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.hardware.platform import Platform
    from repro.layout.fragment import Fragment

__all__ = [
    "CostCache",
    "active_cost_cache",
    "set_cost_cache",
    "cost_cache_disabled",
    "cache_usable",
    "platform_fingerprint",
    "fragment_fingerprint",
]


class CostCache:
    """A bounded LRU map from costing keys to cycle results.

    Values are whatever the memoized costing returned (for column scans
    a ``(memory_cycles, compute_cycles)`` tuple) and are handed back
    exactly — a cache hit reproduces the cold costing bit for bit,
    which ``tests/hardware/test_batch_trace.py`` pins.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of memoized costings currently held."""
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """Return the memoized value for *key*, or None on a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Memoize *value* under *key*, evicting the LRU entry if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        """Counters snapshot: hits, misses, entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


#: The process-wide cache consulted by the operators; ``None`` disables
#: memoization entirely (every costing recomputes).
_ACTIVE: CostCache | None = CostCache()


def active_cost_cache() -> CostCache | None:
    """The cache the operators currently consult (None = disabled)."""
    return _ACTIVE


def set_cost_cache(cache: CostCache | None) -> CostCache | None:
    """Install *cache* as the process-wide cost cache; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


@contextmanager
def cost_cache_disabled() -> Iterator[None]:
    """Context manager: run the body with memoization switched off."""
    previous = set_cost_cache(None)
    try:
        yield
    finally:
        set_cost_cache(previous)


def cache_usable(platform: "Platform") -> bool:
    """Whether memoized costings may serve this platform's queries.

    False while the platform carries an armed fault injector: a faulted
    run has to recompute every costing so injection sites actually see
    their checks (see :attr:`repro.faults.FaultInjector.armed`).
    """
    injector = getattr(platform, "injector", None)
    return injector is None or not injector.armed


@functools.lru_cache(maxsize=1024)
def _model_fingerprint(model: Any) -> tuple:
    """Hashable (name, value) tuple of a frozen model's numeric fields.

    ``injector`` fields are excluded: they do not shape costs (the
    armed-injector case bypasses the cache entirely) and are unhashable.
    Memoized per model instance: the models are frozen dataclasses, so
    the fingerprint can never go stale and the ``dataclasses.fields``
    introspection runs once per distinct model instead of per costing.
    """
    return tuple(
        (field.name, getattr(model, field.name))
        for field in dataclasses.fields(model)
        if field.name != "injector"
    )


def platform_fingerprint(platform: "Platform") -> tuple:
    """Hashable identity of everything the cost formulas read.

    Covers every numeric parameter of the platform's frozen hardware
    models; two platforms with equal fingerprints price every access
    pattern identically.  The mutable memory *spaces* are deliberately
    excluded — allocation state does not enter the analytic formulas.
    """
    return (
        _model_fingerprint(platform.cpu),
        _model_fingerprint(platform.gpu),
        _model_fingerprint(platform.memory_model),
        _model_fingerprint(platform.interconnect),
        _model_fingerprint(platform.disk_model),
    )


def fragment_fingerprint(fragment: "Fragment") -> tuple:
    """Hashable identity of a fragment's cost-relevant geometry.

    Linearization, orientation, filled rows, allocation size, schema
    widths, the memory-space kind, and the compression codec (name,
    decode cost, encoded size) — everything
    :func:`~repro.execution.operators.column_scan_cost` reads.  Payload
    contents are irrelevant to the cost plane and are excluded, so
    phantom and filled fragments with the same geometry share entries.

    The memory-space kind keeps the key honest next to the device
    staging cache: a fragment replicated between host and device must
    not share costings across locations, and a memoized costing is then
    byte-identical for a given (geometry, location) — the staging
    cache's own hit/miss state never enters these formulas (transfer
    charges flow through :class:`repro.staging.TransferScheduler`,
    which is not memoized).
    """
    compression = fragment.compression
    if compression is None:
        compressed: tuple = ()
    else:
        compressed = (
            compression.codec.name,
            compression.codec.decode_cycles_per_value,
            compression.nbytes,
        )
    schema = fragment.schema
    return (
        fragment.linearization.value,
        fragment.region.is_row,
        fragment.filled,
        fragment.nbytes,
        schema.record_width,
        tuple((attribute.name, attribute.width) for attribute in schema),
        compressed,
        fragment.space.kind.value,
    )
