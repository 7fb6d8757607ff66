"""Cache timing: an analytic two-level model plus a behavioural simulator.

The algorithms charge their local computation through
:class:`repro.machine.cpu.CPUModel`, which needs the average cost of a
memory reference for a given *access pattern*.  We model patterns
analytically (streaming vs. random over a working set) because the
algorithms touch millions of words — simulating each reference would be
prohibitive and adds nothing to the paper's questions.

The behavioural :class:`CacheSim` (set-associative, LRU) exists to
validate the analytic hit-rate formulas on small traces; the test suite
cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.machine.config import CacheConfig, NodeConfig


# ----------------------------------------------------------------------
# Access-pattern descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """Base class for access-pattern descriptors.

    ``count`` is the number of word references, ``word_bytes`` the size
    of each reference.
    """

    count: int
    word_bytes: int = 8

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.word_bytes < 1:
            raise ValueError(f"word_bytes must be >= 1, got {self.word_bytes}")


@dataclass(frozen=True, slots=True)
class SequentialAccess(MemoryAccess):
    """A streaming pass over ``count`` consecutive words.

    Spatial locality makes one miss per cache line; the rest hit.
    """


@dataclass(frozen=True, slots=True)
class RandomAccess(MemoryAccess):
    """``count`` uniform-random references within a ``region_words`` window.

    If the region fits in cache the references mostly hit (after warm-up,
    which we ignore for steady-state costing); otherwise the hit
    probability is the fraction of the region that is cache-resident.
    """

    region_words: int = 1

    def __post_init__(self) -> None:
        # Named, not super(): slots=True makes a new class, which a
        # zero-argument super() in its body does not know.
        MemoryAccess.__post_init__(self)
        if self.region_words < 1:
            raise ValueError(f"region_words must be >= 1, got {self.region_words}")


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
class AnalyticCache:
    """Expected per-pattern memory cycles for a two-level hierarchy.

    For each pattern we derive hit fractions at L1 and L2 and charge::

        cycles = hits_l1*t_l1 + hits_l2*(t_l1+t_l2) + misses*(t_l1+t_l2+t_mem)

    i.e. probes cascade down the hierarchy, matching Table 2's
    "L2 miss time = 3 + 7 cycles" convention.
    """

    def __init__(self, node: NodeConfig) -> None:
        self.node = node
        self.l1 = node.l1
        self.l2 = node.l2
        # copy_cycles_per_byte is a pure function of the (immutable)
        # node config; memoised because the sync engine calls it for
        # every marshalled message.
        self._copy_cpb: dict = {}

    # -- hit-rate models ------------------------------------------------
    def _hit_fraction(self, cache: CacheConfig, pattern: MemoryAccess) -> float:
        if pattern.count == 0:
            return 1.0
        if isinstance(pattern, SequentialAccess):
            words_per_line = max(1, cache.line_bytes // pattern.word_bytes)
            # One compulsory miss per line of the stream.
            return 1.0 - 1.0 / words_per_line
        if isinstance(pattern, RandomAccess):
            region_bytes = pattern.region_words * pattern.word_bytes
            if region_bytes <= cache.size_bytes:
                # Working set resident: only conflict noise, approximated
                # by associativity-driven residual misses.
                return 1.0 - _conflict_miss_rate(cache.associativity)
            return cache.size_bytes / region_bytes
        raise TypeError(f"unknown access pattern {type(pattern).__name__}")

    def _l2_hit_given_l1_miss(self, pattern: MemoryAccess) -> float:
        """Conditional L2 hit fraction for references that missed L1.

        A streaming reference that misses L1 touches a brand-new line,
        which misses L2 as well; a random reference that missed L1 finds
        its line in L2 with (approximately) L2's residency fraction —
        residency is location-independent for uniform-random accesses.
        """
        if isinstance(pattern, SequentialAccess):
            return 0.0
        if isinstance(pattern, RandomAccess):
            return self._hit_fraction(self.l2, pattern)
        raise TypeError(f"unknown access pattern {type(pattern).__name__}")

    def reference_cycles(self, pattern: MemoryAccess) -> float:
        """Total expected cycles for all references in *pattern*."""
        if not isinstance(pattern, MemoryAccess):
            raise TypeError(f"expected a MemoryAccess, got {type(pattern).__name__}")
        if pattern.count == 0:
            return 0.0
        h1 = self._hit_fraction(self.l1, pattern)
        h2c = self._l2_hit_given_l1_miss(pattern)
        t1 = self.l1.hit_cycles
        t2 = self.l2.hit_cycles
        tmem = self.node.l2_miss_extra_cycles
        per_ref = (
            h1 * t1
            + (1.0 - h1) * h2c * (t1 + t2)
            + (1.0 - h1) * (1.0 - h2c) * (t1 + t2 + tmem)
        )
        return pattern.count * per_ref

    def stall_cycles(self, pattern: MemoryAccess) -> float:
        """Cycles *beyond* the 1-cycle pipelined L1 hit (the stall part).

        The CPU model overlaps L1 hits with issue; only the slower
        levels stall the pipeline.
        """
        base = pattern.count * self.l1.hit_cycles
        return max(0.0, self.reference_cycles(pattern) - base)

    def copy_cycles_per_byte(self, resident: bool = False) -> float:
        """Average cycles/byte for a bulk memory copy (load+store streams).

        Used by the shared-memory library's software-overhead model to
        cost marshalling copies.  ``resident=True`` models copies whose
        source/target fit in L2 (small control structures).
        """
        cached = self._copy_cpb.get(resident)
        if cached is not None:
            return cached
        word = 8
        if resident:
            pat: MemoryAccess = RandomAccess(count=1, word_bytes=word, region_words=1)
        else:
            # Streaming through a region far larger than L2.
            pat = SequentialAccess(count=1, word_bytes=word)
        per_word = 2.0 * self.reference_cycles(pat)  # one load + one store
        self._copy_cpb[resident] = per_word / word
        return self._copy_cpb[resident]


def _conflict_miss_rate(associativity: int) -> float:
    """Residual conflict-miss rate for a resident working set.

    Direct-mapped caches conflict noticeably; 8-way is nearly fully
    associative.  A simple 1/(4^assoc)-style decay captures the trend
    used for costing (validated against :class:`CacheSim` in tests).
    """
    return min(0.25, 1.0 / (4.0**associativity))


# ----------------------------------------------------------------------
# Behavioural simulator (validation and small traces)
# ----------------------------------------------------------------------
class CacheSim:
    """A set-associative LRU cache over explicit address traces."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[List[int]] = [[] for _ in range(config.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Touch byte *address*; returns True on hit."""
        line = address // self.config.line_bytes
        idx = line % self.config.n_sets
        ways = self._sets[idx]
        if line in ways:
            ways.remove(line)
            ways.append(line)  # most-recently-used at the tail
            self.hits += 1
            return True
        self.misses += 1
        ways.append(line)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return False

    def access_trace(self, addresses: Iterable[int]) -> float:
        """Run a whole trace; returns the hit rate."""
        n = 0
        for addr in addresses:
            self.access(int(addr))
            n += 1
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]
        self.hits = 0
        self.misses = 0


def trace_for_pattern(pattern: MemoryAccess, rng: np.random.Generator) -> np.ndarray:
    """Generate a concrete byte-address trace realising *pattern*.

    Used by the validation tests to compare :class:`CacheSim` hit rates
    against :class:`AnalyticCache` hit fractions.
    """
    if isinstance(pattern, SequentialAccess):
        return np.arange(pattern.count, dtype=np.int64) * pattern.word_bytes
    if isinstance(pattern, RandomAccess):
        idx = rng.integers(0, pattern.region_words, size=pattern.count)
        return idx.astype(np.int64) * pattern.word_bytes
    raise TypeError(f"unknown access pattern {type(pattern).__name__}")
