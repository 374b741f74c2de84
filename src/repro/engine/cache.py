"""Content-addressed MPS state cache with LRU eviction.

Encoding a data point -- building the feature-map circuit and simulating it to
an MPS -- is the linear-in-``N`` but individually expensive half of the
paper's cost decomposition (about 2 s per point at full scale).  The same
point is routinely encoded several times across a workflow: once for the
training Gram matrix, again for the test cross matrix if splits overlap, and
again for every inference call that revisits a known point.

:class:`StateStore` removes that redundancy.  States are keyed by the exact
bytes of the feature row together with fingerprints of the ansatz and the
truncation/simulation policy, so a hit is only possible when the resulting
MPS would be bit-for-bit reproducible.  Eviction is least-recently-used under
an optional byte budget measured in actual MPS tensor bytes, and hit/miss
statistics are exported for benchmarks and serving dashboards.

Stored states are treated as immutable: consumers only run inner products and
local expectation values on them, neither of which mutates the MPS.  Callers
that need to apply further gates must ``copy()`` first.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import AnsatzConfig, SimulationConfig
from ..exceptions import EngineError
from ..mps import MPS

__all__ = [
    "CacheStats",
    "ENCODER_CONTRACT",
    "StateStore",
    "ansatz_fingerprint",
    "simulation_fingerprint",
    "state_key",
    "serialize_states",
    "deserialize_states",
]


def ansatz_fingerprint(ansatz: AnsatzConfig) -> str:
    """Stable string identifying a feature-map configuration."""
    items = sorted(ansatz.to_dict().items())
    return "ansatz:" + ";".join(f"{k}={v!r}" for k, v in items)


#: The encoder contract stored states were produced under: rows padded to
#: structure-fixed shapes in one stacked sweep over the sorted-edge, merged
#: MPS steps of :func:`repro.circuits.feature_map_gate_stacks`, each state a
#: function of its row alone (:mod:`repro.mps.encoding`).  Change it
#: whenever an encode's bytes may change, so stores and snapshots of another
#: encoder never mix with fresh states.
ENCODER_CONTRACT = "padded-sweep-2"


def simulation_fingerprint(config: SimulationConfig) -> str:
    """Stable string identifying the encoder and its simulation policy.

    The :data:`ENCODER_CONTRACT` tag and every field that can change the
    resulting tensors (cut-off, bond cap, lossy-cap flag, dtype, memory
    tracking) participate, so two backends sharing a policy share cache
    entries while any policy or encoder change is a miss -- and a persisted
    snapshot from another encoder is refused.
    """
    items = sorted(config.to_dict().items())
    return f"sim:encoder={ENCODER_CONTRACT};" + ";".join(f"{k}={v!r}" for k, v in items)


def state_key(
    feature_row: np.ndarray, ansatz_fp: str, simulation_fp: str
) -> str:
    """Content-addressed cache key for one encoded data point.

    The feature row is hashed by value (canonical float64 bytes), so
    numerically identical rows collide regardless of the array they came
    from, while any change to the data, ansatz or truncation policy yields a
    different key.
    """
    row = np.ascontiguousarray(np.asarray(feature_row, dtype=np.float64)).ravel()
    h = hashlib.blake2b(digest_size=20)
    h.update(row.tobytes())
    h.update(ansatz_fp.encode())
    h.update(simulation_fp.encode())
    return h.hexdigest()


def serialize_states(states: Sequence[MPS]) -> bytes:
    """Serialise a list of encoded MPS for cross-process shipping.

    The site tensors are exact complex128 arrays, so deserialised states
    reproduce every downstream overlap bit-for-bit -- the property the
    distributed cross-Gram fan-out and the serving layer's shared landmark
    store rely on.  Serialise once, attach in every worker.
    """
    return pickle.dumps(list(states), protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_states(payload: bytes) -> List[MPS]:
    """Inverse of :func:`serialize_states`."""
    states = pickle.loads(payload)
    if not isinstance(states, list) or not all(isinstance(s, MPS) for s in states):
        raise EngineError("payload does not deserialise to a list of MPS states")
    return states


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a :class:`StateStore`'s counters."""

    hits: int
    misses: int
    evictions: int
    num_entries: int
    bytes_in_use: int
    max_bytes: Optional[int]

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly representation for benchmark artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "num_entries": self.num_entries,
            "bytes_in_use": self.bytes_in_use,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
        }


class StateStore:
    """LRU cache of encoded MPS states under an optional byte budget.

    Parameters
    ----------
    max_bytes:
        Eviction budget measured in MPS tensor bytes
        (:attr:`repro.mps.MPS.memory_bytes`).  ``None`` disables eviction.
        A state larger than the whole budget is simply not retained.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise EngineError(f"max_bytes must be >= 0 or None, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, MPS]" = OrderedDict()
        self._entry_bytes: dict[str, int] = {}
        self._bytes_in_use = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def bytes_in_use(self) -> int:
        """Current total tensor bytes held."""
        return self._bytes_in_use

    def get(self, key: str) -> MPS | None:
        """Return the cached state for ``key`` (and mark it recently used)."""
        state = self._entries.get(key)
        if state is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return state

    def put(self, key: str, state: MPS) -> None:
        """Insert (or refresh) a state, evicting LRU entries over budget."""
        nbytes = state.memory_bytes
        if key in self._entries:
            self._bytes_in_use -= self._entry_bytes[key]
            del self._entries[key]
            del self._entry_bytes[key]
        if self.max_bytes is not None and nbytes > self.max_bytes:
            # The state alone busts the budget; caching it would immediately
            # evict everything else for no reuse benefit.
            return
        self._entries[key] = state
        self._entry_bytes[key] = nbytes
        self._bytes_in_use += nbytes
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        if self.max_bytes is None:
            return
        while self._bytes_in_use > self.max_bytes and len(self._entries) > 1:
            old_key, _old_state = self._entries.popitem(last=False)
            self._bytes_in_use -= self._entry_bytes.pop(old_key)
            self._evictions += 1
        # A single over-budget survivor cannot happen (rejected in put), but
        # guard against pathological budgets of 0 with entries present.
        if (
            self._bytes_in_use > self.max_bytes and len(self._entries) == 1
        ):  # pragma: no cover - defensive
            old_key, _old_state = self._entries.popitem(last=False)
            self._bytes_in_use -= self._entry_bytes.pop(old_key)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        self._entries.clear()
        self._entry_bytes.clear()
        self._bytes_in_use = 0

    # ------------------------------------------------------------------
    def dump_entries(self, keys: Sequence[str] | None = None) -> bytes:
        """Serialise (a subset of) the store for attachment in another process.

        ``keys`` selects which entries to ship (all of them by default);
        unknown keys raise so a serving layer cannot silently ship an
        incomplete landmark set.  Dumping does not count as a lookup.
        """
        if keys is None:
            selected = list(self._entries.items())
        else:
            missing = [k for k in keys if k not in self._entries]
            if missing:
                raise EngineError(
                    f"cannot dump {len(missing)} unknown store key(s): "
                    f"{missing[:3]}..."
                    if len(missing) > 3
                    else f"cannot dump unknown store key(s): {missing}"
                )
            selected = [(k, self._entries[k]) for k in keys]
        return pickle.dumps(selected, protocol=pickle.HIGHEST_PROTOCOL)

    def load_entries(self, payload: bytes) -> int:
        """Attach entries dumped by :meth:`dump_entries`; returns the count
        of entries actually accepted.

        Loaded states go through the normal :meth:`put` path, so the byte
        budget and LRU order apply unchanged.  Typical use: the parent
        process dumps its landmark states once, every worker attaches them
        at start-up, and worker-side encodes of those rows become pure cache
        hits.

        The payload shape is validated before any entry is inserted, so a
        malformed blob raises :class:`~repro.exceptions.EngineError` instead
        of an arbitrary unpickling exception and never leaves the store
        half-loaded.  Entries whose tensor bytes alone exceed ``max_bytes``
        are *skipped* (they could never be retained and would only churn the
        LRU) and do not contribute to the returned count.
        """
        try:
            entries = pickle.loads(payload)
        except Exception as exc:
            raise EngineError(
                f"payload does not deserialise to a StateStore entry dump: {exc}"
            ) from exc
        if not isinstance(entries, list) or not all(
            isinstance(item, (tuple, list))
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], MPS)
            for item in entries
        ):
            raise EngineError("payload is not a StateStore entry dump")
        count = 0
        for key, state in entries:
            if self.max_bytes is not None and state.memory_bytes > self.max_bytes:
                continue
            self.put(key, state)
            count += 1
        return count

    def keys(self) -> List[str]:
        """Cached keys in LRU order (least recently used first).

        This is exactly the order :meth:`dump_entries` serialises when given
        no explicit key list, so a snapshot manifest can record the payload's
        layout without deserialising it.
        """
        return list(self._entries)

    def entry_sizes(self) -> dict[str, int]:
        """Tensor bytes per cached key.

        Snapshot manifests persist these sizes so a warm-up pass can budget
        its prefetch without deserialising any state first.
        """
        return dict(self._entry_bytes)

    def stats(self) -> CacheStats:
        """Current counter snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            num_entries=len(self._entries),
            bytes_in_use=self._bytes_in_use,
            max_bytes=self.max_bytes,
        )
