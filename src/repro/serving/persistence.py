"""Durable snapshot tier over the in-memory :class:`~repro.engine.StateStore`.

Everything the serving stack computes dies with the process: encoded MPS
states live in a process-local LRU, so every restart starts cold and the
first wave of traffic pays full circuit simulations.  This module closes that
gap with three pieces:

* :class:`PersistentStateStore` -- a drop-in state-store tier (duck-typed to
  the :class:`~repro.engine.StateStore` surface the engine uses) that wraps
  an in-memory store, counts per-key accesses, and knows how to snapshot the
  store to disk and warm itself back up;
* **content-addressed snapshots** -- the store's ``dump_entries`` payload is
  written under ``snapshots/<sha256>.pkl`` via write-temp-then-rename, so a
  crash mid-write can never clobber the previous good snapshot, and a
  versioned :class:`SnapshotManifest` (engine fingerprint, key list, per-key
  byte sizes, payload checksum) is atomically renamed into place *after* the
  payload it references;
* :meth:`PersistentStateStore.warm_up` -- a startup pass that loads the
  hottest keys first (ordered by a persisted access log) under optional
  key/byte budgets, inserting coldest-first so the hottest entries sit at the
  most-recently-used end of the LRU before traffic lands.

Integrity is checked end to end on the read path: a truncated or corrupted
payload fails its size/checksum verification, and a partial or syntactically
broken manifest raises :class:`~repro.exceptions.PersistenceError` instead of
attaching garbage states.  Because state keys embed the ansatz and truncation
fingerprints, a snapshot is only ever restored into an engine with the same
compute policy -- restored entries reproduce every downstream overlap
bit-for-bit, which is what makes warm-started serving byte-identical to the
process that wrote the snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import StateStore
from ..exceptions import PersistenceError
from ..mps import MPS

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotManifest",
    "WarmUpReport",
    "PersistentStateStore",
]

#: Manifest schema version; a loader refuses manifests it cannot interpret.
SNAPSHOT_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"
_ACCESS_LOG_NAME = "access_log.json"
_SNAPSHOT_DIR = "snapshots"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file-then-rename.

    The temp file lives in the target directory so the final ``os.replace``
    is a same-filesystem rename: readers observe either the old complete file
    or the new complete file, never a partial write.  A crash between the
    temp write and the rename leaves only a stale ``*.tmp`` the next store
    instance sweeps away.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True)
class SnapshotManifest:
    """Versioned description of one on-disk snapshot.

    The manifest is the snapshot's source of truth: which payload file holds
    the entries, how many bytes it must contain, the checksum those bytes
    must hash to, which keys it carries (in payload order) and their per-key
    tensor sizes, plus the engine fingerprint the states were encoded under.
    """

    version: int
    fingerprint: str
    keys: Tuple[str, ...]
    entry_bytes: Dict[str, int]
    payload_file: str
    payload_bytes: int
    checksum: str
    created_at: float

    @property
    def num_entries(self) -> int:
        """Number of entries the payload carries."""
        return len(self.keys)

    def to_dict(self) -> dict:
        """JSON-friendly representation (what lands in ``MANIFEST.json``)."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "keys": list(self.keys),
            "entry_bytes": dict(self.entry_bytes),
            "payload_file": self.payload_file,
            "payload_bytes": self.payload_bytes,
            "checksum": self.checksum,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, raw: object) -> "SnapshotManifest":
        """Validate and rebuild a manifest; raises on partial/invalid input."""
        if not isinstance(raw, dict):
            raise PersistenceError(
                f"manifest must be a JSON object, got {type(raw).__name__}"
            )
        required = (
            "version",
            "fingerprint",
            "keys",
            "entry_bytes",
            "payload_file",
            "payload_bytes",
            "checksum",
            "created_at",
        )
        missing = [k for k in required if k not in raw]
        if missing:
            raise PersistenceError(f"manifest is missing fields: {missing}")
        version = raw["version"]
        if version != SNAPSHOT_VERSION:
            raise PersistenceError(
                f"manifest version {version!r} is not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        keys = raw["keys"]
        entry_bytes = raw["entry_bytes"]
        if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
            raise PersistenceError("manifest 'keys' must be a list of strings")
        if not isinstance(entry_bytes, dict) or set(entry_bytes) != set(keys):
            raise PersistenceError(
                "manifest 'entry_bytes' does not cover exactly the manifest keys"
            )
        return cls(
            version=int(version),
            fingerprint=str(raw["fingerprint"]),
            keys=tuple(keys),
            entry_bytes={str(k): int(v) for k, v in entry_bytes.items()},
            payload_file=str(raw["payload_file"]),
            payload_bytes=int(raw["payload_bytes"]),
            checksum=str(raw["checksum"]),
            created_at=float(raw["created_at"]),
        )


@dataclass(frozen=True)
class WarmUpReport:
    """Outcome of one :meth:`PersistentStateStore.warm_up` pass."""

    available: int
    loaded: int
    bytes_loaded: int
    keys: Tuple[str, ...]  # loaded keys, hottest first

    def to_dict(self) -> dict:
        """JSON-friendly representation for benchmark artifacts."""
        return {
            "available": self.available,
            "loaded": self.loaded,
            "bytes_loaded": self.bytes_loaded,
        }


_EMPTY_WARMUP = WarmUpReport(available=0, loaded=0, bytes_loaded=0, keys=())


class PersistentStateStore:
    """Durable tier wrapping an in-memory :class:`~repro.engine.StateStore`.

    Duck-types the store surface the engine touches (``get`` / ``put`` /
    ``stats``), so it can be handed to
    :class:`~repro.engine.KernelEngine` as its ``store`` and every encode
    flows through it unchanged -- with two additions: every ``get`` is
    tallied in a per-key access log (persisted next to the snapshots), and
    the whole store can be snapshotted to and warm-started from ``root``.

    Parameters
    ----------
    root:
        Directory holding ``MANIFEST.json``, ``access_log.json`` and the
        ``snapshots/`` payload files; created if absent.  Stale ``*.tmp``
        files from a crashed writer are swept on construction.
    store:
        The in-memory store to wrap; a fresh one (with ``max_bytes``) is
        created by default.  Pass an engine's existing store to make it
        durable in place.
    max_bytes:
        LRU byte budget of the freshly created store (ignored when ``store``
        is given).
    fingerprint:
        The owning engine's :attr:`~repro.engine.KernelEngine.fingerprint`.
        Recorded in every manifest and checked on restore, so a snapshot
        encoded under one compute policy is never attached under another.
    """

    def __init__(
        self,
        root: str | Path,
        store: StateStore | None = None,
        max_bytes: int | None = None,
        fingerprint: str = "",
    ) -> None:
        self.root = Path(root)
        self.snapshot_dir = self.root / _SNAPSHOT_DIR
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        self.store = store if store is not None else StateStore(max_bytes=max_bytes)
        self.fingerprint = fingerprint
        self._sweep_stale_tmp()
        self._access_counts: Dict[str, int] = self._load_access_log()

    # ------------------------------------------------------------------
    # In-memory store surface (what the engine calls).
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[MPS]:
        """Store lookup; every call (hit or miss) feeds the access log."""
        self._access_counts[key] = self._access_counts.get(key, 0) + 1
        return self.store.get(key)

    def put(self, key: str, state: MPS) -> None:
        """Insert into the wrapped store (LRU/budget rules unchanged)."""
        self.store.put(key, state)

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, key: str) -> bool:
        return key in self.store

    @property
    def bytes_in_use(self) -> int:
        """Tensor bytes currently held in memory."""
        return self.store.bytes_in_use

    @property
    def max_bytes(self) -> Optional[int]:
        """The wrapped store's LRU byte budget."""
        return self.store.max_bytes

    def stats(self):
        """The wrapped store's :class:`~repro.engine.CacheStats`."""
        return self.store.stats()

    def clear(self) -> None:
        """Drop the in-memory entries (snapshots on disk are untouched)."""
        self.store.clear()

    def keys(self) -> List[str]:
        """In-memory keys in LRU order."""
        return self.store.keys()

    def entry_sizes(self) -> Dict[str, int]:
        """Tensor bytes per in-memory key."""
        return self.store.entry_sizes()

    # ------------------------------------------------------------------
    # Access log.
    # ------------------------------------------------------------------
    @property
    def access_counts(self) -> Dict[str, int]:
        """Per-key lookup tally (hits and misses both count as interest)."""
        return dict(self._access_counts)

    def save_access_log(self) -> None:
        """Persist the access tallies atomically (also done by snapshot)."""
        data = json.dumps(self._access_counts, sort_keys=True).encode()
        _atomic_write_bytes(self.root / _ACCESS_LOG_NAME, data)

    def _load_access_log(self) -> Dict[str, int]:
        path = self.root / _ACCESS_LOG_NAME
        if not path.exists():
            return {}
        try:
            raw = json.loads(path.read_text())
            return {str(k): int(v) for k, v in raw.items()}
        except (ValueError, AttributeError):
            # The log is advisory (it only orders the warm-up); a corrupt
            # one must not brick startup the way a corrupt snapshot should.
            return {}

    def _sweep_stale_tmp(self) -> None:
        for directory in (self.root, self.snapshot_dir):
            for stale in directory.glob("*.tmp"):
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - racing sweepers
                    pass

    # ------------------------------------------------------------------
    # Snapshot write path.
    # ------------------------------------------------------------------
    def snapshot(self, keys: Sequence[str] | None = None) -> SnapshotManifest:
        """Write a durable snapshot of (a subset of) the in-memory store.

        The payload lands first, under its own checksum-derived name, then
        the manifest is renamed over ``MANIFEST.json`` -- so at every instant
        the manifest on disk references a payload that is already complete.
        The access log is persisted alongside so a future warm-up knows the
        heat ordering.
        """
        selected = list(keys) if keys is not None else self.store.keys()
        payload = self.store.dump_entries(selected)
        checksum = hashlib.sha256(payload).hexdigest()
        sizes = self.store.entry_sizes()
        manifest = SnapshotManifest(
            version=SNAPSHOT_VERSION,
            fingerprint=self.fingerprint,
            keys=tuple(selected),
            entry_bytes={k: sizes[k] for k in selected},
            payload_file=f"{_SNAPSHOT_DIR}/{checksum}.pkl",
            payload_bytes=len(payload),
            checksum=checksum,
            created_at=time.time(),
        )
        _atomic_write_bytes(self.root / manifest.payload_file, payload)
        _atomic_write_bytes(
            self.root / _MANIFEST_NAME,
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True).encode(),
        )
        self.save_access_log()
        return manifest

    # ------------------------------------------------------------------
    # Snapshot read path.
    # ------------------------------------------------------------------
    def has_snapshot(self) -> bool:
        """Whether a manifest exists at all (it may still fail validation)."""
        return (self.root / _MANIFEST_NAME).exists()

    def latest_manifest(self) -> Optional[SnapshotManifest]:
        """The current manifest, ``None`` when the tier has never snapshot.

        A manifest that exists but cannot be parsed or is missing fields --
        the partial-write shape a crashed non-atomic writer would leave --
        raises :class:`~repro.exceptions.PersistenceError`.
        """
        path = self.root / _MANIFEST_NAME
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
        except ValueError as exc:
            raise PersistenceError(f"manifest {path} is not valid JSON: {exc}") from exc
        return SnapshotManifest.from_dict(raw)

    def read_payload(self, manifest: SnapshotManifest) -> bytes:
        """The manifest's payload bytes, integrity-checked.

        A missing file, a size short of ``payload_bytes`` (truncation) or a
        checksum mismatch (bit corruption) each raise
        :class:`~repro.exceptions.PersistenceError`; corrupt state never
        reaches the deserialiser.
        """
        path = self.root / manifest.payload_file
        if not path.exists():
            raise PersistenceError(f"snapshot payload {path} is missing")
        payload = path.read_bytes()
        if len(payload) != manifest.payload_bytes:
            raise PersistenceError(
                f"snapshot payload {path} is truncated: "
                f"{len(payload)} bytes on disk, manifest expects "
                f"{manifest.payload_bytes}"
            )
        checksum = hashlib.sha256(payload).hexdigest()
        if checksum != manifest.checksum:
            raise PersistenceError(
                f"snapshot payload {path} failed its checksum: "
                f"{checksum} != {manifest.checksum}"
            )
        return payload

    def _check_fingerprint(self, manifest: SnapshotManifest) -> None:
        if (
            self.fingerprint
            and manifest.fingerprint
            and manifest.fingerprint != self.fingerprint
        ):
            raise PersistenceError(
                "snapshot was written under a different engine fingerprint; "
                "its states cannot serve this compute policy"
            )

    def restore(self) -> int:
        """Load the whole latest snapshot; returns entries accepted.

        Raises when the tier has no snapshot -- callers that tolerate a cold
        start should use :meth:`warm_up`, which treats an empty tier as an
        empty prefetch rather than an error.
        """
        manifest = self.latest_manifest()
        if manifest is None:
            raise PersistenceError(f"no snapshot manifest under {self.root}")
        self._check_fingerprint(manifest)
        return self.store.load_entries(self.read_payload(manifest))

    def warm_up(
        self,
        max_keys: int | None = None,
        max_bytes: int | None = None,
    ) -> WarmUpReport:
        """Prefetch the hottest snapshot entries before traffic lands.

        Keys are ranked by the persisted access log (ties broken by payload
        order, so the pass is deterministic), truncated to the optional
        ``max_keys`` / ``max_bytes`` budgets, and inserted coldest-first so
        the hottest key ends up most-recently-used -- under a byte budget the
        LRU then sheds exactly the coldest prefetched entries first.  An
        empty tier is a normal cold start and returns an empty report;
        corrupt or truncated snapshot data raises.
        """
        if not self.has_snapshot():
            return _EMPTY_WARMUP
        manifest = self.latest_manifest()
        assert manifest is not None
        self._check_fingerprint(manifest)
        entries = self._validated_entries(self.read_payload(manifest))

        order = {key: i for i, key in enumerate(manifest.keys)}
        ranked = sorted(
            entries,
            key=lambda k: (-self._access_counts.get(k, 0), order.get(k, len(order))),
        )
        selected: List[str] = []
        budget = 0
        for key in ranked:
            nbytes = manifest.entry_bytes.get(key, 0)
            if max_keys is not None and len(selected) >= max_keys:
                break
            if max_bytes is not None and budget + nbytes > max_bytes:
                continue
            selected.append(key)
            budget += nbytes
        for key in reversed(selected):
            self.store.put(key, entries[key])
        return WarmUpReport(
            available=len(entries),
            loaded=len(selected),
            bytes_loaded=budget,
            keys=tuple(selected),
        )

    @staticmethod
    def _validated_entries(payload: bytes) -> Dict[str, MPS]:
        """Deserialise a dump payload into a key -> state mapping, strictly."""
        try:
            entries = pickle.loads(payload)
        except Exception as exc:
            raise PersistenceError(
                f"snapshot payload does not deserialise: {exc}"
            ) from exc
        if not isinstance(entries, list) or not all(
            isinstance(item, (tuple, list))
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], MPS)
            for item in entries
        ):
            raise PersistenceError("snapshot payload is not a StateStore entry dump")
        return dict(entries)
