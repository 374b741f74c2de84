"""In-process simulated communicator and the communication cost model.

:class:`SimulatedComm` provides the message-passing substrate the
distribution strategies run on.  It follows a BSP (bulk-synchronous
parallel) discipline: within a *superstep* every rank may post messages;
:meth:`SimulatedComm.deliver` then moves all posted messages into the
recipients' mailboxes, after which the next superstep can read them.  This is
exactly the communication pattern the round-robin strategy needs (a ring
shift per step) and it keeps execution deterministic and single-threaded
while still accounting for every byte that a real MPI run would move.

:class:`CommunicationModel` converts message sizes into modelled transfer
times (latency + size / bandwidth), which is how the communication bars of
Figure 8 are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from ..exceptions import CommunicationError

__all__ = ["SimulatedComm", "CommunicationModel"]


@dataclass(frozen=True)
class CommunicationModel:
    """Latency-bandwidth model of inter-process transfers.

    Defaults approximate an HPC interconnect (a few microseconds of latency,
    tens of GB/s of bandwidth); examples can pass a slower model to study
    communication-bound regimes.
    """

    latency_s: float = 5.0e-6
    bandwidth_bytes_per_s: float = 20.0e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise CommunicationError("latency must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise CommunicationError("bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Modelled seconds to move ``nbytes`` between two processes."""
        if nbytes < 0:
            raise CommunicationError("nbytes must be non-negative")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass
class _Message:
    source: int
    dest: int
    payload: Any
    nbytes: int
    tag: str = ""


class SimulatedComm:
    """Deterministic in-process communicator with per-rank byte accounting."""

    def __init__(self, size: int, model: CommunicationModel | None = None) -> None:
        if size < 1:
            raise CommunicationError(f"communicator size must be >= 1, got {size}")
        self._size = size
        self.model = model if model is not None else CommunicationModel()
        self._mailboxes: List[List[_Message]] = [[] for _ in range(size)]
        self._pending: List[_Message] = []
        self.bytes_sent = np.zeros(size, dtype=float)
        self.messages_sent = np.zeros(size, dtype=int)
        self.send_time_s = np.zeros(size, dtype=float)
        self.recv_time_s = np.zeros(size, dtype=float)
        self._supersteps = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of simulated ranks."""
        return self._size

    @property
    def supersteps(self) -> int:
        """Number of completed supersteps (``deliver`` calls)."""
        return self._supersteps

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self._size):
            raise CommunicationError(
                f"rank {rank} out of range for communicator of size {self._size}"
            )

    # ------------------------------------------------------------------
    def send(
        self, source: int, dest: int, payload: Any, nbytes: int, tag: str = ""
    ) -> None:
        """Post a message; it becomes visible to ``dest`` after ``deliver``.

        ``nbytes`` is the logical size of the payload (e.g. the memory
        footprint of the MPS being shipped) and drives the modelled
        communication time on both ends.
        """
        self._check_rank(source)
        self._check_rank(dest)
        if source == dest:
            raise CommunicationError("a rank cannot send a message to itself")
        if nbytes < 0:
            raise CommunicationError("nbytes must be non-negative")
        self._pending.append(_Message(source, dest, payload, nbytes, tag))
        self.bytes_sent[source] += nbytes
        self.messages_sent[source] += 1
        self.send_time_s[source] += self.model.transfer_time(nbytes)

    def deliver(self) -> None:
        """Close the current superstep: move all posted messages to mailboxes."""
        for msg in self._pending:
            self._mailboxes[msg.dest].append(msg)
            self.recv_time_s[msg.dest] += self.model.transfer_time(msg.nbytes)
        self._pending = []
        self._supersteps += 1

    def receive_all(self, rank: int, tag: str | None = None) -> List[Any]:
        """Drain (and return) the payloads waiting in ``rank``'s mailbox.

        When ``tag`` is given only messages with that tag are drained; the
        rest stay queued.
        """
        self._check_rank(rank)
        if tag is None:
            payloads = [m.payload for m in self._mailboxes[rank]]
            self._mailboxes[rank] = []
            return payloads
        kept: List[_Message] = []
        payloads = []
        for m in self._mailboxes[rank]:
            if m.tag == tag:
                payloads.append(m.payload)
            else:
                kept.append(m)
        self._mailboxes[rank] = kept
        return payloads

    def pending_count(self, rank: int) -> int:
        """Number of undelivered messages waiting for ``rank``."""
        self._check_rank(rank)
        return len(self._mailboxes[rank])

    # ------------------------------------------------------------------
    def gather(self, payloads_by_rank: Dict[int, Any], root: int = 0) -> List[Any]:
        """Model a gather of one payload per rank to ``root``.

        Returns the payloads ordered by rank.  Byte accounting charges each
        non-root rank one message; payload sizes are estimated with
        ``numpy`` ``nbytes`` when available, otherwise 0.
        """
        self._check_rank(root)
        gathered = []
        for rank in range(self._size):
            payload = payloads_by_rank.get(rank)
            gathered.append(payload)
            if rank != root and payload is not None:
                nbytes = int(getattr(payload, "nbytes", 0))
                self.bytes_sent[rank] += nbytes
                self.messages_sent[rank] += 1
                self.send_time_s[rank] += self.model.transfer_time(nbytes)
                self.recv_time_s[root] += self.model.transfer_time(nbytes)
        return gathered

    def communication_summary(self) -> Dict[str, float]:
        """Aggregate communication statistics across ranks."""
        return {
            "total_bytes": float(self.bytes_sent.sum()),
            "total_messages": int(self.messages_sent.sum()),
            "max_rank_bytes": float(self.bytes_sent.max()),
            "max_rank_send_time_s": float(self.send_time_s.max()),
            "max_rank_recv_time_s": float(self.recv_time_s.max()),
            "supersteps": self._supersteps,
        }
