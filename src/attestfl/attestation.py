"""Control-flow attestation: checkpoints, hash-chained logs, signed reports.

Actors emit checkpoints as they move through a round.  Each checkpoint is
folded into a hash chain, the chain head is signed, and a verifier replays
the chain, checks the signature, and walks the label sequence against an
expected control-flow graph.  Any single change to a recorded trace, or any
execution that strays from the graph, verifiably fails.

Chain rule: digest[k] = hash(digest[k-1] + encode(checkpoint[k])), seeded
with digest[-1] = hash(b"").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import crypto

__all__ = [
    "CheckpointLabel",
    "Checkpoint",
    "ControlFlowGraph",
    "CheckpointLog",
    "AttestationReport",
    "TraceVerdict",
    "cfa_check",
    "record_checkpoint",
    "verify_chain",
    "finalize_report",
    "verify_trace",
    "DEFAULT_CLIENT_GRAPH",
    "DEFAULT_SERVER_GRAPH",
    "CHAIN_TAMPER",
    "BAD_SIGNATURE",
    "ILLEGAL_TRANSITION",
    "WRONG_ENDPOINTS",
]

GENESIS = crypto.sha256(b"")

CHAIN_TAMPER = "chain-tamper"
BAD_SIGNATURE = "bad-signature"
ILLEGAL_TRANSITION = "illegal-transition"
WRONG_ENDPOINTS = "wrong-endpoints"


class CheckpointLabel(enum.Enum):
    ROUND_START = "ROUND_START"
    TRAIN_BEGIN = "TRAIN_BEGIN"
    TRAIN_END = "TRAIN_END"
    UPDATE_HASHED = "UPDATE_HASHED"
    UPDATE_SIGNED = "UPDATE_SIGNED"
    UPDATE_SENT = "UPDATE_SENT"
    SERVER_RECEIVED = "SERVER_RECEIVED"
    SERVER_VERIFIED = "SERVER_VERIFIED"
    AGGREGATED = "AGGREGATED"
    GLOBAL_APPLIED = "GLOBAL_APPLIED"
    ROUND_END = "ROUND_END"


@dataclass(frozen=True)
class Checkpoint:
    """One observed execution event: label, emitting actor, round number."""

    label: CheckpointLabel
    actor: str
    round: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, CheckpointLabel):
            raise TypeError("label must be a CheckpointLabel")
        if self.round < 0 or self.round >= 1 << 32:
            raise ValueError("round out of u32 range")

    def encode(self) -> bytes:
        """Canonical bytes: length-prefixed label and actor, round as u32."""
        label = self.label.value.encode("utf-8")
        actor = self.actor.encode("utf-8")
        if len(actor) > 0xFFFF:
            raise ValueError("actor name too long")
        return (
            len(label).to_bytes(2, "big")
            + label
            + len(actor).to_bytes(2, "big")
            + actor
            + self.round.to_bytes(4, "big")
        )

    @classmethod
    def decode(cls, blob: bytes) -> tuple["Checkpoint", int]:
        """Parse one encoded checkpoint; returns (checkpoint, bytes consumed)."""
        pos = 0
        label_len = int.from_bytes(blob[pos : pos + 2], "big")
        pos += 2
        label = CheckpointLabel(blob[pos : pos + label_len].decode("utf-8"))
        pos += label_len
        actor_len = int.from_bytes(blob[pos : pos + 2], "big")
        pos += 2
        actor = blob[pos : pos + actor_len].decode("utf-8")
        pos += actor_len
        round_no = int.from_bytes(blob[pos : pos + 4], "big")
        pos += 4
        return cls(label=label, actor=actor, round=round_no), pos


# --------------------------------------------------------------------------- #
# expected control flow
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ControlFlowGraph:
    """Directed label graph with designated start and end labels."""

    nodes: frozenset[CheckpointLabel]
    edges: frozenset[tuple[CheckpointLabel, CheckpointLabel]]
    start: CheckpointLabel
    end: CheckpointLabel

    def __post_init__(self) -> None:
        for src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src.value}, {dst.value}) leaves the node set")
        if self.start not in self.nodes or self.end not in self.nodes:
            raise ValueError("start and end must be nodes")
        # the end label must be reachable from the start
        frontier = {self.start}
        seen = set(frontier)
        while frontier:
            nxt = {dst for src, dst in self.edges if src in frontier} - seen
            seen |= nxt
            frontier = nxt
        if self.end not in seen:
            raise ValueError("end label unreachable from start")


def _chain(labels: Sequence[CheckpointLabel]) -> frozenset[tuple[CheckpointLabel, CheckpointLabel]]:
    return frozenset(zip(labels, labels[1:]))


_CLIENT_PATH = (
    CheckpointLabel.ROUND_START,
    CheckpointLabel.TRAIN_BEGIN,
    CheckpointLabel.TRAIN_END,
    CheckpointLabel.UPDATE_HASHED,
    CheckpointLabel.UPDATE_SIGNED,
    CheckpointLabel.UPDATE_SENT,
    CheckpointLabel.ROUND_END,
)

DEFAULT_CLIENT_GRAPH = ControlFlowGraph(
    nodes=frozenset(_CLIENT_PATH),
    edges=_chain(_CLIENT_PATH),
    start=CheckpointLabel.ROUND_START,
    end=CheckpointLabel.ROUND_END,
)

_SERVER_PATH = (
    CheckpointLabel.ROUND_START,
    CheckpointLabel.SERVER_RECEIVED,
    CheckpointLabel.SERVER_VERIFIED,
    CheckpointLabel.AGGREGATED,
    CheckpointLabel.GLOBAL_APPLIED,
    CheckpointLabel.ROUND_END,
)

DEFAULT_SERVER_GRAPH = ControlFlowGraph(
    nodes=frozenset(_SERVER_PATH),
    # the receive label loops so one round can take any number of messages
    edges=_chain(_SERVER_PATH)
    | {(CheckpointLabel.SERVER_RECEIVED, CheckpointLabel.SERVER_RECEIVED)},
    start=CheckpointLabel.ROUND_START,
    end=CheckpointLabel.ROUND_END,
)


def cfa_check(
    graph: ControlFlowGraph,
    prev: Optional[CheckpointLabel],
    current: CheckpointLabel,
) -> int:
    """1 if the step is admissible, else 0.

    With no predecessor the only admissible label is the graph's start.
    Unknown labels and missing edges score 0; the function is total.
    """
    if prev is None:
        return 1 if current == graph.start else 0
    return 1 if (prev, current) in graph.edges else 0


# --------------------------------------------------------------------------- #
# hash-chained log
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LogEntry:
    checkpoint: Checkpoint
    chain_digest: bytes


@dataclass(frozen=True)
class CheckpointLog:
    """Append-only checkpoint sequence; each entry stores the chain head."""

    entries: tuple[LogEntry, ...] = ()

    @property
    def final_digest(self) -> bytes:
        return self.entries[-1].chain_digest if self.entries else GENESIS

    def labels(self) -> list[CheckpointLabel]:
        return [entry.checkpoint.label for entry in self.entries]


def record_checkpoint(log: CheckpointLog, checkpoint: Checkpoint) -> CheckpointLog:
    """Return a new log with `checkpoint` appended; prior entries are shared."""
    digest = crypto.sha256(log.final_digest + checkpoint.encode())
    return CheckpointLog(entries=log.entries + (LogEntry(checkpoint, digest),))


def verify_chain(log: CheckpointLog) -> Optional[int]:
    """Recompute the chain; None if intact, else the first bad entry index."""
    digest = GENESIS
    for index, entry in enumerate(log.entries):
        digest = crypto.sha256(digest + entry.checkpoint.encode())
        if digest != entry.chain_digest:
            return index
    return None


# --------------------------------------------------------------------------- #
# signed reports
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AttestationReport:
    """A checkpoint log, its final chain digest, and a signature over it."""

    log: CheckpointLog
    final_digest: bytes
    signature: bytes

    def to_bytes(self) -> bytes:
        body = len(self.log.entries).to_bytes(4, "big")
        for entry in self.log.entries:
            body += entry.checkpoint.encode() + entry.chain_digest
        body += self.final_digest
        body += len(self.signature).to_bytes(4, "big") + self.signature
        return b"\x01" + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AttestationReport":
        if len(blob) < 5 or blob[0] != 0x01:
            raise ValueError("bad report version")
        pos = 1
        count = int.from_bytes(blob[pos : pos + 4], "big")
        pos += 4
        entries = []
        for _ in range(count):
            checkpoint, used = Checkpoint.decode(blob[pos:])
            pos += used
            digest = blob[pos : pos + 32]
            if len(digest) != 32:
                raise ValueError("truncated chain digest")
            pos += 32
            entries.append(LogEntry(checkpoint, digest))
        final = blob[pos : pos + 32]
        if len(final) != 32:
            raise ValueError("truncated final digest")
        pos += 32
        sig_len = int.from_bytes(blob[pos : pos + 4], "big")
        pos += 4
        signature = blob[pos : pos + sig_len]
        if len(signature) != sig_len:
            raise ValueError("truncated signature")
        pos += sig_len
        if pos != len(blob):
            raise ValueError("trailing bytes in report")
        return cls(log=CheckpointLog(entries=tuple(entries)), final_digest=final, signature=signature)


def finalize_report(log: CheckpointLog, private: crypto.RsaPrivateKey) -> AttestationReport:
    """Sign the chain head, binding the whole recorded trace."""
    final = log.final_digest
    return AttestationReport(log=log, final_digest=final, signature=crypto.sign(final, private))


@dataclass(frozen=True)
class TraceVerdict:
    ok: bool
    index: Optional[int] = None
    reason: Optional[str] = None

    @classmethod
    def passed(cls) -> "TraceVerdict":
        return cls(ok=True)

    @classmethod
    def halt(cls, index: int, reason: str) -> "TraceVerdict":
        return cls(ok=False, index=index, reason=reason)


def verify_trace(
    graph: ControlFlowGraph,
    report: AttestationReport,
    public: crypto.RsaPublicKey,
) -> TraceVerdict:
    """Full trace check, in order: chain replay, report signature, every
    transition against the graph, then start and end labels.

    Returns ok, or halt(index, reason) for the first failing entry.  The
    signature check uses index len(entries), one past the last entry.
    """
    entries = report.log.entries

    bad = verify_chain(report.log)
    if bad is not None:
        return TraceVerdict.halt(bad, CHAIN_TAMPER)
    if report.final_digest != report.log.final_digest:
        return TraceVerdict.halt(max(len(entries) - 1, 0), CHAIN_TAMPER)

    if not crypto.verify(report.final_digest, report.signature, public):
        return TraceVerdict.halt(len(entries), BAD_SIGNATURE)

    prev: Optional[CheckpointLabel] = None
    for index, entry in enumerate(entries):
        if cfa_check(graph, prev, entry.checkpoint.label) == 0:
            return TraceVerdict.halt(index, ILLEGAL_TRANSITION)
        prev = entry.checkpoint.label

    if not entries:
        return TraceVerdict.halt(0, WRONG_ENDPOINTS)
    if entries[-1].checkpoint.label != graph.end:
        return TraceVerdict.halt(len(entries) - 1, WRONG_ENDPOINTS)

    return TraceVerdict.passed()
