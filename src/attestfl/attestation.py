"""Control-flow attestation: checkpoints, hash-chained traces recorded in
place, signed reports.

Actors emit checkpoints as they move through a round.  Each checkpoint is
appended to a trace, a plain list whose entries carry the running chain
head; the head is signed, and a verifier replays the chain, checks the
signature, and walks the checkpoints against an expected control-flow graph
and the one actor and round they must name.  Any single change to a
recorded trace, or any execution that strays from the graph, verifiably
fails.

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
    "LogEntry",
    "AttestationReport",
    "TraceVerdict",
    "record_checkpoint",
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

_REPORT_VERSION = b"\x01"

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
        return (
            crypto.prefixed(self.label.value.encode("utf-8"), 2)
            + crypto.prefixed(self.actor.encode("utf-8"), 2)
            + self.round.to_bytes(4, "big")
        )

    @classmethod
    def read(cls, reader: crypto.Reader) -> "Checkpoint":
        """Read one encoded checkpoint; ValueError if a field is malformed or
        runs past the end of the reader's buffer."""
        label = CheckpointLabel(reader.prefixed(2).decode("utf-8"))
        actor = reader.prefixed(2).decode("utf-8")
        return cls(label=label, actor=actor, round=reader.uint(4))


# --------------------------------------------------------------------------- #
# expected control flow: a graph is the set of its (from, to) label edges;
# every trace starts at ROUND_START and ends at ROUND_END
# --------------------------------------------------------------------------- #


def _chain(*labels: CheckpointLabel) -> frozenset[tuple[CheckpointLabel, CheckpointLabel]]:
    return frozenset(zip(labels, labels[1:]))


DEFAULT_CLIENT_GRAPH = _chain(
    CheckpointLabel.ROUND_START,
    CheckpointLabel.TRAIN_BEGIN,
    CheckpointLabel.TRAIN_END,
    CheckpointLabel.UPDATE_HASHED,
    CheckpointLabel.UPDATE_SIGNED,
    CheckpointLabel.UPDATE_SENT,
    CheckpointLabel.ROUND_END,
)

# the receive label loops, or is skipped, so one round can take any number
# of messages, none included
DEFAULT_SERVER_GRAPH = _chain(
    CheckpointLabel.ROUND_START,
    CheckpointLabel.SERVER_RECEIVED,
    CheckpointLabel.SERVER_VERIFIED,
    CheckpointLabel.AGGREGATED,
    CheckpointLabel.GLOBAL_APPLIED,
    CheckpointLabel.ROUND_END,
) | {
    (CheckpointLabel.SERVER_RECEIVED, CheckpointLabel.SERVER_RECEIVED),
    (CheckpointLabel.ROUND_START, CheckpointLabel.SERVER_VERIFIED),
}


# --------------------------------------------------------------------------- #
# hash-chained traces and signed reports
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class LogEntry:
    checkpoint: Checkpoint
    chain_digest: bytes


def _head(entries: Sequence[LogEntry]) -> bytes:
    return entries[-1].chain_digest if entries else GENESIS


def record_checkpoint(trace: list[LogEntry], checkpoint: Checkpoint) -> None:
    """Append `checkpoint` to `trace` in place, chained onto its head."""
    trace.append(LogEntry(checkpoint, crypto.sha256(_head(trace) + checkpoint.encode())))


@dataclass(frozen=True)
class AttestationReport:
    """Trace entries, the final chain digest, and a signature over it."""

    entries: tuple[LogEntry, ...]
    final_digest: bytes
    signature: bytes

    def to_bytes(self) -> bytes:
        """Version 0x01, entry count as u32, each checkpoint with its chain
        digest, the final digest, then the u32-prefixed signature."""
        return b"".join(
            [_REPORT_VERSION, len(self.entries).to_bytes(4, "big")]
            + [entry.checkpoint.encode() + entry.chain_digest for entry in self.entries]
            + [self.final_digest, crypto.prefixed(self.signature, 4)]
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AttestationReport":
        """Strict inverse of `to_bytes`; ValueError on any structural defect."""
        reader = crypto.Reader(blob)
        if reader.take(1) != _REPORT_VERSION:
            raise ValueError("bad report version")
        count = reader.uint(4)
        entries = tuple(LogEntry(Checkpoint.read(reader), reader.take(crypto.DIGEST_LEN)) for _ in range(count))
        final = reader.take(crypto.DIGEST_LEN)
        signature = reader.prefixed(4)
        reader.close()
        return cls(entries=entries, final_digest=final, signature=signature)


def finalize_report(trace: Sequence[LogEntry], private: crypto.RsaPrivateKey) -> AttestationReport:
    """Sign the chain head, binding the whole recorded trace.  The report
    keeps a snapshot, so later appends to `trace` do not change it."""
    final = _head(trace)
    return AttestationReport(entries=tuple(trace), final_digest=final, signature=crypto.sign(final, private))


@dataclass(frozen=True)
class TraceVerdict:
    """Halt at entry `index` for `reason`; both None when the trace passed."""

    index: Optional[int] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.reason is None


def verify_trace(
    graph: frozenset[tuple[CheckpointLabel, CheckpointLabel]],
    report: AttestationReport,
    public: crypto.RsaPublicKey,
    actor: str,
    round_no: int,
) -> TraceVerdict:
    """Full trace check, in order: chain replay, report signature, every
    step against the graph, then the end label.

    A step is admissible when its checkpoint names `actor` and `round_no`
    and its label is ROUND_START as the first entry, or follows the previous
    label along an edge of `graph`; so a trace lifted from another actor or
    round halts as an illegal transition.  The last label must be ROUND_END.
    Returns a passing verdict, or the index and reason of the first failing
    entry.  The signature check uses index len(entries), one past the last.
    """
    entries = report.entries

    digest = GENESIS
    for index, entry in enumerate(entries):
        digest = crypto.sha256(digest + entry.checkpoint.encode())
        if digest != entry.chain_digest:
            return TraceVerdict(index, CHAIN_TAMPER)
    if report.final_digest != digest:
        return TraceVerdict(max(len(entries) - 1, 0), CHAIN_TAMPER)

    if not crypto.verify(report.final_digest, report.signature, public):
        return TraceVerdict(len(entries), BAD_SIGNATURE)

    prev: Optional[CheckpointLabel] = None
    for index, entry in enumerate(entries):
        cp = entry.checkpoint
        step_ok = cp.label is CheckpointLabel.ROUND_START if prev is None else (prev, cp.label) in graph
        if cp.actor != actor or cp.round != round_no or not step_ok:
            return TraceVerdict(index, ILLEGAL_TRANSITION)
        prev = cp.label

    if prev is not CheckpointLabel.ROUND_END:
        return TraceVerdict(max(len(entries) - 1, 0), WRONG_ENDPOINTS)

    return TraceVerdict()
