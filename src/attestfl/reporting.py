"""Round reports, security metrics, and CSV output.

Metric definitions:
  verification rate    share of updates sent by honest clients that passed
                       the digest and signature checks, as a percentage of
                       honest updates received
  authentication rate  share of accepted updates attributable to a
                       registered identity, as a percentage of accepted
  incidents            accepted updates whose (digest, signature, public key)
                       audit record is missing or fails verification when
                       replayed from that stored material alone

Rates are None when their denominator is zero and appear as "na" in CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import crypto

__all__ = [
    "REASON_OK",
    "REASON_UNKNOWN_IDENTITY",
    "REASON_BAD_SIGNATURE",
    "REASON_DIGEST_MISMATCH",
    "REASON_REPLAYED_ROUND",
    "REASON_CFA_HALT",
    "REASON_DECRYPT_FAILURE",
    "REASON_MALFORMED",
    "CSV_HEADER",
    "AuditRecord",
    "MessageOutcome",
    "RoundReport",
    "MetricsTable",
    "replay_audit_record",
    "compute_metrics",
    "emit_csv",
]

REASON_OK = "ok"
REASON_UNKNOWN_IDENTITY = "unknown-identity"
REASON_BAD_SIGNATURE = "bad-signature"
REASON_DIGEST_MISMATCH = "digest-mismatch"
REASON_REPLAYED_ROUND = "replayed-round"
REASON_CFA_HALT = "cfa-halt"
REASON_DECRYPT_FAILURE = "decrypt-failure"
# wire blobs that cannot be parsed never reach verification; they are
# recorded with this reason at the reporting level only
REASON_MALFORMED = "malformed"

# reasons that can only be assigned after the digest and signature checks
# have both passed (acceptance, or a failure later in the check order)
_PASSED_INTEGRITY = frozenset({REASON_OK, REASON_REPLAYED_ROUND, REASON_CFA_HALT})

CSV_HEADER = (
    "round,client_count,verification_rate,authentication_rate,"
    "non_repudiation_incidents,accuracy,duration_ms"
)


@dataclass(frozen=True)
class AuditRecord:
    """Everything needed to re-verify an accepted update later."""

    round: int
    client_id: str
    digest: bytes
    signature: bytes
    public_key: Optional[bytes]  # serialized verification key, if one was registered


def replay_audit_record(record: AuditRecord) -> bool:
    """Re-run the signature check from stored material alone."""
    if record.public_key is None:
        return False
    try:
        public = crypto.RsaPublicKey.from_bytes(record.public_key)
    except ValueError:
        return False
    return crypto.verify(record.digest, record.signature, public)


@dataclass(frozen=True)
class MessageOutcome:
    """Per-message verdict bookkeeping for one round."""

    client_id: str
    reason: str
    honest: bool  # sent by an honest registered client (possibly tampered in transit)
    attributable: bool  # claimed identity was found in the registry
    audit: Optional[AuditRecord] = None  # set exactly when accepted; the server keeps none

    @property
    def accepted(self) -> bool:
        return self.reason == REASON_OK


@dataclass
class RoundReport:
    round: int
    outcomes: list[MessageOutcome]
    verification_rate: Optional[float]
    authentication_rate: Optional[float]
    non_repudiation_incidents: int
    accuracy: float
    duration_s: float

    @property
    def accepted_count(self) -> int:
        return sum(1 for o in self.outcomes if o.accepted)


def compute_metrics(outcomes: Sequence[MessageOutcome]) -> tuple[Optional[float], Optional[float], int]:
    """(verification rate, authentication rate, incident count) for one round."""
    honest = [o for o in outcomes if o.honest]
    if honest:
        passed = sum(1 for o in honest if o.reason in _PASSED_INTEGRITY)
        verification = 100.0 * passed / len(honest)
    else:
        verification = None

    accepted = [o for o in outcomes if o.accepted]
    if accepted:
        attributable = sum(1 for o in accepted if o.attributable)
        authentication = 100.0 * attributable / len(accepted)
    else:
        authentication = None

    incidents = sum(1 for o in accepted if o.audit is None or not replay_audit_record(o.audit))
    return verification, authentication, incidents


@dataclass
class MetricsTable:
    reports: list[RoundReport] = field(default_factory=list)
    client_count: int = 0
    aborted: Optional[str] = None  # reason text when a run stopped early

    @property
    def final_accuracy(self) -> float:
        if not self.reports:
            raise ValueError("no rounds recorded")
        return self.reports[-1].accuracy

    @property
    def total_incidents(self) -> int:
        return sum(r.non_repudiation_incidents for r in self.reports)

    def rows(self) -> list[tuple]:
        """Per round `(round, verification, authentication, incidents, accuracy,
        duration_s)`, then `("summary", mean of each rate over the rounds that
        define it or None, total incidents, final accuracy, total duration)`.
        The CSV and the CLI both print these; an empty table raises ValueError.
        """
        rows = [
            (r.round, r.verification_rate, r.authentication_rate,
             r.non_repudiation_incidents, r.accuracy, r.duration_s)
            for r in self.reports
        ]

        def mean(column: int) -> Optional[float]:
            values = [row[column] for row in rows if row[column] is not None]
            return sum(values) / len(values) if values else None

        total_duration = sum(row[5] for row in rows)
        return rows + [("summary", mean(1), mean(2), self.total_incidents, self.final_accuracy, total_duration)]


def _fmt_rate(value: Optional[float]) -> str:
    return "na" if value is None else repr(value)


def emit_csv(table: MetricsTable, path: str) -> None:
    """Write `table.rows()` under `CSV_HEADER`, rates as `repr` or "na".

    An empty table raises ValueError before the file is opened.  Every field
    but duration_ms is deterministic for a fixed table; that column carries
    measured wall-clock time.
    """
    rows = table.rows()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for label, *rates, incidents, accuracy, duration_s in rows:
            rates = [_fmt_rate(rate) for rate in rates]
            writer.writerow([label, table.client_count, *rates, incidents, repr(accuracy), round(duration_s * 1000)])
        if table.aborted:
            fh.write(f"# aborted: {table.aborted}\n")
