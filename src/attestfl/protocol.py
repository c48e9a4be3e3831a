"""Client/server round protocol: signed updates, verification, aggregation.

One round, from the server's point of view:

  1. broadcast the current global parameters
  2. each client trains locally and returns a signed, attested update
     (optionally sealed under its session key)
  3. the server checks every message in a fixed order -- decrypt, identity,
     digest, signature, freshness, attestation -- and discards anything
     that fails, recording why
  4. surviving updates are combined by a data-size-weighted mean and added
     to the global parameters
  5. the server checkpoints its own pipeline and self-verifies the trace
     before committing the new state and the round's audit records; a
     round that aborts leaves the server exactly as it was

Verification order matters: a forged sender must be rejected as
unknown-identity even when its payload is internally consistent, and a
replay must fail freshness before its stale attestation is consulted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from . import attestation, crypto, models, reporting
from .attestation import (
    AttestationReport,
    Checkpoint,
    CheckpointLabel,
    CheckpointLog,
    ControlFlowGraph,
    DEFAULT_CLIENT_GRAPH,
    DEFAULT_SERVER_GRAPH,
    finalize_report,
    record_checkpoint,
    verify_trace,
)
from .datasets import Dataset
from .models import Model, TrainingConfig, TrainingError
from .params import ParameterVector
from .reporting import (
    AuditRecord,
    MessageOutcome,
    REASON_BAD_SIGNATURE,
    REASON_CFA_HALT,
    REASON_DECRYPT_FAILURE,
    REASON_DIGEST_MISMATCH,
    REASON_MALFORMED,
    REASON_OK,
    REASON_REPLAYED_ROUND,
    REASON_UNKNOWN_IDENTITY,
    RoundReport,
)

__all__ = [
    "ProtocolError",
    "WireFormatError",
    "DuplicateClientError",
    "AggregationError",
    "RegistryEntry",
    "VerificationVerdict",
    "SignedUpdate",
    "build_signed_update",
    "Delivery",
    "GlobalModelState",
    "apply_global",
    "advance_round",
    "ClientActor",
    "client_round",
    "Server",
    "server_verify",
    "aggregate",
    "run_round",
]

_WIRE_VERSION = 0x01
_FLAG_PLAINTEXT = 0x00
_FLAG_SEALED = 0x01


class ProtocolError(RuntimeError):
    """Round orchestration reached a state it must not commit."""


class WireFormatError(ValueError):
    """A serialized update could not be parsed."""


class DuplicateClientError(ValueError):
    """A client id was registered twice."""


class AggregationError(ValueError):
    """The accepted updates cannot be combined."""


# --------------------------------------------------------------------------- #
# identity registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RegistryEntry:
    client_id: str
    sig_public: crypto.RsaPublicKey
    dh_public: int


# --------------------------------------------------------------------------- #
# signed update message and its wire form
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SignedUpdate:
    """One client's contribution for one round.

    Carries either the parameter update in the clear or a sealed envelope,
    never both.  The digest and signature always cover the canonical
    plaintext encoding, so sealing does not change what is signed.
    """

    client_id: str
    round: int
    data_size: int
    update: Optional[ParameterVector]
    envelope: Optional[crypto.CipherEnvelope]
    digest: bytes
    signature: bytes
    attestation: AttestationReport

    def __post_init__(self) -> None:
        if (self.update is None) == (self.envelope is None):
            raise ValueError("exactly one of update and envelope must be set")
        if len(self.digest) != crypto.DIGEST_LEN:
            raise ValueError("digest must be 32 bytes")
        if not 0 <= self.round < 1 << 32:
            raise ValueError("round out of u32 range")
        if not 0 <= self.data_size < 1 << 64:
            raise ValueError("data size out of u64 range")

    # ---- serialization ---- #

    def to_wire_bytes(self) -> bytes:
        ident = self.client_id.encode("utf-8")
        if len(ident) > 0xFFFF:
            raise ValueError("client id too long")
        out = bytes([_WIRE_VERSION])
        out += len(ident).to_bytes(2, "big") + ident
        out += self.round.to_bytes(4, "big")
        out += self.data_size.to_bytes(8, "big")
        if self.update is not None:
            out += bytes([_FLAG_PLAINTEXT])
            out += crypto.encode_param_values(self.update.values)
        else:
            env = self.envelope
            assert env is not None
            out += bytes([_FLAG_SEALED])
            out += env.nonce
            out += len(env.ciphertext).to_bytes(8, "big") + env.ciphertext
            out += env.tag
        out += self.digest
        out += len(self.signature).to_bytes(4, "big") + self.signature
        report = self.attestation.to_bytes()
        out += len(report).to_bytes(4, "big") + report
        return out

    @classmethod
    def from_wire_bytes(cls, blob: bytes, layout) -> "SignedUpdate":
        """Strict parse; any structural defect raises WireFormatError."""
        try:
            return cls._parse(blob, layout)
        except WireFormatError:
            raise
        except (ValueError, IndexError, OverflowError) as exc:
            raise WireFormatError(str(exc)) from exc

    @classmethod
    def _parse(cls, blob: bytes, layout) -> "SignedUpdate":
        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(blob):
                raise WireFormatError("truncated message")
            piece = blob[pos : pos + n]
            pos += n
            return piece

        pos = 0
        if take(1)[0] != _WIRE_VERSION:
            raise WireFormatError("unsupported wire version")
        id_len = int.from_bytes(take(2), "big")
        client_id = take(id_len).decode("utf-8")
        round_no = int.from_bytes(take(4), "big")
        data_size = int.from_bytes(take(8), "big")
        flag = take(1)[0]
        update: Optional[ParameterVector] = None
        envelope: Optional[crypto.CipherEnvelope] = None
        if flag == _FLAG_PLAINTEXT:
            count = int.from_bytes(take(8), "big")
            if count != layout.size:
                raise WireFormatError(f"expected {layout.size} parameters, got {count}")
            raw = take(8 * count)
            values = np.frombuffer(raw, dtype=">f8").astype(np.float64)
            update = ParameterVector(values=values, layout=layout)
        elif flag == _FLAG_SEALED:
            nonce = take(crypto.NONCE_LEN)
            ct_len = int.from_bytes(take(8), "big")
            ciphertext = take(ct_len)
            tag = take(crypto.DIGEST_LEN)
            envelope = crypto.CipherEnvelope(nonce=nonce, ciphertext=ciphertext, tag=tag)
        else:
            raise WireFormatError(f"unknown payload flag {flag:#x}")
        digest = take(crypto.DIGEST_LEN)
        sig_len = int.from_bytes(take(4), "big")
        signature = take(sig_len)
        report_len = int.from_bytes(take(4), "big")
        report = AttestationReport.from_bytes(take(report_len))
        if pos != len(blob):
            raise WireFormatError("trailing bytes")
        return cls(
            client_id=client_id,
            round=round_no,
            data_size=data_size,
            update=update,
            envelope=envelope,
            digest=digest,
            signature=signature,
            attestation=report,
        )


def build_signed_update(
    *,
    client_id: str,
    round_no: int,
    data_size: int,
    update: ParameterVector,
    private: crypto.RsaPrivateKey,
    report: AttestationReport,
    session_key: Optional[bytes] = None,
) -> SignedUpdate:
    """Hash, sign, and optionally seal an update into a SignedUpdate.

    With a session key the canonical blob travels inside an authenticated
    envelope and the plaintext parameters are omitted from the message.
    """
    blob = crypto.canonical_encode(update.values, round_no, client_id, data_size)
    digest = crypto.sha256(blob)
    signature = crypto.sign(digest, private)
    if session_key is None:
        return SignedUpdate(
            client_id=client_id,
            round=round_no,
            data_size=data_size,
            update=update,
            envelope=None,
            digest=digest,
            signature=signature,
            attestation=report,
        )
    nonce = crypto.derive_nonce(client_id, round_no)
    envelope = crypto.encrypt(session_key, nonce, blob)
    return SignedUpdate(
        client_id=client_id,
        round=round_no,
        data_size=data_size,
        update=None,
        envelope=envelope,
        digest=digest,
        signature=signature,
        attestation=report,
    )


@dataclass(frozen=True)
class Delivery:
    """One message arriving at the server, plus bookkeeping the metrics need.

    `payload` is either a parsed SignedUpdate or raw wire bytes (an attacker
    may hand the server arbitrary bytes).  `source` is who actually produced
    the delivery; `honest` marks deliveries whose producing client ran an
    uncompromised training pass, whatever happened in transit.
    """

    payload: Union[SignedUpdate, bytes]
    source: str
    honest: bool


# --------------------------------------------------------------------------- #
# global model state
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GlobalModelState:
    round: int
    params: ParameterVector
    history: tuple[bytes, ...] = ()  # digest of each applied aggregate, in order


def apply_global(state: GlobalModelState, delta: ParameterVector) -> GlobalModelState:
    """Add an aggregated update to the global parameters and advance the round."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            new_params = state.params.add(delta)
    except ValueError as exc:
        raise ProtocolError("global parameters left the finite range") from exc
    digest = crypto.sha256(crypto.encode_param_values(delta.values))
    return GlobalModelState(
        round=state.round + 1,
        params=new_params,
        history=state.history + (digest,),
    )


def advance_round(state: GlobalModelState) -> GlobalModelState:
    """Advance the round without touching the parameters (nothing accepted)."""
    return replace(state, round=state.round + 1)


# --------------------------------------------------------------------------- #
# client actor
# --------------------------------------------------------------------------- #


@dataclass
class ClientActor:
    """A federated client: local data, signing identity, and session keys.

    `compromise` models a subverted training runtime: when set, the client
    re-enters its training phase after the legitimate pass and rewrites the
    update.  The attestation layer is trusted and records the extra phase,
    so the deviation is visible in the trace even though every byte the
    client sends is correctly hashed and signed.
    """

    client_id: str
    data: Dataset
    architecture: Model
    train_cfg: TrainingConfig
    sig_pair: crypto.SignatureKeyPair
    dh_private: int
    dh_public: int
    encrypt: bool = False
    session_key: Optional[bytes] = None
    compromise: Optional[Callable[[ParameterVector, int], ParameterVector]] = None
    last_log: Optional[CheckpointLog] = None

    @classmethod
    def create(
        cls,
        client_id: str,
        data: Dataset,
        architecture: Model,
        train_cfg: TrainingConfig,
        *,
        key_seed: int,
        key_bits: int = 2048,
        dh_params: crypto.DhParams = crypto.MODP_2048,
        encrypt: bool = False,
    ) -> "ClientActor":
        sig_pair = crypto.keygen_signature(key_bits=key_bits, seed=key_seed)
        dh_private, dh_public = crypto.dh_keygen(dh_params, seed=crypto.derive_seed(client_id, "dh", key_seed))
        return cls(
            client_id=client_id,
            data=data,
            architecture=architecture,
            train_cfg=train_cfg,
            sig_pair=sig_pair,
            dh_private=dh_private,
            dh_public=dh_public,
            encrypt=encrypt,
        )


def _checkpoint(log: CheckpointLog, label: CheckpointLabel, actor: str, round_no: int) -> CheckpointLog:
    return record_checkpoint(log, Checkpoint(label=label, actor=actor, round=round_no))


def client_round(
    client: ClientActor,
    global_params: ParameterVector,
    round_no: int,
) -> Optional[SignedUpdate]:
    """Run one local round; None means the client dropped out mid-round.

    On dropout the partial checkpoint log is kept on `client.last_log`,
    where its missing endpoint makes the incomplete execution provable.
    """
    cid = client.client_id
    log = CheckpointLog()
    log = _checkpoint(log, CheckpointLabel.ROUND_START, cid, round_no)

    model = client.architecture.with_params(global_params)
    cfg = replace(client.train_cfg, seed=crypto.derive_seed(cid, "train", client.train_cfg.seed, round_no))

    log = _checkpoint(log, CheckpointLabel.TRAIN_BEGIN, cid, round_no)
    try:
        _, update = models.local_train(model, client.data, cfg)
    except TrainingError:
        client.last_log = log
        return None
    log = _checkpoint(log, CheckpointLabel.TRAIN_END, cid, round_no)

    if client.compromise is not None:
        # the rewrite runs as a second training phase; a trusted logger
        # records the re-entry, which no legal client graph allows
        update = client.compromise(update, round_no)
        log = _checkpoint(log, CheckpointLabel.TRAIN_BEGIN, cid, round_no)
        log = _checkpoint(log, CheckpointLabel.TRAIN_END, cid, round_no)

    log = _checkpoint(log, CheckpointLabel.UPDATE_HASHED, cid, round_no)
    log = _checkpoint(log, CheckpointLabel.UPDATE_SIGNED, cid, round_no)
    log = _checkpoint(log, CheckpointLabel.UPDATE_SENT, cid, round_no)
    log = _checkpoint(log, CheckpointLabel.ROUND_END, cid, round_no)
    client.last_log = log

    report = finalize_report(log, client.sig_pair.private)
    session_key = client.session_key if client.encrypt else None
    if client.encrypt and session_key is None:
        raise ProtocolError(f"client {cid!r} set to encrypt but holds no session key")
    return build_signed_update(
        client_id=cid,
        round_no=round_no,
        data_size=client.data.size,
        update=update,
        private=client.sig_pair.private,
        report=report,
        session_key=session_key,
    )


# --------------------------------------------------------------------------- #
# server-side verification
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class VerificationVerdict:
    accepted: bool
    reason: str

    def __post_init__(self) -> None:
        if self.accepted != (self.reason == REASON_OK):
            raise ValueError("accepted must match reason == ok")


def _reject(reason: str) -> tuple[VerificationVerdict, None]:
    return VerificationVerdict(accepted=False, reason=reason), None


def _open(
    msg: SignedUpdate,
    layout,
    session_key: bytes,
) -> Optional[tuple[bytes, tuple[int, str, int], ParameterVector]]:
    """Unseal a sealed payload into (canonical blob, (round, id, size), update).

    None when the tag fails, the blob does not decode, or its values are the
    wrong count or not finite.
    """
    try:
        blob = crypto.decrypt(session_key, msg.envelope)
        values, *header = crypto.canonical_decode(blob)
        return blob, tuple(header), ParameterVector(values=values, layout=layout)
    except (ValueError, crypto.CryptoError):
        return None


def server_verify(
    registry: Mapping[str, RegistryEntry],
    msg: SignedUpdate,
    *,
    layout,
    graph: ControlFlowGraph,
    session_key: Optional[bytes],
    current_round: int,
    accepted_pairs: frozenset[tuple[str, int]] | set[tuple[str, int]],
) -> tuple[VerificationVerdict, Optional[ParameterVector]]:
    """Check one message; returns the verdict and the opened update if accepted.

    Check order is fixed: unseal, identity, digest, signature, freshness,
    attestation.  The first failure decides the reason.
    """
    update, blob = msg.update, None
    if msg.envelope is not None and session_key is not None:
        opened = _open(msg, layout, session_key)
        # header fields travel in the clear; the sealed blob must agree
        if opened is None or opened[1] != (msg.round, msg.client_id, msg.data_size):
            return _reject(REASON_DECRYPT_FAILURE)
        blob, _, update = opened

    entry = registry.get(msg.client_id)
    if entry is None:
        return _reject(REASON_UNKNOWN_IDENTITY)
    if update is None:
        # sealed message from a registered sender with no session key
        return _reject(REASON_DECRYPT_FAILURE)

    if blob is None:
        blob = crypto.canonical_encode(update.values, msg.round, msg.client_id, msg.data_size)
    if crypto.sha256(blob) != msg.digest:
        return _reject(REASON_DIGEST_MISMATCH)
    if not crypto.verify(msg.digest, msg.signature, entry.sig_public):
        return _reject(REASON_BAD_SIGNATURE)
    if msg.round != current_round or (msg.client_id, msg.round) in accepted_pairs:
        return _reject(REASON_REPLAYED_ROUND)

    report = msg.attestation
    for log_entry in report.log.entries:
        cp = log_entry.checkpoint
        if cp.actor != msg.client_id or cp.round != msg.round:
            # trace lifted from another actor or round
            return _reject(REASON_CFA_HALT)
    trace = verify_trace(graph, report, entry.sig_public)
    if not trace.ok:
        return _reject(REASON_CFA_HALT)

    return VerificationVerdict(accepted=True, reason=REASON_OK), update


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #


def aggregate(updates: Sequence[tuple[str, int, ParameterVector]]) -> Optional[ParameterVector]:
    """Data-size-weighted mean of accepted updates; None when nothing passed.

    Each item is (client_id, data_size, update).  Updates are folded in
    ascending client-id order (arrival order breaks ties) so the result is
    independent of delivery timing.  A single update is returned unchanged,
    bit for bit.
    """
    if not updates:
        return None
    ordered = sorted(range(len(updates)), key=lambda i: (updates[i][0], i))
    first_layout = updates[0][2].layout
    for _, _, update in updates:
        if update.layout != first_layout:
            raise AggregationError("updates use different parameter layouts")
    if len(updates) == 1:
        return updates[0][2]
    total = float(sum(size for _, size, _ in updates))
    if total == 0.0:
        raise AggregationError("total data size is zero")
    acc = np.zeros(first_layout.size, dtype=np.float64)
    for i in ordered:
        _, size, update = updates[i]
        acc += (float(size) / total) * update.values
    return ParameterVector._wrap(acc, first_layout)


# --------------------------------------------------------------------------- #
# server actor and round orchestration
# --------------------------------------------------------------------------- #


@dataclass
class Server:
    """Holds the registry (client id -> keys), session keys, global model
    state and the audit log.  Freshness state lives for one round only."""

    architecture: Model
    state: GlobalModelState
    sig_pair: crypto.SignatureKeyPair
    dh_private: int
    dh_public: int
    dh_params: crypto.DhParams = crypto.MODP_2048
    client_graph: ControlFlowGraph = DEFAULT_CLIENT_GRAPH
    server_graph: ControlFlowGraph = DEFAULT_SERVER_GRAPH
    security: bool = True
    server_id: str = "server"
    registry: dict[str, RegistryEntry] = field(default_factory=dict)
    session_keys: dict[str, bytes] = field(default_factory=dict)
    audit_log: list[AuditRecord] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        architecture: Model,
        *,
        key_seed: int,
        key_bits: int = 2048,
        dh_params: crypto.DhParams = crypto.MODP_2048,
        security: bool = True,
    ) -> "Server":
        sig_pair = crypto.keygen_signature(key_bits=key_bits, seed=key_seed)
        dh_private, dh_public = crypto.dh_keygen(dh_params, seed=crypto.derive_seed("server", "dh", key_seed))
        state = GlobalModelState(round=0, params=architecture.params)
        return cls(
            architecture=architecture,
            state=state,
            sig_pair=sig_pair,
            dh_private=dh_private,
            dh_public=dh_public,
            dh_params=dh_params,
            security=security,
        )

    def register(self, client: ClientActor) -> None:
        """Enroll a client: store its public keys, agree on a session key."""
        cid = client.client_id
        if not cid:
            raise ValueError("client id must be non-empty")
        if cid in self.registry:
            raise DuplicateClientError(f"client {cid!r} already registered")
        self.registry[cid] = RegistryEntry(
            client_id=cid, sig_public=client.sig_pair.public, dh_public=client.dh_public
        )
        shared_at_server = crypto.dh_shared(self.dh_private, client.dh_public, self.dh_params)
        self.session_keys[cid] = crypto.kdf(shared_at_server)
        shared_at_client = crypto.dh_shared(client.dh_private, self.dh_public, self.dh_params)
        client.session_key = crypto.kdf(shared_at_client)


def _ingest(
    server: Server,
    delivery: Delivery,
    round_no: int,
    fresh: set[tuple[str, int]],
) -> tuple[MessageOutcome, Optional[tuple[str, int, ParameterVector]], Optional[AuditRecord]]:
    """Verify one delivery; returns (outcome, accepted item or None, audit or None).

    `fresh` holds the (id, round) pairs accepted so far this round; an
    accepted delivery adds its pair.  The server itself is not changed.
    """
    layout = server.architecture.params.layout
    payload = delivery.payload
    if isinstance(payload, (bytes, bytearray)):
        try:
            msg = SignedUpdate.from_wire_bytes(bytes(payload), layout)
        except WireFormatError:
            outcome = MessageOutcome(
                client_id=delivery.source,
                reason=REASON_MALFORMED,
                honest=delivery.honest,
                accepted=False,
                attributable=False,
            )
            return outcome, None, None
    else:
        msg = payload

    entry = server.registry.get(msg.client_id)
    attributable = entry is not None
    session_key = server.session_keys.get(msg.client_id)

    if server.security:
        verdict, update = server_verify(
            server.registry,
            msg,
            layout=layout,
            graph=server.client_graph,
            session_key=session_key,
            current_round=round_no,
            accepted_pairs=fresh,
        )
    else:
        # checks disabled: everything that can be opened is taken at face value
        verdict, update = _accept_unverified(msg, layout, session_key)

    outcome = MessageOutcome(
        client_id=msg.client_id,
        reason=verdict.reason,
        honest=delivery.honest,
        accepted=verdict.accepted,
        attributable=attributable,
    )
    if not verdict.accepted:
        return outcome, None, None

    assert update is not None
    fresh.add((msg.client_id, msg.round))
    audit = AuditRecord(
        round=round_no,
        client_id=msg.client_id,
        digest=msg.digest,
        signature=msg.signature,
        public_key=entry.sig_public.to_bytes() if entry is not None else None,
    )
    return outcome, (msg.client_id, msg.data_size, update), audit


def _accept_unverified(
    msg: SignedUpdate,
    layout,
    session_key: Optional[bytes],
) -> tuple[VerificationVerdict, Optional[ParameterVector]]:
    """Security-off path: open the payload if possible, accept whatever it says."""
    if msg.update is not None:
        return VerificationVerdict(accepted=True, reason=REASON_OK), msg.update
    opened = None if session_key is None else _open(msg, layout, session_key)
    if opened is None:
        return _reject(REASON_DECRYPT_FAILURE)
    return VerificationVerdict(accepted=True, reason=REASON_OK), opened[2]


def _evaluate_global(server: Server, eval_data: Optional[Dataset]) -> float:
    if eval_data is None:
        return float("nan")
    return models.evaluate(server.architecture.with_params(server.state.params), eval_data)


def run_round(
    server: Server,
    clients: Sequence[ClientActor],
    *,
    plan=None,
    eval_data: Optional[Dataset] = None,
) -> RoundReport:
    """Execute one full round and return its report.

    `plan`, when given, may observe and rewrite the in-flight deliveries
    (drop, tamper, replay, inject); it must expose
    transform(deliveries, round_no, global_params) -> list[Delivery].
    """
    started = time.perf_counter()
    round_no = server.state.round
    sid = server.server_id

    slog = CheckpointLog()
    slog = _checkpoint(slog, CheckpointLabel.ROUND_START, sid, round_no)

    deliveries: list[Delivery] = []
    for client in sorted(clients, key=lambda c: c.client_id):
        msg = client_round(client, server.state.params, round_no)
        if msg is not None:
            deliveries.append(
                Delivery(payload=msg, source=client.client_id, honest=client.compromise is None)
            )
    if plan is not None:
        deliveries = plan.transform(deliveries, round_no, server.state.params)

    if not deliveries:
        # degenerate round: nothing arrived, so there is no intake pipeline
        # to attest; carry the parameters forward unchanged
        server.state = advance_round(server.state)
        accuracy = _evaluate_global(server, eval_data)
        return RoundReport(
            round=server.state.round,
            outcomes=[],
            verification_rate=None,
            authentication_rate=None,
            non_repudiation_incidents=0,
            accuracy=accuracy,
            duration_s=time.perf_counter() - started,
            accepted_count=0,
            model_updated=False,
        )

    # everything below is staged and committed only after the self-check
    outcomes: list[MessageOutcome] = []
    accepted: list[tuple[str, int, ParameterVector]] = []
    round_audit: list[AuditRecord] = []
    fresh: set[tuple[str, int]] = set()
    for delivery in deliveries:
        slog = _checkpoint(slog, CheckpointLabel.SERVER_RECEIVED, sid, round_no)
        outcome, item, audit = _ingest(server, delivery, round_no, fresh)
        outcomes.append(outcome)
        if item is not None:
            accepted.append(item)
        if audit is not None:
            round_audit.append(audit)

    slog = _checkpoint(slog, CheckpointLabel.SERVER_VERIFIED, sid, round_no)
    delta = aggregate(accepted)
    slog = _checkpoint(slog, CheckpointLabel.AGGREGATED, sid, round_no)
    if delta is not None:
        new_state = apply_global(server.state, delta)
    else:
        new_state = advance_round(server.state)
    slog = _checkpoint(slog, CheckpointLabel.GLOBAL_APPLIED, sid, round_no)
    slog = _checkpoint(slog, CheckpointLabel.ROUND_END, sid, round_no)

    server_report = finalize_report(slog, server.sig_pair.private)
    self_check = verify_trace(server.server_graph, server_report, server.sig_pair.public)
    if not self_check.ok:
        raise ProtocolError(
            f"server trace failed self-verification at entry {self_check.index}: {self_check.reason}"
        )
    server.state = new_state
    server.audit_log.extend(round_audit)
    accuracy = _evaluate_global(server, eval_data)

    verification, authentication, incidents = reporting.compute_metrics(outcomes, round_audit)
    return RoundReport(
        round=new_state.round,
        outcomes=outcomes,
        verification_rate=verification,
        authentication_rate=authentication,
        non_repudiation_incidents=incidents,
        accuracy=accuracy,
        duration_s=time.perf_counter() - started,
        accepted_count=len(accepted),
        model_updated=delta is not None,
    )
