"""Client/server round protocol: signed updates, verification, aggregation.

One round, from the server's point of view:

  1. broadcast the current global parameters
  2. each client trains locally and returns a signed, attested update
     (optionally sealed under its session key)
  3. the server checks every message in a fixed order -- identity, unseal,
     digest, signature, freshness, attestation -- and discards anything
     that fails, recording why
  4. surviving updates are combined by a data-size-weighted mean and added
     to the global parameters
  5. the server checkpoints its own pipeline and self-verifies the trace
     before committing the new state; it does so every round, including
     one where nothing arrived, and a round that aborts leaves the server
     exactly as it was.  Accepted outcomes carry their own audit records.

Verification order matters: a forged sender must be rejected as
unknown-identity even when its payload is sealed or internally consistent,
and a replay must fail freshness before its stale attestation is consulted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import attestation, crypto, models, reporting
from .attestation import (
    AttestationReport,
    Checkpoint,
    CheckpointLabel,
    DEFAULT_CLIENT_GRAPH,
    DEFAULT_SERVER_GRAPH,
    LogEntry,
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
    "SERVER_ID",
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

_WIRE_VERSION = b"\x01"
_FLAG_PLAINTEXT = b"\x00"
_FLAG_SEALED = b"\x01"

# actor id in the server's own checkpoints
SERVER_ID = "server"


class ProtocolError(RuntimeError):
    """Round orchestration reached a state it must not commit."""


class WireFormatError(ValueError):
    """A serialized update could not be parsed."""


class DuplicateClientError(ValueError):
    """A client id was registered twice."""


class AggregationError(ValueError):
    """The accepted updates cannot be combined."""


# --------------------------------------------------------------------------- #
# signed update message and its wire form
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SignedUpdate:
    """One client's contribution for one round.

    `update` is the parameter update in the clear or a sealed envelope of
    its canonical encoding.  The digest and signature always cover the
    canonical plaintext encoding, so sealing does not change what is signed.
    """

    client_id: str
    round: int
    data_size: int
    update: Union[ParameterVector, crypto.CipherEnvelope]
    digest: bytes
    signature: bytes
    attestation: AttestationReport

    def __post_init__(self) -> None:
        if len(self.digest) != crypto.DIGEST_LEN:
            raise ValueError("digest must be 32 bytes")
        if not 0 <= self.round < 1 << 32:
            raise ValueError("round out of u32 range")
        if not 0 <= self.data_size < 1 << 64:
            raise ValueError("data size out of u64 range")

    # ---- serialization ---- #

    def to_wire_bytes(self) -> bytes:
        update = self.update
        if isinstance(update, ParameterVector):
            payload = [_FLAG_PLAINTEXT, crypto.encode_param_values(update.values)]
        else:
            payload = [_FLAG_SEALED, update.nonce, crypto.prefixed(update.ciphertext, 8), update.tag]
        return b"".join(
            [
                _WIRE_VERSION,
                crypto.prefixed(self.client_id.encode("utf-8"), 2),
                self.round.to_bytes(4, "big"),
                self.data_size.to_bytes(8, "big"),
            ]
            + payload
            + [self.digest, crypto.prefixed(self.signature, 4), crypto.prefixed(self.attestation.to_bytes(), 4)]
        )

    @classmethod
    def from_wire_bytes(cls, blob: bytes, layout) -> "SignedUpdate":
        """Strict parse; any structural defect raises WireFormatError."""
        try:
            return cls._parse(crypto.Reader(blob), layout)
        except ValueError as exc:
            raise WireFormatError(str(exc)) from exc

    @classmethod
    def _parse(cls, reader: crypto.Reader, layout) -> "SignedUpdate":
        if reader.take(1) != _WIRE_VERSION:
            raise ValueError("unsupported wire version")
        client_id = reader.prefixed(2).decode("utf-8")
        round_no = reader.uint(4)
        data_size = reader.uint(8)
        flag = reader.take(1)
        update: Union[ParameterVector, crypto.CipherEnvelope]
        if flag == _FLAG_PLAINTEXT:
            update = ParameterVector(values=crypto.read_param_values(reader), layout=layout)
        elif flag == _FLAG_SEALED:
            update = crypto.CipherEnvelope(
                nonce=reader.take(crypto.NONCE_LEN),
                ciphertext=reader.prefixed(8),
                tag=reader.take(crypto.DIGEST_LEN),
            )
        else:
            raise ValueError(f"unknown payload flag {flag.hex()}")
        digest = reader.take(crypto.DIGEST_LEN)
        signature = reader.prefixed(4)
        report = AttestationReport.from_bytes(reader.prefixed(4))
        reader.close()
        return cls(
            client_id=client_id,
            round=round_no,
            data_size=data_size,
            update=update,
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
    payload: Union[ParameterVector, crypto.CipherEnvelope] = update
    if session_key is not None:
        payload = crypto.encrypt(session_key, crypto.derive_nonce(client_id, round_no), blob)
    return SignedUpdate(
        client_id=client_id,
        round=round_no,
        data_size=data_size,
        update=payload,
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
    last_log: Optional[list[LogEntry]] = None

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
        encrypt: bool = False,
    ) -> "ClientActor":
        sig_pair = crypto.keygen_signature(key_bits=key_bits, seed=key_seed)
        dh_private, dh_public = crypto.dh_keygen(seed=crypto.derive_seed(client_id, "dh", key_seed))
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


def _checkpoint(trace: list[LogEntry], label: CheckpointLabel, actor: str, round_no: int) -> None:
    record_checkpoint(trace, Checkpoint(label=label, actor=actor, round=round_no))


def client_round(
    client: ClientActor,
    global_params: ParameterVector,
    round_no: int,
) -> Optional[SignedUpdate]:
    """Run one local round; None means the client dropped out mid-round.

    The round's trace is recorded in place on `client.last_log`; on dropout
    its missing endpoint makes the incomplete execution provable.
    """
    cid = client.client_id
    log = client.last_log = []
    _checkpoint(log, CheckpointLabel.ROUND_START, cid, round_no)

    model = client.architecture.with_params(global_params)
    cfg = replace(client.train_cfg, seed=crypto.derive_seed(cid, "train", client.train_cfg.seed, round_no))

    _checkpoint(log, CheckpointLabel.TRAIN_BEGIN, cid, round_no)
    try:
        _, update = models.local_train(model, client.data, cfg)
        _checkpoint(log, CheckpointLabel.TRAIN_END, cid, round_no)
        if client.compromise is not None:
            # the rewrite runs as a second training phase; a trusted logger
            # records the re-entry, which no legal client graph allows
            _checkpoint(log, CheckpointLabel.TRAIN_BEGIN, cid, round_no)
            update = client.compromise(update, round_no)
            _checkpoint(log, CheckpointLabel.TRAIN_END, cid, round_no)
    except TrainingError:
        return None

    _checkpoint(log, CheckpointLabel.UPDATE_HASHED, cid, round_no)
    _checkpoint(log, CheckpointLabel.UPDATE_SIGNED, cid, round_no)
    _checkpoint(log, CheckpointLabel.UPDATE_SENT, cid, round_no)
    _checkpoint(log, CheckpointLabel.ROUND_END, cid, round_no)

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


def _open(
    msg: SignedUpdate,
    layout,
    session_key: Optional[bytes],
) -> Optional[tuple[Optional[bytes], tuple[int, str, int], ParameterVector]]:
    """Open either payload kind into (sealed blob or None, (round, id, size), update).

    Plaintext comes back under the message's own header.  None when a sealed payload
    has no key, fails its tag, does not decode, or its values are the wrong count or not finite.
    """
    if isinstance(msg.update, ParameterVector):
        return None, (msg.round, msg.client_id, msg.data_size), msg.update
    if session_key is None:
        return None
    try:
        blob = crypto.decrypt(session_key, msg.update)
        values, *header = crypto.canonical_decode(blob)
        return blob, tuple(header), ParameterVector(values=values, layout=layout)
    except (ValueError, crypto.CryptoError):
        return None


def server_verify(
    public: Optional[crypto.RsaPublicKey],
    msg: SignedUpdate,
    *,
    layout,
    session_key: Optional[bytes],
    current_round: int,
    accepted_pairs: frozenset[tuple[str, int]] | set[tuple[str, int]],
) -> tuple[str, Optional[ParameterVector]]:
    """Check one message under its sender's registered key, None if unknown;
    returns the reason and, if it is ok, the opened update.

    Check order is fixed: identity, unseal, digest, signature, freshness,
    attestation against DEFAULT_CLIENT_GRAPH for the claimed sender and
    round.  The first failure decides the reason.
    """
    if public is None:
        return REASON_UNKNOWN_IDENTITY, None
    opened = _open(msg, layout, session_key)
    # header fields travel in the clear; a sealed blob must agree
    if opened is None or opened[1] != (msg.round, msg.client_id, msg.data_size):
        return REASON_DECRYPT_FAILURE, None
    blob, _, update = opened
    if blob is None:
        blob = crypto.canonical_encode(update.values, msg.round, msg.client_id, msg.data_size)
    if crypto.sha256(blob) != msg.digest:
        return REASON_DIGEST_MISMATCH, None
    if not crypto.verify(msg.digest, msg.signature, public):
        return REASON_BAD_SIGNATURE, None
    if msg.round != current_round or (msg.client_id, msg.round) in accepted_pairs:
        return REASON_REPLAYED_ROUND, None

    if not verify_trace(DEFAULT_CLIENT_GRAPH, msg.attestation, public, msg.client_id, msg.round).ok:
        return REASON_CFA_HALT, None

    return REASON_OK, update


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
    layout = updates[0][2].layout
    if any(update.layout != layout for _, _, update in updates):
        raise AggregationError("updates use different parameter layouts")
    if len(updates) == 1:
        return updates[0][2]
    total = float(sum(size for _, size, _ in updates))
    if total == 0.0:
        raise AggregationError("total data size is zero")
    acc = np.zeros(layout.size, dtype=np.float64)
    for _, size, update in sorted(updates, key=lambda item: item[0]):
        acc += (float(size) / total) * update.values
    return ParameterVector(acc, layout)


# --------------------------------------------------------------------------- #
# server actor and round orchestration
# --------------------------------------------------------------------------- #


@dataclass
class Server:
    """Holds the registry (client id -> RSA public key), session keys and
    global model state.  Audit records leave on each round's report, so the
    state stays bounded; freshness state lives for one round only."""

    architecture: Model
    state: GlobalModelState
    sig_pair: crypto.SignatureKeyPair
    dh_private: int
    dh_public: int
    security: bool = True
    registry: dict[str, crypto.RsaPublicKey] = field(default_factory=dict)
    session_keys: dict[str, bytes] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        architecture: Model,
        *,
        key_seed: int,
        key_bits: int = 2048,
        security: bool = True,
    ) -> "Server":
        sig_pair = crypto.keygen_signature(key_bits=key_bits, seed=key_seed)
        dh_private, dh_public = crypto.dh_keygen(seed=crypto.derive_seed(SERVER_ID, "dh", key_seed))
        state = GlobalModelState(round=0, params=architecture.params)
        return cls(
            architecture=architecture,
            state=state,
            sig_pair=sig_pair,
            dh_private=dh_private,
            dh_public=dh_public,
            security=security,
        )

    def register(self, client: ClientActor) -> None:
        """Enroll a client: store its public key, agree on a session key.

        Both shared secrets are computed before anything is stored, so a
        failed registration leaves the server and the client unchanged.
        """
        cid = client.client_id
        if not cid:
            raise ValueError("client id must be non-empty")
        if cid in self.registry:
            raise DuplicateClientError(f"client {cid!r} already registered")
        shared_at_server = crypto.dh_shared(self.dh_private, client.dh_public)
        shared_at_client = crypto.dh_shared(client.dh_private, self.dh_public)
        self.registry[cid] = client.sig_pair.public
        self.session_keys[cid] = crypto.kdf(shared_at_server)
        client.session_key = crypto.kdf(shared_at_client)


def _ingest(
    server: Server,
    delivery: Delivery,
    round_no: int,
    fresh: set[tuple[str, int]],
) -> tuple[MessageOutcome, Optional[tuple[str, int, ParameterVector]]]:
    """Verify one delivery; returns (outcome, accepted item or None).

    An accepted outcome carries its audit record.  `fresh` holds the (id,
    round) pairs accepted so far this round; an accepted delivery adds its
    pair.  The server itself is not changed.
    """
    layout = server.architecture.params.layout
    payload = delivery.payload
    if isinstance(payload, (bytes, bytearray)):
        try:
            msg = SignedUpdate.from_wire_bytes(bytes(payload), layout)
        except WireFormatError:
            return MessageOutcome(
                client_id=delivery.source,
                reason=REASON_MALFORMED,
                honest=delivery.honest,
                attributable=False,
            ), None
    else:
        msg = payload

    public = server.registry.get(msg.client_id)
    session_key = server.session_keys.get(msg.client_id)

    if server.security:
        reason, update = server_verify(
            public,
            msg,
            layout=layout,
            session_key=session_key,
            current_round=round_no,
            accepted_pairs=fresh,
        )
    else:
        # checks disabled: everything that can be opened is taken at face value
        opened = _open(msg, layout, session_key)
        reason, update = (REASON_DECRYPT_FAILURE, None) if opened is None else (REASON_OK, opened[2])

    audit, item = None, None
    if reason == REASON_OK:
        assert update is not None
        fresh.add((msg.client_id, msg.round))
        audit = AuditRecord(
            round=round_no,
            client_id=msg.client_id,
            digest=msg.digest,
            signature=msg.signature,
            public_key=public.to_bytes() if public is not None else None,
        )
        item = (msg.client_id, msg.data_size, update)
    outcome = MessageOutcome(
        client_id=msg.client_id,
        reason=reason,
        honest=delivery.honest,
        attributable=public is not None,
        audit=audit,
    )
    return outcome, item


def run_round(
    server: Server,
    clients: Sequence[ClientActor],
    *,
    plan=None,
    eval_data: Dataset,
) -> RoundReport:
    """Execute one full round and return its report.

    `plan`, when given, may observe and rewrite the in-flight deliveries
    (drop, tamper, replay, inject); it must expose
    transform(deliveries, round_no, global_params) -> list[Delivery].
    """
    started = time.perf_counter()
    round_no = server.state.round

    slog: list[LogEntry] = []
    _checkpoint(slog, CheckpointLabel.ROUND_START, SERVER_ID, round_no)

    deliveries: list[Delivery] = []
    for client in sorted(clients, key=lambda c: c.client_id):
        msg = client_round(client, server.state.params, round_no)
        if msg is not None:
            deliveries.append(
                Delivery(payload=msg, source=client.client_id, honest=client.compromise is None)
            )
    if plan is not None:
        deliveries = plan.transform(deliveries, round_no, server.state.params)

    # everything below is staged and committed only after the self-check
    outcomes: list[MessageOutcome] = []
    accepted: list[tuple[str, int, ParameterVector]] = []
    fresh: set[tuple[str, int]] = set()
    for delivery in deliveries:
        _checkpoint(slog, CheckpointLabel.SERVER_RECEIVED, SERVER_ID, round_no)
        outcome, item = _ingest(server, delivery, round_no, fresh)
        outcomes.append(outcome)
        if item is not None:
            accepted.append(item)

    _checkpoint(slog, CheckpointLabel.SERVER_VERIFIED, SERVER_ID, round_no)
    delta = aggregate(accepted)
    _checkpoint(slog, CheckpointLabel.AGGREGATED, SERVER_ID, round_no)
    if delta is not None:
        new_state = apply_global(server.state, delta)
    else:
        new_state = advance_round(server.state)
    _checkpoint(slog, CheckpointLabel.GLOBAL_APPLIED, SERVER_ID, round_no)
    _checkpoint(slog, CheckpointLabel.ROUND_END, SERVER_ID, round_no)

    server_report = finalize_report(slog, server.sig_pair.private)
    self_check = verify_trace(DEFAULT_SERVER_GRAPH, server_report, server.sig_pair.public, SERVER_ID, round_no)
    if not self_check.ok:
        raise ProtocolError(
            f"server trace failed self-verification at entry {self_check.index}: {self_check.reason}"
        )
    server.state = new_state
    accuracy = models.evaluate(server.architecture.with_params(new_state.params), eval_data)

    verification, authentication, incidents = reporting.compute_metrics(outcomes)
    return RoundReport(
        round=new_state.round,
        outcomes=outcomes,
        accepted_count=len(accepted),
        verification_rate=verification,
        authentication_rate=authentication,
        non_repudiation_incidents=incidents,
        accuracy=accuracy,
        duration_s=time.perf_counter() - started,
    )
