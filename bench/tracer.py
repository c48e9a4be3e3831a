"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer wraps public functions on the attribute their caller resolves.
`protocol` imports `finalize_report`, `verify_trace` and `record_checkpoint`
by name and `adversary` imports `client_round` by name, so those bindings are
patched where they are looked up, not only on their home module.  Nothing in
the package changes; `uninstall` puts every original back.

A span is [name, parent index, round id, start ns, end ns, bytes].  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import defaultdict

SETUP = "setup"

# Round-phase layers: metric suffixes per span, reported per round
# (calls and bytes as the mean over traced rounds, ms as the median of the
# per-round self time).  A layer that only some workloads call carries no
# ms metric: its time would read 0 on every run of the others.
ROUND_LAYERS: dict[str, tuple[str, ...]] = {
    "crypto.sign": ("calls", "ms"),
    "crypto.verify": ("calls", "ms"),
    "crypto.canonical_encode": ("calls", "bytes", "ms"),
    "crypto.encrypt": ("calls", "bytes"),
    "crypto.decrypt": ("calls", "bytes"),
    "attestation.finalize_report": ("ms",),
    "attestation.verify_trace": ("calls", "ms"),
    "attestation.record_checkpoint": ("calls", "ms"),
    "models.local_train": ("calls", "ms"),
    "models.evaluate": ("ms",),
    "protocol.run_round": ("self_ms",),
    "protocol.client_round": ("self_ms",),
    "protocol.server_verify": ("calls", "ms"),
    "protocol.SignedUpdate.to_wire_bytes": ("calls",),
    "protocol.SignedUpdate.from_wire_bytes": ("calls", "bytes"),
    "protocol.aggregate": ("ms",),
    "protocol.apply_global": ("ms",),
    "adversary.AttackPlan.transform": ("calls",),
    "reporting.compute_metrics": ("ms",),
}

# Setup-phase layers, reported as totals for the one build of the run.
SETUP_LAYERS: dict[str, tuple[str, ...]] = {
    "crypto.keygen_signature": ("calls", "ms"),
    "crypto.dh_keygen": ("ms",),
    "crypto.dh_shared": ("calls", "ms"),
    "protocol.Server.register": ("ms",),
    "datasets.generate_synthetic": ("ms",),
    "harness.build_simulation": ("self_ms",),
}

RATIO_METRICS: dict[str, str] = {
    "protocol.accept_ratio": "share",
    "crypto.sign.wasted_share": "share",
    "trace.overhead_pct": "%",
}

_ROUND_UNITS = {"calls": "calls/round", "bytes": "B/round", "ms": "ms/round", "self_ms": "ms/round"}
_SETUP_UNITS = {"calls": "calls", "ms": "ms", "self_ms": "ms"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layers, table in ((ROUND_LAYERS, _ROUND_UNITS), (SETUP_LAYERS, _SETUP_UNITS)):
        for span, suffixes in layers.items():
            for suffix in suffixes:
                units[f"{span}.{suffix}"] = table[suffix]
    units.update(RATIO_METRICS)
    return units


def _result(measure):
    return lambda args, result, ok: measure(result) if ok else 0


def _argument(index):
    return lambda args, result, ok: len(args[index])


def _targets(attestfl):
    """(owner, attribute, span name, bytes of the call) for each wrap.

    Bytes are read from the result, except for `from_wire_bytes`: most
    tampered blobs fail to parse, so its bytes come from the argument.
    """
    crypto, attestation, protocol = attestfl.crypto, attestfl.attestation, attestfl.protocol
    adversary, models, reporting = attestfl.adversary, attestfl.models, attestfl.reporting
    harness, datasets = attestfl.harness, attestfl.datasets
    update, server, plan = protocol.SignedUpdate, protocol.Server, adversary.AttackPlan
    return [
        (crypto, "sign", "crypto.sign", None),
        (crypto, "verify", "crypto.verify", None),
        (crypto, "canonical_encode", "crypto.canonical_encode", _result(len)),
        (crypto, "encrypt", "crypto.encrypt", _result(lambda r: len(r.ciphertext))),
        (crypto, "decrypt", "crypto.decrypt", _result(len)),
        (crypto, "keygen_signature", "crypto.keygen_signature", None),
        (crypto, "dh_keygen", "crypto.dh_keygen", None),
        (crypto, "dh_shared", "crypto.dh_shared", None),
        (attestation, "finalize_report", "attestation.finalize_report", None),
        (attestation, "verify_trace", "attestation.verify_trace", None),
        (attestation, "record_checkpoint", "attestation.record_checkpoint", None),
        (protocol, "finalize_report", "attestation.finalize_report", None),
        (protocol, "verify_trace", "attestation.verify_trace", None),
        (protocol, "record_checkpoint", "attestation.record_checkpoint", None),
        (models, "local_train", "models.local_train", None),
        (models, "evaluate", "models.evaluate", None),
        (protocol, "run_round", "protocol.run_round", None),
        (protocol, "client_round", "protocol.client_round", None),
        (adversary, "client_round", "protocol.client_round", None),
        (protocol, "server_verify", "protocol.server_verify", None),
        (protocol, "aggregate", "protocol.aggregate", None),
        (protocol, "apply_global", "protocol.apply_global", None),
        (update, "to_wire_bytes", "protocol.SignedUpdate.to_wire_bytes", _result(len)),
        (update, "from_wire_bytes", "protocol.SignedUpdate.from_wire_bytes", _argument(1)),
        (server, "register", "protocol.Server.register", None),
        (plan, "transform", "adversary.AttackPlan.transform", None),
        (reporting, "compute_metrics", "reporting.compute_metrics", None),
        (harness, "build_simulation", "harness.build_simulation", None),
        (datasets, "generate_synthetic", "datasets.generate_synthetic", None),
    ]


class Tracer:
    """Records nested spans around calls into the package's public functions."""

    def __init__(self, attestfl) -> None:
        self.spans: list[list] = []
        self.round = SETUP
        self._stack: list[int] = []
        self._originals = []
        self._wrapped = []
        for owner, attr, name, size in _targets(attestfl):
            raw = owner.__dict__[attr]
            self._originals.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, size))
            else:
                wrapped = self._wrap(name, raw, size)
            self._wrapped.append((owner, attr, wrapped))

    def _wrap(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.round, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            result, ok = None, False
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[4] = clock()
                stack.pop()
                if size is not None:
                    span[5] = size(args, result, ok)

        return traced

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in self._originals:
            setattr(owner, attr, raw)

    def self_times(self) -> list[int]:
        """Self time in ns of each span, index-aligned with `spans`."""
        child = [0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end, _) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, rnd, start, end, nbytes) in enumerate(self.spans):
                record = {"id": i, "parent": parent, "round": rnd, "name": name,
                          "start_ns": start, "end_ns": end, "self_ns": selfs[i], "bytes": nbytes}
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, traced_rounds: list[int]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, plus each layer's share of the median traced round.

    Round-phase figures come from the spans tagged with a round id in
    `traced_rounds`; setup-phase figures from the spans tagged SETUP.
    """
    rounds = len(traced_rounds)
    calls: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    per_round_ns: dict[str, dict[int, int]] = defaultdict(lambda: dict.fromkeys(traced_rounds, 0))
    setup_calls: dict[str, int] = defaultdict(int)
    setup_ns: dict[str, int] = defaultdict(int)
    for (name, _, rnd, _, _, size), self_ns in zip(tracer.spans, tracer.self_times()):
        if rnd == SETUP:
            setup_calls[name] += 1
            setup_ns[name] += self_ns
        else:
            calls[name] += 1
            nbytes[name] += size
            per_round_ns[name][rnd] += self_ns

    def round_ms(name: str) -> float:
        return statistics.median(per_round_ns[name].values()) / 1e6

    metrics: dict[str, float] = {}
    for name, suffixes in ROUND_LAYERS.items():
        for suffix in suffixes:
            if suffix == "calls":
                value = calls[name] / rounds
            elif suffix == "bytes":
                value = nbytes[name] / rounds
            else:
                value = round_ms(name)
            metrics[f"{name}.{suffix}"] = value
    for name, suffixes in SETUP_LAYERS.items():
        for suffix in suffixes:
            metrics[f"{name}.{suffix}"] = setup_calls[name] if suffix == "calls" else setup_ns[name] / 1e6

    round_total = statistics.median(
        sum(per_round_ns[name][r] for name in per_round_ns) for r in traced_rounds
    ) / 1e6
    shares = {name: round_ms(name) / round_total for name in per_round_ns}
    return metrics, shares


def wasted_sign_share(tracer: Tracer, rejected: dict[int, int]) -> float:
    """Share of round-phase signatures spent on deliveries the server rejected.

    Base: every `crypto.sign` call in the traced rounds, the server's own
    report signature included.  A client round's signatures are charged to
    its one delivery; `rejected` maps round id to rejected deliveries.
    """
    spans = tracer.spans
    total = 0
    client_rounds: dict[int, int] = defaultdict(int)
    client_signs: dict[int, int] = defaultdict(int)
    for name, parent, rnd, *_ in spans:
        if rnd == SETUP:
            continue
        if name == "protocol.client_round":
            client_rounds[rnd] += 1
        elif name == "crypto.sign":
            total += 1
            while parent >= 0 and spans[parent][0] != "protocol.client_round":
                parent = spans[parent][1]
            client_signs[rnd] += parent >= 0
    wasted = sum(rejected[r] * client_signs[r] / client_rounds[r] for r in client_rounds)
    return wasted / total
