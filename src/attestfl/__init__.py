"""Deterministic federated learning simulator with signed updates and
control-flow attestation.

The pieces, bottom up: `crypto` (hashing, signatures, key agreement, an
authenticated stream cipher -- all seeded and reproducible), `attestation`
(checkpoint logs chained by hash, checked against a control-flow graph and
bound to one actor and round), `models`/`datasets`/`params` (small numpy
training stack), `protocol` (signed update messages, server-side
verification, weighted aggregation, the round loop), `adversary` (attack
models), `harness` (config files and experiment assembly), `reporting`
(metrics and CSV), `cli` (command-line front end).  Import names from
their modules (`from attestfl.protocol import run_round`); the package
itself exports only `__version__`.

Everything here is a simulation for studying the verification pipeline;
the hand-rolled primitives are deliberately seeded and are not a
substitute for a vetted cryptography library.
"""

from . import adversary, attestation, crypto, datasets, harness, models, params, protocol, reporting

__version__ = "0.1.0"
