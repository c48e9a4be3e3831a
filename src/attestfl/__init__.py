"""Deterministic federated learning simulator with signed updates and
control-flow attestation.

The pieces, bottom up: `crypto` (hashing, signatures, key agreement, an
authenticated stream cipher -- all seeded and reproducible), `attestation`
(checkpoint logs chained by hash and checked against a control-flow
graph), `models`/`datasets`/`params` (small numpy training stack),
`protocol` (signed update messages, server-side verification, weighted
aggregation, the round loop), `adversary` (attack models), `harness`
(config files and experiment assembly), `reporting` (metrics and CSV),
`cli` (command-line front end).

Everything here is a simulation for studying the verification pipeline;
the hand-rolled primitives are deliberately seeded and are not a
substitute for a vetted cryptography library.
"""

from .adversary import ATTACK_KINDS, AttackConfig, AttackPlan
from .attestation import (
    AttestationReport,
    Checkpoint,
    CheckpointLabel,
    CheckpointLog,
    ControlFlowGraph,
    TraceVerdict,
    verify_trace,
)
from .datasets import Dataset, generate_holdout, generate_synthetic, load_idx
from .harness import ExperimentConfig, build_simulation, parse_config, run_experiment
from .models import Model, TrainingConfig, local_train, evaluate
from .params import ParameterLayout, ParameterVector
from .protocol import (
    ClientActor,
    GlobalModelState,
    Server,
    SignedUpdate,
    VerificationVerdict,
    aggregate,
    run_round,
    server_verify,
)
from .reporting import MetricsTable, RoundReport, compute_metrics, emit_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ATTACK_KINDS",
    "AttackConfig",
    "AttackPlan",
    "AttestationReport",
    "Checkpoint",
    "CheckpointLabel",
    "CheckpointLog",
    "ControlFlowGraph",
    "TraceVerdict",
    "verify_trace",
    "Dataset",
    "generate_holdout",
    "generate_synthetic",
    "load_idx",
    "ExperimentConfig",
    "build_simulation",
    "parse_config",
    "run_experiment",
    "Model",
    "TrainingConfig",
    "local_train",
    "evaluate",
    "ParameterLayout",
    "ParameterVector",
    "ClientActor",
    "GlobalModelState",
    "Server",
    "SignedUpdate",
    "VerificationVerdict",
    "aggregate",
    "run_round",
    "server_verify",
    "MetricsTable",
    "RoundReport",
    "compute_metrics",
    "emit_csv",
]
