"""One benchmark process: build a workload's simulation, optionally run rounds.

Started by bench/run.py in a fresh interpreter for every sample, so no
process-level cache in the package carries work from one sample to the
next.  Prints one JSON object on its last line of standard output.

    python3 bench/worker.py setup --workload NAME --seed N
    python3 bench/worker.py run --workload NAME --seed N --seconds S --min-rounds R --trace 0|1
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGEST_ROUNDS = 100

sys.path.insert(0, str(ROOT / "src"))
import attestfl  # noqa: E402
from attestfl import adversary, harness, protocol, reporting  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

if Path(attestfl.__file__).resolve().parent != ROOT / "src" / "attestfl":
    sys.exit(f"attestfl imported from {attestfl.__file__}, not from {ROOT / 'src'}")


def _config(workload: str, seed: int):
    return harness.parse_config("", {**WORKLOADS[workload].overrides, "seed": str(seed)})


def _expected_verdicts(sim) -> list[bool]:
    """Acceptance each delivery must get, in delivery order.

    Clients deliver in ascending id order; an attacked delivery must be
    rejected and every other delivery accepted.
    """
    ids = sorted(client.client_id for client in sim.clients)
    if sim.plan is None:
        return [True] * len(ids)
    if sim.plan.kind == adversary.ATTACK_TAMPER:
        return [cid not in sim.plan.compromised for cid in ids]
    raise ValueError(f"no verdict expectation for attack {sim.plan.kind!r}")


def _digest(sim, reports, history) -> str:
    """SHA-256 over the CSV without duration_ms, then the applied-update history."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"csv-{os.getpid()}.csv"
    table = reporting.MetricsTable(reports=list(reports), client_count=sim.config.clients)
    try:
        reporting.emit_csv(table, str(path))
        lines = path.read_text().splitlines()
    finally:
        path.unlink(missing_ok=True)
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.rsplit(",", 1)[0].encode() + b"\n")
    for digest in history:
        hasher.update(digest)
    return hasher.hexdigest()


def _blas() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = None
    return info


def _git_sha():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def _environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "attestfl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        **_blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def setup_sample(workload: str, seed: int) -> dict:
    config = _config(workload, seed)
    started = time.perf_counter()
    harness.build_simulation(config)
    return {"setup_s": time.perf_counter() - started}


def run(workload: str, seed: int, seconds: float, min_rounds: int, trace: bool) -> dict:
    env = _environment()
    config = _config(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics, wasted_sign_share

        tracer = Tracer(attestfl)
        tracer.install()
    started = time.perf_counter()
    sim = harness.build_simulation(config)
    setup_s = time.perf_counter() - started

    expected = _expected_verdicts(sim)
    round_s: list[float] = []
    traced_rounds: list[int] = []
    rejected: dict[int, int] = {}
    reports = []
    history = None
    accepted = deliveries = misverdicts = 0
    aborted = None
    deadline = time.perf_counter() + seconds
    while len(round_s) < min_rounds or time.perf_counter() < deadline:
        index = len(round_s)
        # traced runs interleave traced and untraced rounds, so the overhead
        # estimate and the layer split see the same machine conditions
        if tracer is not None:
            if index % 2 == 0:
                tracer.round = index
                traced_rounds.append(index)
                tracer.install()
            else:
                tracer.uninstall()
        t0 = time.perf_counter()
        try:
            report = protocol.run_round(sim.server, sim.clients, plan=sim.plan, eval_data=sim.holdout)
        except protocol.ProtocolError as exc:
            aborted = str(exc)
            deliveries += len(expected)
            misverdicts += len(expected)
            break
        round_s.append(time.perf_counter() - t0)
        deliveries += len(expected)
        accepted += report.accepted_count
        rejected[index] = len(report.outcomes) - report.accepted_count
        verdicts = [outcome.accepted for outcome in report.outcomes]
        if len(verdicts) != len(expected):
            misverdicts += len(expected)
        else:
            misverdicts += sum(got != want for got, want in zip(verdicts, expected))
        if index < DIGEST_ROUNDS:
            reports.append(report)
            if index == DIGEST_ROUNDS - 1:
                history = sim.server.state.history
    if tracer is not None:
        tracer.uninstall()

    result = {
        "env": env,
        "setup_s": setup_s,
        "round_s": round_s,
        "accepted": accepted,
        "deliveries": deliveries,
        "misverdicts": misverdicts,
        "aborted": aborted,
        "digest": _digest(sim, reports, history) if history is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        metrics, shares = layer_metrics(tracer, traced_rounds)
        traced, plain = round_s[0::2], round_s[1::2]
        metrics["protocol.accept_ratio"] = accepted / deliveries
        metrics["crypto.sign.wasted_share"] = wasted_sign_share(tracer, rejected)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        result["layers"] = metrics
        result["shares"] = shares
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=DIGEST_ROUNDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_sample(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, args.seconds, args.min_rounds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
