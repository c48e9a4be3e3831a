"""attestfl benchmark: set-up time, round latency and verified-update throughput.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every sample runs in a fresh interpreter
(bench/worker.py) that drives the public API: `harness.parse_config`, then
`harness.build_simulation`, then `protocol.run_round` for at least
`--min-rounds` rounds and at least `--seconds` seconds.  With `--trace 0`
set-up is sampled SETUP_SAMPLES times and the end-to-end metrics are
printed; with `--trace 1` one traced run prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `attempted` counts the
deliveries sent to the server and `failed` those whose verdict differs from
the expected one (attacked deliveries rejected, all others accepted).  A
wrong verdict, an aborted round or a correctness digest that differs from
the one pinned in bench/digests.json makes the run incorrect, and the
command then exits 1 after printing its result.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
MIN_ROUNDS = 100  # p90 then has ten rounds beyond it
TIME_LIMIT_S = 175  # the whole run, every worker included

sys.path.insert(0, str(BENCH_DIR))
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child(deadline: float, *args: str) -> dict:
    """Run one worker in a fresh interpreter; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} overran the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pinned_digest(workload: str, seed: int):
    pins = json.loads((BENCH_DIR / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-rounds", type=int, default=MIN_ROUNDS,
                        help="rounds measured at least (lower only for smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "attestfl" / "__init__.py").is_file():
        print(f"no attestfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        setups = [_child(deadline, "setup", *common)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = _child(deadline, "run", *common, "--seconds", str(args.seconds),
                 "--min-rounds", str(args.min_rounds), "--trace", str(args.trace))
    setups.append(run["setup_s"])

    pinned = _pinned_digest(args.workload, args.seed)
    digest_ok = pinned is None or run["digest"] is None or run["digest"] == pinned
    correct = digest_ok and run["misverdicts"] == 0 and run["aborted"] is None

    round_s = run["round_s"]
    if args.trace:
        values = run["layers"]
        units = metric_units()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "round_ms_p50": 1000 * statistics.median(round_s),
            "round_ms_p90": 1000 * statistics.quantiles(round_s, n=10, method="inclusive")[8],
            "updates_per_s": run["accepted"] / sum(round_s),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    print("# env " + json.dumps(run["env"], sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(round_s)} "
          f"setup_samples={[round(s, 3) for s in setups]}")
    print(f"# misverdict_share={run['misverdicts'] / run['deliveries']} share "
          f"({run['misverdicts']} of {run['deliveries']} deliveries) aborted={run['aborted']}")
    print(f"# digest={run['digest']} pinned={pinned} match={digest_ok}")
    if args.trace:
        top = sorted(run["shares"].items(), key=lambda kv: -kv[1])
        print("# self-time share of round: " + ", ".join(f"{k}={v:.3f}" for k, v in top[:8]))
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": correct,
        "attempted": run["deliveries"],
        "failed": run["misverdicts"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
