#!/usr/bin/env python3
"""Scaling sweep: wall-clock cost per client per round as the cohort grows.

Verification work is linear in the number of messages, so the per-client
cost should stay flat.  Key generation happens once at setup and is
reported separately from the steady-state round time, both in total and per
client, with the largest-vs-smallest ratio of each per-client cost.  Peak
RSS is the process's high-water mark once a size is done, so with sizes in
ascending order each row reads the peak of the largest cohort so far.
"""

import argparse
import math
import resource
import statistics
import time

from attestfl import harness


def measure(n: int, rounds: int, args) -> tuple[float, float]:
    cfg = harness.parse_config(
        f"""
        clients = {n}
        rounds = {rounds}
        seed = {args.seed}
        crypto.key_bits = {args.key_bits}
        data.per_client = {args.per_client}
        train.epochs = 2
        """
    )
    t0 = time.perf_counter()
    sim = harness.build_simulation(cfg)
    setup = time.perf_counter() - t0

    table = harness.run_experiment(sim)
    assert table.aborted is None and all(r.accepted_count == n for r in table.reports)
    return setup, statistics.median(r.duration_s for r in table.reports) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 20, 40])
    # rounds at the largest size; a smaller size runs more rounds, so that
    # every size times as many client-rounds, and its round cost is the median
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--per-client", type=int, default=50)
    parser.add_argument("--key-bits", type=int, default=1024, choices=(1024, 2048))
    args = parser.parse_args()

    smallest, largest = min(args.sizes), max(args.sizes)
    print(
        f"{'clients':>8} {'rounds':>7} {'setup s':>8} {'setup ms/client':>16} "
        f"{'ms/client/round':>16} {'peak RSS MB':>12}"
    )
    setup_per_client, round_per_client = {}, {}
    for n in args.sizes:
        rounds = max(args.rounds, math.ceil(args.rounds * largest / n))
        setup, per = measure(n, rounds, args)
        setup_per_client[n], round_per_client[n] = setup / n, per
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{n:>8} {rounds:>7} {setup:>8.2f} {setup / n * 1000:>16.2f} {per * 1000:>16.2f} {peak_mb:>12.1f}")
    setup_ratio = setup_per_client[largest] / setup_per_client[smallest]
    round_ratio = round_per_client[largest] / round_per_client[smallest]
    print(f"\nper-client cost ratio N={largest} vs N={smallest}: setup {setup_ratio:.2f}, round {round_ratio:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
