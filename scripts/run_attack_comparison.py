#!/usr/bin/env python3
"""Attack sweep: every adversary kind, with verification on versus off.

For each attack the same seeded world runs twice, once with the server
verifying updates and once accepting everything it can open.  The table
shows what each check buys: poisoned updates only hurt the unguarded run,
sybils and replays only inflate its acceptance count, and label flipping
gets through either way (execution is honest) but is diluted by weighting.
"""

import argparse

from attestfl import harness

KINDS = ("none", "model-poison", "data-poison", "tamper", "sybil", "replay")


def run(kind: str, security: str, args) -> harness.MetricsTable:
    cfg = harness.parse_config(
        f"""
        rounds = {args.rounds}
        clients = {args.clients}
        seed = {args.seed}
        security = {security}
        crypto.key_bits = {args.key_bits}
        attack.kind = {kind}
        attack.fraction = {args.fraction}
        attack.strength = {args.strength}
        """
    )
    return harness.run_experiment(harness.build_simulation(cfg))


def mean_accepted(table: harness.MetricsTable) -> float:
    return sum(r.accepted_count for r in table.reports) / len(table.reports)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--fraction", type=float, default=0.25)
    parser.add_argument("--strength", type=float, default=-10.0)
    parser.add_argument("--key-bits", type=int, default=1024, choices=(1024, 2048))
    args = parser.parse_args()

    print(
        f"{'attack':>14} {'acc(on)':>8} {'acc(off)':>9} {'gap':>7} "
        f"{'accepted/rd on':>14} {'off':>5} {'incidents on/off':>17}"
    )
    for kind in KINDS:
        on = run(kind, "on", args)
        off = run(kind, "off", args)
        gap = on.final_accuracy - off.final_accuracy
        print(
            f"{kind:>14} {on.final_accuracy:>8.4f} {off.final_accuracy:>9.4f} {gap:>+7.4f} "
            f"{mean_accepted(on):>14.1f} {mean_accepted(off):>5.1f} "
            f"{on.total_incidents:>8}/{off.total_incidents}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
