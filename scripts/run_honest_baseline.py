#!/usr/bin/env python3
"""Honest baseline: all clients registered, no adversary, security on.

Prints the per-round metrics table and optionally writes it as CSV.  With
everything honest the verification and authentication rates must both sit
at exactly 100% every round and the incident count at zero; anything else
means the pipeline itself is broken.
"""

import argparse

from attestfl import harness, reporting


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--key-bits", type=int, default=1024, choices=(1024, 2048))
    parser.add_argument("--encrypt", action="store_true", help="seal updates under session keys")
    parser.add_argument("--out", metavar="PATH", help="write the metrics table as CSV")
    args = parser.parse_args()

    cfg = harness.parse_config(
        f"""
        rounds = {args.rounds}
        clients = {args.clients}
        seed = {args.seed}
        crypto.key_bits = {args.key_bits}
        encrypt = {'on' if args.encrypt else 'off'}
        """
    )
    table = harness.run_experiment(harness.build_simulation(cfg))

    rows = table.rows()
    print(f"{'round':>7} {'verified%':>10} {'auth%':>8} {'incidents':>10} {'accuracy':>9} {'ms':>7}")
    for label, verification, authentication, incidents, accuracy, duration_s in rows:
        print(
            f"{label:>7} {verification:>10.1f} {authentication:>8.1f} "
            f"{incidents:>10} {accuracy:>9.4f} {duration_s * 1000:>7.1f}"
        )
    clean = all(row[1:4] == (100.0, 100.0, 0) for row in rows)
    print(f"\nfinal accuracy {table.final_accuracy:.4f}; all rounds clean: {clean}")
    if args.out:
        reporting.emit_csv(table, args.out)
        print(f"table written to {args.out}")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
