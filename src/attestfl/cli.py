"""Command-line front end for running federated attestation experiments.

Exit codes: 0 run completed, 1 bad usage, config or CSV path, 2 run aborted
by a server-side integrity failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import harness
from .harness import ConfigError
from .reporting import MetricsTable, emit_csv

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for aborted runs
    def error(self, message: str) -> "argparse.NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Every flag but --config and --out stores under the config key it overrides."""
    parser = _Parser(
        prog="attestfl",
        description="Simulate attested federated learning rounds and report security metrics.",
    )
    parser.add_argument("--config", metavar="PATH", help="experiment config file (key = value lines)")
    parser.add_argument("--rounds", type=int, metavar="N", help="number of federated rounds")
    parser.add_argument("--clients", type=int, metavar="N", help="number of registered clients")
    parser.add_argument("--security", choices=("on", "off"), help="verify updates before aggregating")
    parser.add_argument("--encrypt", choices=("on", "off"), help="seal updates under session keys")
    parser.add_argument(
        "--attack",
        dest="attack.kind",
        metavar="KIND",
        help="adversary kind: none, model-poison, data-poison, tamper, sybil, replay",
    )
    parser.add_argument(
        "--attack-fraction", dest="attack.fraction", type=float, metavar="F", help="share of clients compromised"
    )
    parser.add_argument(
        "--attack-strength", dest="attack.strength", type=float, metavar="S", help="poison scaling factor"
    )
    parser.add_argument("--seed", type=int, metavar="N", help="master seed for the whole experiment")
    parser.add_argument("--out", metavar="PATH", help="write the per-round metrics table as CSV")
    parser.add_argument("--dataset", dest="data.source", choices=("synthetic", "idx"), help="data source")
    parser.add_argument(
        "--idx-images", dest="data.idx_images", metavar="PATH", help="IDX image file (dataset=idx)"
    )
    parser.add_argument(
        "--idx-labels", dest="data.idx_labels", metavar="PATH", help="IDX label file (dataset=idx)"
    )
    parser.add_argument(
        "--subset", dest="data.subset", type=int, metavar="N", help="IDX examples to load (dataset=idx)"
    )
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    return {
        key: str(value)
        for key, value in vars(args).items()
        if value is not None and key not in ("config", "out")
    }


def _fmt(value: Optional[float]) -> str:
    return "na" if value is None else f"{value:.1f}"


def _print_table(table: MetricsTable) -> None:
    print(f"{'round':>7}  {'verified%':>9}  {'auth%':>9}  {'incidents':>9}  {'accuracy':>8}")
    for label, verification, authentication, incidents, accuracy, _ in table.rows():
        print(f"{label:>7}  {_fmt(verification):>9}  {_fmt(authentication):>9}  {incidents:>9}  {accuracy:>8.4f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"attestfl: cannot read config: {exc}", file=sys.stderr)
            return 1

    try:
        config = harness.parse_config(text, overrides=_overrides(args))
        # data files are read, and can be rejected, only when the run starts
        table = harness.run_experiment(harness.build_simulation(config))
    except ConfigError as exc:
        print(f"attestfl: config error: {exc}", file=sys.stderr)
        return 1

    if table.reports:
        _print_table(table)
        if args.out is not None:
            try:
                emit_csv(table, args.out)
            except OSError as exc:
                print(f"attestfl: cannot write CSV: {exc}", file=sys.stderr)
                return 1
    if table.aborted:
        print(f"attestfl: run aborted: {table.aborted}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
