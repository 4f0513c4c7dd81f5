"""Command-line entry points.

  fedcast generate --config cfg.yaml --out-dir data/
      Materialize the config's synthetic cohort as per-client CSV traces.
  fedcast run --config cfg.yaml [--output-dir DIR] [--seeds 1,2,3]
      Validate the config and execute the experiment it describes.
  fedcast report --runs DIR [DIR ...] --out plot.csv
      Flatten finished runs into one long-format CSV for plotting.

Exit codes: 0 on success, 2 on invalid configs or unreadable data.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from fedcast.dataio import DataError, save_csv
from fedcast.experiment import (
    ConfigError,
    emit_plot_data,
    load_config,
    materialize_data,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcast",
        description="Deterministic federated traffic-forecasting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a config's synthetic cohort as CSVs")
    gen.add_argument("--config", required=True, help="experiment config (YAML/JSON)")
    gen.add_argument("--out-dir", required=True, help="directory for the trace CSVs")

    run = sub.add_parser("run", help="execute the experiment a config describes")
    run.add_argument("--config", required=True, help="experiment config or manifest")
    run.add_argument("--output-dir", default=None, help="override config.output_dir")
    run.add_argument(
        "--seeds", default=None, help="comma-separated seed override, e.g. 1,2,3"
    )

    rep = sub.add_parser("report", help="flatten finished runs into one CSV")
    rep.add_argument("--runs", nargs="+", required=True, help="experiment output dirs")
    rep.add_argument("--out", required=True, help="path of the combined CSV")
    return parser


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    if config.data.synthetic is None:
        raise ConfigError("config.data: generate needs a synthetic section")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for dataset in materialize_data(config):
        path = out_dir / f"{dataset.client_id}.csv"
        save_csv(dataset, path)
        print(f"wrote {path} ({len(dataset)} rows)")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s)
            config = dataclasses.replace(config, seeds=seeds)
        except ValueError as exc:
            raise ConfigError(f"--seeds: {exc}") from exc
    summary = run_experiment(config, output_dir=args.output_dir)
    print(f"experiment {summary.name!r} ({summary.setting}): "
          f"{len(summary.runs)} runs -> {summary.output_dir}")
    for run in summary.runs:
        print(
            f"  cell={run.cell} seed={run.seed} "
            f"avg_nrmse={run.avg_nrmse:.4f} avg_mae={run.avg_mae:.4g}"
        )
    return 0


def _cmd_report(args) -> int:
    n_rows = emit_plot_data(args.runs, args.out)
    print(f"wrote {args.out} ({n_rows} rows)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
