"""Command-line entry points: map, eval, and sweep subcommands.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 for
data problems (unreadable or malformed inputs, degenerate scenes).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .config import (
    OUTPUT_NAMES,
    PipelineConfig,
    _coerce,
    apply_overrides,
    load_config,
)
from .errors import ConfigError, LidarMapsError
from .evaluate import DEFAULT_TILE_SIZE
from .pipeline import (
    SWEEPABLE,
    load_pred_mask,
    load_truth_labels,
    run_eval,
    run_pipeline,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped from exit 2 to exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="key=value settings file")
    p.add_argument("--gsd", type=float, help="cell size in meters")
    p.add_argument("--ht", type=float, help="height threshold in meters")
    p.add_argument("--k1", type=int, help="opening kernel size in cells")
    p.add_argument("--k2", type=int, help="roughness window size in cells")
    p.add_argument("--rt", type=int, help="roughness planarity cutoff")
    p.add_argument("--dt", type=float, help="minimum planarity ratio to keep")
    p.add_argument("--k3", type=int, help="boundary dilation kernel in cells")
    p.add_argument("--slope-threshold", type=float, help="break-line step in meters")
    p.add_argument("--window-size", type=float, dest="window_size_m", metavar="WINDOW_SIZE",
                   help="processing window size in meters")
    p.add_argument("--overlap", type=float, dest="overlap_m", metavar="OVERLAP",
                   help="window overlap in meters")
    p.add_argument("--median-roof", type=int, metavar="N", help="roof median window, 0=off")
    p.add_argument("--kernel-shape", choices=("square", "diamond"))
    p.add_argument("--map3d-source", choices=("ndhm", "dsm"), help="roof height source")
    p.add_argument("--emit", type=lambda raw: _coerce("outputs", raw), dest="outputs",
                   metavar="LIST", help=f"comma list of {','.join(OUTPUT_NAMES)}")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then --config, then the flags given; a flag's dest is its field."""
    cfg = PipelineConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    return apply_overrides(cfg, {f.name: getattr(args, f.name, None) for f in fields(cfg)})


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="DIR", required=True, help="output directory")
    p.add_argument("--dtm-file", metavar="PATH", help="external terrain grid (.asc)")
    p.add_argument("--workers", type=int, default=1, help="parallel window workers")
    p.add_argument(
        "--format", choices=("auto", "las", "xyz"), default="auto",
        help="input point format (default: by extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lidarmaps", description="Building maps from airborne LiDAR.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", parents=[], help="run the full map pipeline")
    p_map.add_argument("inputs", nargs="+", metavar="POINTS", help="LAS or XYZ files")
    _add_config_flags(p_map)
    _add_run_flags(p_map)

    p_eval = sub.add_parser("eval", help="compare a building map against truth")
    p_eval.add_argument("--pred", required=True, metavar="ASC", help="predicted map grid")
    p_eval.add_argument(
        "--truth", required=True, metavar="PATH", help="GeoJSON footprints or a grid"
    )
    p_eval.add_argument("--tile-size", type=float, default=DEFAULT_TILE_SIZE,
                        metavar="TILE_SIZE", help="tile edge in meters")
    p_eval.add_argument("--out", metavar="DIR", required=True, help="report directory")

    p_sweep = sub.add_parser("sweep", help="rerun the pipeline over parameter values")
    p_sweep.add_argument("inputs", nargs="+", metavar="POINTS")
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, metavar="LIST", help="comma list")
    p_sweep.add_argument("--truth", required=True, metavar="PATH")
    _add_config_flags(p_sweep)
    _add_run_flags(p_sweep)
    return parser


def _cmd_map(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_pipeline(
        cfg,
        args.inputs,
        out_dir=args.out,
        workers=args.workers,
        external_dtm=args.dtm_file,
        input_format=args.format,
    )
    built = int(result.products["map2d"].values.sum())
    print(
        f"{result.spec.width}x{result.spec.height} cells, "
        f"{result.windows} window(s), {built} building cells -> {args.out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pred = load_pred_mask(args.pred)
    truth = load_truth_labels(args.truth, pred.spec)
    res = run_eval(pred, truth, args.tile_size, args.out)
    c = res.cells

    def show(v: float | None) -> str:
        return "nan" if v is None else f"{v:.4f}"

    print(
        f"iou={show(c.iou)} precision={show(c.precision)} "
        f"recall={show(c.recall)} f1={show(c.f1)} -> {args.out}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    values = [_coerce(args.param, s) for s in args.values.split(",") if s.strip()]
    rows = run_sweep(
        cfg,
        args.param,
        values,
        args.inputs,
        args.truth,
        out_dir=args.out,
        workers=args.workers,
        external_dtm=args.dtm_file,
        input_format=args.format,
    )
    for v, m in rows:
        iou = "nan" if m.iou is None else f"{m.iou:.4f}"
        print(f"{args.param}={v} iou={iou}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "map":
            return _cmd_map(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LidarMapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
