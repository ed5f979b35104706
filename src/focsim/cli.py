"""Command-line front end.

Every subcommand reads an optional JSON config, reads its flags over it as
a partial config with the same checks as the file, runs one campaign, and
emits a single table to stdout or --out, writing each piece of rows as it
is formatted. Timing goes to stderr so the emitted bytes depend only on
the configuration.

Exit codes: 0 success, 2 configuration error, 3 numeric domain error or
a failed allocation, 4 output I/O failure. On 3 or 4 after the first
piece, the output holds part of the table.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from collections.abc import Generator
from dataclasses import astuple, fields, replace

import numpy as np

from .config import AppConfig, default_config, load_config, parse_config, serialize_config
from .errors import ConfigError, FocsimError, NumericDomainError
from .experiments import (
    ConvergenceRow,
    SweepResult,
    XiSweepRow,
    run_convergence_ladder,
    run_current_sweep,
    run_perturbation_study,
    run_xi_sweep,
)
from .spun import grid_for, propagate_trajectory
from .tables import ResultTable, render_pieces

_SWEEP_COLUMNS = ("current_a", "faraday_rad", "i_out", "i_ideal", "relative_error_pct")


def _current_table(cfg: AppConfig, currents=None) -> tuple[SweepResult, ResultTable]:
    """The configured front end and coil swept over currents, one row each."""
    res = run_current_sweep(cfg.sweep_spec(currents))
    table = ResultTable(
        columns=_SWEEP_COLUMNS,
        cells=(res.currents_a, res.faraday_rad, res.i_out, res.i_ideal, res.err_pct),
        grid_n=cfg.front_end.n_segments or None,
    )
    return res, table


def _simulate(cfg: AppConfig) -> ResultTable:
    res, table = _current_table(cfg, (cfg.coil.current_a,))
    if res.n_fringe_null:
        f = float(res.faraday_rad[0])
        raise NumericDomainError(
            f"current_a={cfg.coil.current_a}: ideal fringe vanishes at F={f!r} rad"
        )
    return table


def _trajectory(cfg: AppConfig) -> ResultTable:
    medium = cfg.medium.build()
    traj = propagate_trajectory(
        medium,
        grid_for(medium, cfg.trajectory.n_segments),
        metric_kind=cfg.trajectory.metric_kind,
    )
    n = cfg.trajectory.n_segments
    idx = np.arange(0, n + 1, cfg.trajectory.stride)
    if idx[-1] != n:
        idx = np.append(idx, n)
    return ResultTable(
        columns=("z_m", "epsilon"),
        cells=(traj.z_m[idx], traj.epsilon[idx]),
        grid_n=n,
        extra_metadata=(("metric", cfg.trajectory.metric_kind),),
    )


def _sweep_current(cfg: AppConfig) -> ResultTable:
    return _current_table(cfg)[1]


def _names(row_type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(row_type))


def _sweep_xi(cfg: AppConfig) -> ResultTable:
    rows = []
    for kind in cfg.xi_sweep.profiles:
        medium = replace(cfg.medium, profile=replace(cfg.medium.profile, kind=kind)).build()
        res = run_xi_sweep(medium, cfg.xi_sweep.ratios, cfg.xi_sweep.n_segments)
        rows.extend((kind, *astuple(r)) for r in res.rows)
    return ResultTable.from_rows(
        columns=("profile", *_names(XiSweepRow)),
        rows=tuple(rows),
        grid_n=cfg.xi_sweep.n_segments,
    )


def _perturb(cfg: AppConfig) -> ResultTable:
    res = run_perturbation_study(
        cfg.medium.build(),
        cfg.perturbation.n_segments,
        wavelength_drift_m=cfg.perturbation.wavelength_drift_m,
        temperature_excursion_c=cfg.perturbation.temperature_excursion_c,
    )
    rows = tuple(
        (
            ax.label,
            ax.low_value,
            ax.high_value,
            res.base_pp,
            ax.pp_increase_pct,
            res.base_rms,
            ax.rms_increase_pct,
        )
        for ax in (res.wavelength, res.temperature)
    )
    return ResultTable.from_rows(
        columns=(
            "axis",
            "low_value",
            "high_value",
            "base_delta_eps_pp",
            "delta_eps_pp_increase_pct",
            "base_rms_eps",
            "rms_eps_increase_pct",
        ),
        rows=rows,
        grid_n=cfg.perturbation.n_segments,
    )


def _converge(cfg: AppConfig) -> ResultTable:
    res = run_convergence_ladder(
        cfg.medium.build(),
        cfg.convergence.segment_counts,
        cfg.convergence.reference_n,
    )
    ratios = res.ratios() + (None,)
    return ResultTable.from_rows(
        columns=(*_names(ConvergenceRow), "ratio"),
        rows=tuple((*astuple(row), ratio) for row, ratio in zip(res.rows, ratios)),
        grid_n=cfg.convergence.reference_n,
    )


# each subcommand's help text and runner; print-config has no runner
_COMMANDS = {
    "simulate": ("one round trip at one current", _simulate),
    "trajectory": ("ellipticity along the medium", _trajectory),
    "sweep-current": ("detected intensity vs current", _sweep_current),
    "sweep-xi": ("ripple vs spin-rate ratio", _sweep_xi),
    "perturb": ("wavelength/temperature drift study", _perturb),
    "converge": ("grid refinement report", _converge),
    "print-config": ("emit the fully resolved configuration", None),
}


def _csv_list(cast):
    def parse(text: str):
        try:
            return [cast(part) for part in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


# (subcommand, flag, argument type, the config key the flag sets). The flags
# of a run form a partial config document read over the loaded config, so a
# flag passes exactly the checks of the same key in a file.
_FLAGS = (
    ("simulate", "--current-a", float, "coil.current_a"),
    ("trajectory", "--segments", int, "trajectory.n_segments"),
    ("trajectory", "--stride", int, "trajectory.stride"),
    ("trajectory", "--metric", str, "trajectory.metric_kind"),
    ("sweep-current", "--max-a", float, "current_sweep.max_a"),
    ("sweep-current", "--points", int, "current_sweep.points"),
    ("sweep-xi", "--ratios", _csv_list(float), "xi_sweep.ratios"),
    ("sweep-xi", "--profiles", _csv_list(str), "xi_sweep.profiles"),
    ("sweep-xi", "--segments", int, "xi_sweep.n_segments"),
    ("perturb", "--segments", int, "perturbation.n_segments"),
    ("converge", "--counts", _csv_list(int), "convergence.segment_counts"),
    ("converge", "--reference-n", int, "convergence.reference_n"),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument("--config", metavar="PATH", help="JSON scenario config")
    common.add_argument(
        "--seedless",
        action="store_true",
        help="accepted for interface compatibility; output is always deterministic",
    )

    parser = argparse.ArgumentParser(
        prog="focsim",
        description="Jones-calculus simulator for reflective fiber-optic current sensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (text, _) in _COMMANDS.items()
    }
    for command, flag, cast, key in _FLAGS:
        commands[command].add_argument(
            flag, type=cast, dest=key, metavar="VALUE", help=f"sets {key}"
        )
    return parser


def _flag_document(args: argparse.Namespace) -> dict:
    """The partial config document spelled by the flags given."""
    doc: dict = {}
    for *_, key in _FLAGS:
        # each key belongs to one subcommand; only its flags are in args
        value = getattr(args, key, None)
        if value is not None:
            section, name = key.split(".")
            doc.setdefault(section, {})[name] = value
    return doc


def _write_out(pieces: Generator[str, None, None], out_path: str | None) -> None:
    """Write each piece as it is produced. The pieces are closed however the
    writing ends, so a table's formatting workers stop at once."""
    with contextlib.closing(pieces):
        if out_path is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
            return
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else default_config()
        cfg = parse_config(_flag_document(args), base=cfg)
        run = _COMMANDS[args.command][1]
        if run is None:
            # one piece, as a generator that _write_out closes like a table's
            pieces = (text for text in (serialize_config(cfg),))
        else:
            pieces = render_pieces(run(cfg), args.format)
        # the table is formatted while it is written, so a failed allocation
        # or write can leave part of it behind
        _write_out(pieces, args.out)
    except ConfigError as exc:
        print(f"focsim: config error: {exc}", file=sys.stderr)
        return 2
    except NumericDomainError as exc:
        print(f"focsim: numeric domain error: {exc}", file=sys.stderr)
        return 3
    except FocsimError as exc:
        print(f"focsim: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"focsim: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"focsim: cannot write output: {exc}", file=sys.stderr)
        return 4
    print(f"focsim: {args.command} finished in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
