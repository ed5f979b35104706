"""Digests of focsim's numeric results, one ``name sha256`` line per case.

Each digest covers the dtype, shape and raw bytes of every array a case
returns, so sign bits and NaN payloads count as they are stored; a CLI case
covers its exit code and the exact bytes it writes. Cases print in a fixed
order after one ``host`` line (numpy's version, its enabled SIMD dispatch
targets and the OpenBLAS core), so comparing two trees is a diff of two runs
on one machine:

    python tools/digests.py --src /path/to/other/src > other.txt
    python tools/digests.py > this.txt
    diff other.txt this.txt

The cases:

* total_matrix and the propagate_trajectory ellipticities of the default,
  high_order_qwp and spun_fiber media, under both angle rules, at segment
  counts on and around spun's block, sub-block and chunk sizes; past one
  sub-block, total_matrix shares its sub-block products among forked
  workers, and ``taskset -c 0`` runs them all in one process;
* run_current_sweep columns behind seeded plates, over currents that
  include fringe nulls, and behind both distributed front ends;
* seeded 8 x 8, 5 x 4, 1 x 1 and 1 x 7 imperfection scans: their cells,
  and the detected intensities of their stacked plates;
* every CLI subcommand, in CSV and JSON, with small segment counts, and a
  stride-1 trajectory of three pieces of rows, which the table formatter
  shares among its forked workers.

A digest of BLAS products can differ between CPUs and BLAS builds, and a
digest of numpy's transcendental loops between its SIMD targets, so this is
a tool for comparing trees, not a test; the host line shows when two files
come from different kernels. It needs numpy only and takes
about 8 s on a 2-vCPU Xeon.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def host_line() -> str:
    """numpy's version, its enabled SIMD dispatch targets and the core its
    bundled OpenBLAS runs (``unknown`` where that library has no
    ``scipy_openblas_get_corename64_``)."""
    from numpy._core import _multiarray_umath as umath

    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    # dlsym through numpy's own extension also searches the BLAS it links
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    core = "unknown"
    if corename is not None:
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        core = corename().decode()
    return f"host numpy={np.__version__} simd={','.join(simd)} openblas={core}"


def digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        a = np.frombuffer(v, dtype=np.uint8) if isinstance(v, bytes) else np.asarray(v)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _total(fs, medium, grid, rule):
    return (fs.total_matrix(medium, grid, angle_rule=rule),)


def _epsilon(fs, medium, grid, rule):
    return (fs.propagate_trajectory(medium, grid, angle_rule=rule).epsilon,)


def spun_cases(fs, spun):
    media = {
        "default": fs.default_demo_medium(),
        "high_order_qwp": fs.default_high_order_front_end().medium,
        "spun_fiber": fs.default_spun_front_end().medium,
    }
    counts = sorted({1, 2, 3, 1000} | {k + d for k in (spun._BLOCK, spun._SUB, spun._CHUNK) for d in (-1, 0, 1)})
    for name, medium in media.items():
        for rule in ("left", "midpoint"):
            for n in counts:
                grid = fs.grid_for(medium, n)
                yield f"total_matrix/{name}/{rule}/{n}", functools.partial(_total, fs, medium, grid, rule)
                yield f"trajectory/{name}/{rule}/{n}", functools.partial(_epsilon, fs, medium, grid, rule)


def _sweep_columns(fs, spec):
    r = fs.run_current_sweep(spec)
    return (r.currents_a, r.faraday_rad, r.i_out, r.i_ideal, r.err_pct,
            r.max_abs_err_pct, r.mean_abs_err_pct, r.n_fringe_null)


def sweep_cases(fs):
    spec = fs.default_sweep_spec()
    cut = float(fs.constant("plate_cut_deviation_m"))
    splice = float(fs.constant("plate_splice_deviation_rad"))
    per_null = (math.pi / 4) / (spec.verdet_rad_per_amp_turn * spec.turns)
    currents = tuple(sorted(spec.currents_a + (per_null, 3 * per_null, -per_null)))
    rng = np.random.default_rng(16)
    plates = [fs.ImperfectWaveplate.from_cut_deviation(d, b)
              for d, b in zip(rng.uniform(-2 * cut, 2 * cut, 40), rng.uniform(-2 * splice, 2 * splice, 40))]
    plates += [fs.ImperfectWaveplate.nominal(), fs.ImperfectWaveplate(math.pi, 0.3)]
    fronts = [(f"plate/{i}", fs.front_end_imperfect(plate)) for i, plate in enumerate(plates)]
    fronts.append(("ideal", fs.FrontEnd(kind="ideal")))
    for name, front in fronts:
        yield f"sweep/{name}", functools.partial(
            _sweep_columns, fs, replace(spec, front_end=front, currents_a=currents)
        )
    # the distributed front ends, built when their case runs
    for name, build in (("high_order_qwp", fs.default_high_order_front_end),
                        ("spun_fiber", fs.default_spun_front_end)):
        yield f"sweep/{name}", lambda build=build: _sweep_columns(fs, replace(spec, front_end=build()))


def _scan(fs, n_cut, n_splice, seed, currents):
    cut = float(fs.constant("plate_cut_deviation_m"))
    splice = float(fs.constant("plate_splice_deviation_rad"))
    rng = np.random.default_rng(seed)
    cuts = tuple(np.sort(rng.uniform(-cut, cut, n_cut)).tolist())
    splices = tuple(np.sort(rng.uniform(-splice, splice, n_splice)).tolist())
    scan = fs.run_imperfection_scan(cuts, splices, currents)
    pairs = [fs.front_end_imperfect(fs.ImperfectWaveplate.from_cut_deviation(d, b)).converter_pair()
             for d in cuts for b in splices]
    stacked = tuple(np.stack(m)[:, np.newaxis] for m in zip(*pairs))
    spec = fs.default_sweep_spec()
    grid = spec.currents_a if currents is None else currents
    coil = fs.FaradayCoil.from_currents(spec.verdet_rad_per_amp_turn, spec.turns, grid)
    r = fs.detected_intensity(coil, stacked)
    cells = [(c.cut_deviation_m, c.splice_angle_rad, c.max_abs_err_pct) for c in scan.cells]
    return cells, scan.worst_err_pct, r.i_out, r.i_ideal, r.relative_error_pct


def scan_cases(fs):
    spec = fs.default_sweep_spec()
    null = (math.pi / 4) / (spec.verdet_rad_per_amp_turn * spec.turns)
    yield "scan/8x8", functools.partial(_scan, fs, 8, 8, 0, None)
    yield "scan/5x4", functools.partial(_scan, fs, 5, 4, 1, (0.0, 250.0, null, 1000.0, 2000.0, 3 * null))
    # a single plate, and a stack along one axis
    yield "scan/1x1", functools.partial(_scan, fs, 1, 1, 2, None)
    yield "scan/1x7", functools.partial(_scan, fs, 1, 7, 3, (0.0, null, 1500.0, 2000.0))


_IMPERFECT = {"front_end": {"kind": "imperfect_qwp", "cut_deviation_m": 3e-4, "splice_angle_rad": -0.02}}
_LINEAR = {"medium": {"profile": {"kind": "linear", "xi_over_delta": 4.0}}}
# (case name, config document or None, arguments); the front-end configs go
# with the subcommands that read the front end, the medium one with those
# that read the medium
CLI_RUNS = (
    ("simulate", None, ["simulate"]),
    ("simulate-2500A", None, ["simulate", "--current-a", "2500"]),
    ("simulate-imperfect_qwp", _IMPERFECT, ["simulate"]),
    ("sweep-current", None, ["sweep-current"]),
    ("sweep-current-37", None, ["sweep-current", "--points", "37", "--max-a", "9000"]),
    ("sweep-current-imperfect_qwp", _IMPERFECT, ["sweep-current"]),
    ("sweep-current-high_order_qwp", {"front_end": {"kind": "high_order_qwp", "n_segments": 30000}},
     ["sweep-current"]),
    ("sweep-current-spun_fiber", {"front_end": {"kind": "spun_fiber", "n_segments": 30000}},
     ["sweep-current"]),
    ("trajectory", None, ["trajectory", "--segments", "20000", "--stride", "7"]),
    ("trajectory-linear-axis_ratio", _LINEAR,
     ["trajectory", "--segments", "20001", "--metric", "axis_ratio", "--stride", "1"]),
    ("sweep-xi", None, ["sweep-xi", "--segments", "20000"]),
    ("perturb", None, ["perturb", "--segments", "20000"]),
    ("converge", None, ["converge", "--counts", "256,512,1024", "--reference-n", "8192"]),
    ("converge-linear", _LINEAR, ["converge", "--counts", "256,512,1024", "--reference-n", "8192"]),
    ("print-config", None, ["print-config"]),
    ("print-config-imperfect_qwp", _IMPERFECT, ["print-config"]),
)


def _cli(main, argv, tmp: pathlib.Path):
    out = tmp / "out"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def cli_cases(tmp: pathlib.Path):
    from focsim.cli import main
    from focsim.tables import _PIECE

    pieces = ("trajectory-3-pieces", None, ["trajectory", "--segments", str(2 * _PIECE + 100), "--stride", "1"])
    for name, conf, argv in (*CLI_RUNS, pieces):
        if conf is not None:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(conf), encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        # print-config writes the config document whatever the format
        for fmt in ("csv",) if argv[0] == "print-config" else ("csv", "json"):
            yield f"cli/{name}/{fmt}", functools.partial(_cli, main, [*argv, "--format", fmt], tmp)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", type=pathlib.Path, default=SRC, help="the src directory to import focsim from")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import focsim as fs
    from focsim import spun

    print(host_line(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        cases = (*spun_cases(fs, spun), *sweep_cases(fs), *scan_cases(fs), *cli_cases(pathlib.Path(tmp)))
        for name, run in cases:
            print(name, digest(*run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
