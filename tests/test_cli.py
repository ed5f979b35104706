"""End-to-end CLI checks.

Byte comparisons against the committed golden outputs pin the default
scenario and the output formatting at once; everything else checks the
exit-code contract and flag plumbing. Most checks run real subprocesses;
the many small runs of the malformed-input checks call cli.main in-process.
"""

import copy
import errno
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import focsim as fs
from focsim import cli
from focsim.config import default_config, parse_config, serialize_config
from focsim.constants import constants_fingerprint
from focsim.tables import _PIECE, ResultTable, render, render_pieces

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "focsim.cli", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_simulate_matches_golden_bytes():
    proc = run_cli("simulate")
    assert proc.stdout == GOLDEN.joinpath("default_simulate.csv").read_text()


def test_sweep_current_matches_golden_bytes():
    proc = run_cli("sweep-current")
    assert proc.stdout == GOLDEN.joinpath("default_sweep.csv").read_text()
    proc = run_cli("sweep-current", "--format", "json")
    assert proc.stdout == GOLDEN.joinpath("default_sweep.json").read_text()


def test_trajectory_matches_golden_bytes():
    proc = run_cli("trajectory")
    assert proc.stdout == GOLDEN.joinpath("default_trajectory.csv").read_text()
    proc = run_cli("trajectory", "--format", "json")
    assert proc.stdout == GOLDEN.joinpath("default_trajectory.json").read_text()


def test_print_config_matches_golden_bytes():
    proc = run_cli("print-config")
    assert proc.stdout == GOLDEN.joinpath("default_config.json").read_text()


def test_json_metadata_shape():
    obj = json.loads(run_cli("sweep-current", "--format", "json").stdout)
    assert obj["metadata"]["schema_version"] == "1"
    assert obj["metadata"]["constants_fingerprint"] == constants_fingerprint()
    assert "grid_n" not in obj["metadata"]  # no propagation grid in the ideal chain
    assert obj["columns"][0] == "current_a"
    assert len(obj["rows"]) == 201
    obj2 = json.loads(
        run_cli("sweep-xi", "--ratios", "1", "--segments", "2000",
                "--format", "json").stdout
    )
    assert obj2["metadata"]["grid_n"] == 2000


def test_sweep_xi_bytes_match_the_library_call():
    proc = run_cli("sweep-xi", "--ratios", "1,3", "--profiles", "cosine",
                   "--segments", "20000")
    cfg = default_config()
    medium = replace(
        cfg.medium, profile=replace(cfg.medium.profile, kind="cosine")
    ).build()
    rows = tuple(
        (
            "cosine",
            r.xi_over_delta,
            r.delta_eps_pp_settled,
            r.rms_eps_settled,
            r.mean_eps_settled,
            r.delta_eps_pp_full,
            r.conversion_length_m,
            r.ripple_flagged,
        )
        for r in fs.run_xi_sweep(medium, (1.0, 3.0), 20000)
    )
    want = render(
        ResultTable.from_rows(
            columns=(
                "profile",
                "xi_over_delta",
                "delta_eps_pp_settled",
                "rms_eps_settled",
                "mean_eps_settled",
                "delta_eps_pp_full",
                "conversion_length_m",
                "ripple_flagged",
            ),
            rows=rows,
            grid_n=20000,
        ),
        "csv",
    )
    assert proc.stdout == want


def test_trajectory_stride_and_metric():
    proc = run_cli("trajectory", "--segments", "2000", "--stride", "300")
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        f"# schema=1, constants={constants_fingerprint()}, grid_n=2000, metric=principal"
    )
    assert lines[1] == "z_m,epsilon"
    # stride samples plus the forced final position
    assert len(lines) == 2 + 8
    assert float(lines[-1].split(",")[0]) == 0.3
    proc = run_cli("trajectory", "--segments", "2000", "--stride", "300",
                   "--metric", "axis_ratio")
    assert "metric=axis_ratio" in proc.stdout.splitlines()[0]


def test_trajectory_rows_match_the_library_scan(capsys):
    medium = default_config().medium.build()
    n = 3001
    for metric in ("principal", "axis_ratio"):
        traj = fs.propagate_trajectory(medium, fs.grid_for(medium, n), metric_kind=metric)
        for stride in (1, 7):  # 7 does not divide 3001: the endpoint is appended
            idx = list(range(0, n + 1, stride))
            if idx[-1] != n:
                idx.append(n)
            argv = ("trajectory", "--segments", str(n), "--stride", str(stride), "--metric", metric)
            want = [
                f"# schema=1, constants={constants_fingerprint()}, grid_n={n}, metric={metric}",
                "z_m,epsilon",
            ]
            want += [
                format(float(traj.z_m[i]), ".17g") + "," + format(float(traj.epsilon[i]), ".17g")
                for i in idx
            ]
            code, out, err = run_main(capsys, *argv)
            assert (code, out) == (0, "\n".join(want) + "\n"), (metric, stride, err)
            obj = {
                "metadata": {
                    "schema_version": "1",
                    "constants_fingerprint": constants_fingerprint(),
                    "grid_n": n,
                    "metric": metric,
                },
                "columns": ["z_m", "epsilon"],
                "rows": [[float(traj.z_m[i]), float(traj.epsilon[i])] for i in idx],
            }
            code, out, err = run_main(capsys, *argv, "--format", "json")
            assert (code, out) == (0, json.dumps(obj, indent=1) + "\n"), (metric, stride, err)


def test_overflowing_finite_configs_exit_3(tmp_path):
    # every key passes its own check, but the model overflows: the Faraday
    # angle verdet*turns*current, the spin angle theta(z), a segment's
    # retardation, or a plate's retardation or doubled splice angle; or it
    # underflows: the segment length
    cases = {
        "verdet.json": ({"coil": {"verdet_rad_per_amp_turn": 1e308}}, ("simulate", "sweep-current")),
        "xi.json": ({"medium": {"profile": {"xi_over_delta": 1e308}}}, ("trajectory", "converge")),
    }
    # a finite birefringence rate times a finite segment length: the
    # segment retardation overflows, with theta(z) kept finite (no spin)
    long = {"total_length_m": 1e308, "profile": {"xi_over_delta": 0.0}}
    cases["retardation.json"] = (
        {
            "medium": long,
            "trajectory": {"n_segments": 1},
            "xi_sweep": {"n_segments": 1, "ratios": [0.0]},
            "perturbation": {"n_segments": 1},
            "convergence": {"segment_counts": [10, 20], "reference_n": 40},
        },
        ("trajectory", "sweep-xi", "perturb", "converge"),
    )
    cases["retardation_front_end.json"] = (
        {"front_end": {"kind": "spun_fiber", "n_segments": 1, "medium": long}},
        ("simulate", "sweep-current"),
    )
    cases["temperature.json"] = (
        {"medium": {"beat_length_m": 1e-5}, "perturbation": {"temperature_excursion_c": 1e308}},
        ("perturb",),
    )
    # a segment length that underflows: the z samples repeat, at dz = 0 and
    # at dz = 5e-324 > 0 (linspace over three subnormals repeats its end)
    for length, n in ((5e-324, 64), (1.5e-323, 4)):
        cases[f"underflow{n}.json"] = (
            {
                "medium": {"total_length_m": length, "profile": {"transition_l2_m": length}},
                "trajectory": {"n_segments": n},
                "xi_sweep": {"n_segments": n},
                "perturbation": {"n_segments": n},
            },
            ("trajectory", "sweep-xi", "perturb"),
        )
    for key in ("cut_deviation_m", "splice_angle_rad"):
        for value in (1e308, -1e308):
            plate = {"front_end": {"kind": "imperfect_qwp", key: value}}
            cases[f"{key}{value:+g}.json"] = (plate, ("simulate", "sweep-current"))
    for name, (doc, commands) in cases.items():
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        for command in commands:
            proc = run_cli(command, "--config", str(p), check=False)
            assert proc.returncode == 3, (name, command, proc.stderr)
            assert "numeric domain error" in proc.stderr, (name, command, proc.stderr)
            assert "Traceback" not in proc.stderr, (name, command, proc.stderr)
            assert "RuntimeWarning" not in proc.stderr, (name, command, proc.stderr)
            assert proc.stdout == "", (name, command)
            assert len(proc.stderr.splitlines()) == 1, (name, command, proc.stderr)


def test_an_overflow_in_a_forked_workers_sub_block_exits_3(tmp_path, capfd, monkeypatch):
    # theta = xi z overflows in the second of two sub-blocks only, which the
    # forked worker owns; capfd also sees whatever the worker writes to fd 2
    medium = {
        "total_length_m": 10.0,
        "beat_length_m": 2.0 * math.pi,
        "profile": {"xi_over_delta": 2.7e307},
    }
    doc = {"front_end": {"kind": "spun_fiber", "n_segments": 2 * fs.spun._SUB, "medium": medium}}
    p = tmp_path / "late_overflow.json"
    p.write_text(json.dumps(doc))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code, out, err = run_main(capfd, "simulate", "--config", str(p))
    assert (code, out) == (3, ""), err
    assert err.startswith("focsim: numeric domain error: spin angle is not finite")
    assert len(err.splitlines()) == 1, err


def test_converge_emits_ratio_column():
    proc = run_cli("converge", "--counts", "256,512", "--reference-n", "4096")
    lines = proc.stdout.splitlines()
    assert lines[1] == "n_segments,max_abs_dev,ratio"
    first = lines[2].split(",")
    last = lines[3].split(",")
    assert first[0] == "256" and last[0] == "512"
    assert float(first[2]) > 0.0
    assert last[2] == ""  # no ratio below the last rung


def test_converge_with_zero_deviation_exits_3(tmp_path):
    # a beat length this long gives the same total matrix on every grid:
    # every rung's deviation is exactly zero and no ratio exists
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({"medium": {"beat_length_m": 1e200}}))
    proc = run_cli(
        "converge", "--counts", "256,512", "--reference-n", "4096", "--config", str(p),
        check=False,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "focsim: numeric domain error: convergence ratio undefined: "
        "zero deviation at n_segments=512\n"
    )
    assert proc.stdout == ""


def run_main(capsys, *args):
    """cli.main in-process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_row_is_the_sweep_row_at_its_current(tmp_path, capsys):
    front_ends = (
        {"kind": "ideal"},
        {"kind": "imperfect_qwp"},
        {"kind": "imperfect_qwp", "cut_deviation_m": 2e-7, "splice_angle_rad": 0.03},
        {"kind": "spun_fiber", "n_segments": 512},
        {"kind": "high_order_qwp", "n_segments": 512},
    )
    for front_end in front_ends:
        p = tmp_path / "front_end.json"
        p.write_text(json.dumps({"front_end": front_end}))
        code, out, err = run_main(
            capsys, "sweep-current", "--config", str(p), "--max-a", "2000", "--points", "5"
        )
        header, rows = out.splitlines()[:2], out.splitlines()[2:]
        assert (code, len(rows)) == (0, 5), err
        for current, row in zip(("0", "500", "1000", "1500", "2000"), rows):
            code, out, err = run_main(capsys, "simulate", "--config", str(p), "--current-a", current)
            assert (code, out.splitlines()) == (0, header + [row]), (front_end, current, err)


def test_bad_config_exits_2_with_the_key_path(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"medium": {"profile": {"bogus": 1}}}')
    proc = run_cli("simulate", "--config", str(p), check=False)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "medium.profile.bogus" in proc.stderr
    assert proc.stdout == ""
    # a flag fails exactly like the same value under its key in a file
    cases = [
        (("trajectory", "--stride", "0"), "trajectory.stride", 0),
        (("trajectory", "--stride", "-3"), "trajectory.stride", -3),
        (("trajectory", "--stride", str(2**63)), "trajectory.stride", 2**63),
        # numpy describes no array of 2^62 elements: once a traceback and
        # exit 1, or exit 3 as "z samples repeat"
        (("sweep-current", "--points", str(2**62)), "current_sweep.points", 2**62),
        (("trajectory", "--segments", str(2**62)), "trajectory.n_segments", 2**62),
        (("sweep-current", "--points", "1"), "current_sweep.points", 1),
        (("converge", "--counts", "0"), "convergence.segment_counts", [0]),
        (("trajectory", "--segments", "0"), "trajectory.n_segments", 0),
        (("sweep-xi", "--segments", "0"), "xi_sweep.n_segments", 0),
        (("perturb", "--segments", "0"), "perturbation.n_segments", 0),
        (("simulate", "--current-a", "nan"), "coil.current_a", math.nan),
        (("simulate", "--current-a", "inf"), "coil.current_a", math.inf),
        (("sweep-current", "--max-a", "nan"), "current_sweep.max_a", math.nan),
        (("sweep-xi", "--ratios", "nan"), "xi_sweep.ratios", [math.nan]),
        (("sweep-xi", "--profiles", "tri"), "xi_sweep.profiles", ["tri"]),
    ]
    for argv, key, value in cases:
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith(f"focsim: config error: {key}: "), (argv, err)
        section, name = key.split(".")
        p.write_text(json.dumps({section: {name: value}}))
        assert run_main(capsys, argv[0], "--config", str(p)) == (2, "", err), argv


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path):
    # the decode error once escaped load_config as a traceback and exit 1
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{}")
    proc = run_cli("simulate", "--config", str(p), check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("focsim: config error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# every value a single key is set to in turn
_MUTANTS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0, -1, True, "x", None, [], {})

# the subcommands that read each section, besides print-config, which reads
# them all (schema_version and the constants block only reach print-config:
# every subcommand parses them the same way)
_READERS = {
    "front_end": ("simulate", "sweep-current"),
    "coil": ("simulate", "sweep-current"),
    "current_sweep": ("sweep-current",),
    "medium": ("trajectory", "sweep-xi", "perturb", "converge"),
    "trajectory": ("trajectory",),
    "xi_sweep": ("sweep-xi",),
    "perturbation": ("perturb",),
    "convergence": ("converge",),
}

_SMALL = {
    "trajectory": {"n_segments": 2000, "stride": 100},
    "current_sweep": {"points": 21},
    "xi_sweep": {"n_segments": 2000},
    "perturbation": {"n_segments": 2000},
    "convergence": {"segment_counts": [256, 512], "reference_n": 4096},
}


def _leaf_keys(obj, path=()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, path + (key,))
        else:
            yield path + (key,)


def _with_value(doc, key, value):
    doc = copy.deepcopy(doc)
    node = doc
    for part in key[:-1]:
        node = node[part]
    node[key[-1]] = value
    return doc


def _table_is_finite(csv_text: str) -> bool:
    """No nan/inf cell, except i_out/relative_error_pct on fringe-null rows."""
    lines = csv_text.splitlines()
    columns = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(columns, line.split(",")))
        # the closed-form i_ideal of a numeric null sits at rounding level
        null_row = float(row.get("i_ideal", "1")) < 1e-12
        for column, cell in row.items():
            try:
                x = float(cell)
            except ValueError:
                continue  # text, booleans and empty cells
            if not math.isfinite(x) and not (
                null_row and column in ("i_out", "relative_error_pct")
            ):
                return False
    return True


def test_integers_beyond_int64_exit_2(tmp_path, capsys):
    # a turns count float() cannot hold raised OverflowError out of cli.main;
    # 2**63 as a stride (in test_bad_config_exits_2_with_the_key_path) raised
    # IndexError from numpy's int64 index
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"coil": {"turns": 10**400}}))
    for command in ("simulate", "sweep-current"):
        code, out, err = run_main(capsys, command, "--config", str(p))
        assert (code, out) == (2, ""), (command, err)
        assert err.startswith("focsim: config error: coil.turns: "), err
    # the largest int64 is still a stride: the first and the last position
    code, out, _ = run_main(
        capsys, "trajectory", "--segments", "1000", "--stride", str(2**63 - 1)
    )
    assert code == 0 and len(out.splitlines()) == 2 + 2


def test_single_key_mutations_exit_cleanly(tmp_path, capsys):
    p = tmp_path / "mutant.json"
    failures, runs = [], 0
    for kind in ("ideal", "imperfect_qwp", "spun_fiber", "high_order_qwp"):
        front_end = {"kind": kind}
        if kind in ("spun_fiber", "high_order_qwp"):
            front_end["n_segments"] = 2000
        base = json.loads(serialize_config(parse_config({**_SMALL, "front_end": front_end})))
        for key in _leaf_keys(base):
            if kind != "ideal" and key[0] != "front_end":
                continue  # the other sections were mutated with the ideal front end
            for value in _MUTANTS:
                p.write_text(json.dumps(_with_value(base, key, value)))
                for command in _READERS.get(key[0], ()) + ("print-config",):
                    runs += 1
                    case = (".".join(key), value, command)
                    try:
                        code = cli.main([command, "--config", str(p)])
                    except Exception as exc:
                        failures.append((*case, repr(exc)))
                        continue
                    out = capsys.readouterr().out
                    if code not in (0, 2, 3):
                        failures.append((*case, f"exit {code}"))
                    elif code == 0 and command != "print-config" and not _table_is_finite(out):
                        failures.append((*case, "non-finite table"))
    assert not failures, f"{len(failures)} of {runs} runs failed: {failures[:20]}"


def test_fringe_null_exits_3_naming_the_current():
    null_current = (math.pi / 4) / (1e-6 * 355)
    proc = run_cli(
        "simulate", "--current-a", format(null_current, ".17g"), check=False
    )
    assert proc.returncode == 3
    assert "current_a" in proc.stderr
    assert proc.stdout == ""


def test_thread_variable_changes_nothing(capsys, monkeypatch):
    # no environment variable changes a run, not even a malformed thread count
    for cmd in ("simulate", "sweep-current"):
        monkeypatch.delenv("FOCSIM_THREADS", raising=False)
        code, unset, _ = run_main(capsys, cmd)
        assert code == 0
        for raw in ("0", "two"):
            monkeypatch.setenv("FOCSIM_THREADS", raw)
            assert run_main(capsys, cmd)[:2] == (0, unset), (cmd, raw)


def test_failed_allocation_exits_3_without_a_traceback(capsys, monkeypatch):
    # numpy's message, and a bare MemoryError; nothing is really allocated
    numpy_text = "Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"
    cases = ((MemoryError(numpy_text), numpy_text), (MemoryError(), "allocation failed"))
    for exc, text in cases:

        def runner(cfg, exc=exc):
            raise exc

        help_text = cli._COMMANDS["trajectory"][0]
        monkeypatch.setitem(cli._COMMANDS, "trajectory", (help_text, runner))
        code, out, err = run_main(capsys, "trajectory")
        assert (code, out) == (3, ""), err
        assert err == f"focsim: out of memory: {text}\n"
        assert "Traceback" not in err


def _refuses_huge_allocations() -> bool:
    # Linux heuristic (0) or strict (2) overcommit refuses a single request
    # beyond RAM plus swap at once; elsewhere it may be granted and filled
    try:
        return pathlib.Path("/proc/sys/vm/overcommit_memory").read_text().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _refuses_huge_allocations(), reason="needs Linux overcommit mode 0 or 2")
def test_huge_counts_exit_3_through_the_real_allocation():
    # 10^12 float64 samples is 7.28 TiB: the first allocation fails, no mock
    cases = (
        ("trajectory", "--segments", "1000000000000", "--stride", "1"),
        ("sweep-current", "--points", "1000000000000"),
    )
    for args in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "focsim.cli", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("focsim: out of memory:"), proc.stderr
        assert "Traceback" not in proc.stderr


def test_unwritable_output_exits_4(tmp_path):
    proc = run_cli(
        "simulate", "--out", str(tmp_path / "no-such-dir" / "x.csv"), check=False
    )
    assert proc.returncode == 4
    assert "cannot write" in proc.stderr


def test_failed_allocation_while_writing_exits_3(tmp_path, capsys, monkeypatch):
    # the second piece fails to allocate after the first has been written
    def render_pieces_then_fail(table, fmt):
        pieces = render_pieces(table, fmt)
        yield next(pieces)
        raise MemoryError

    monkeypatch.setattr(cli, "render_pieces", render_pieces_then_fail)
    head = next(render_pieces(cli._trajectory(default_config()), "csv"))
    out = tmp_path / "t.csv"
    for args in ((), ("--out", str(out))):
        code, stdout, err = run_main(capsys, "trajectory", *args)
        assert code == 3
        assert err == "focsim: out of memory: allocation failed\n"
        assert (out.read_text() if args else stdout) == head


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_4_with_one_line():
    # the device fills at the first piece that reaches it, stdout or --out
    args = (sys.executable, "-m", "focsim.cli", "trajectory", "--segments", "20000", "--stride", "1")
    with open("/dev/full", "w") as full:
        to_stdout = subprocess.run(args, stdout=full, stderr=subprocess.PIPE, text=True)
    to_out = subprocess.run((*args, "--out", "/dev/full"), capture_output=True, text=True)
    for proc in (to_stdout, to_out):
        assert proc.returncode == 4
        assert proc.stderr.startswith("focsim: cannot write output: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_stops_the_workers_at_once(monkeypatch):
    # five pieces of rows among two workers; the kept error holds the
    # writer's frame, and so its pieces, alive
    n = 4 * _PIECE + 1
    table = ResultTable(columns=("z_m", "epsilon"), cells=(np.linspace(0.0, 3.2, n), np.ones(n)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for fmt in ("csv", "json"):
        with pytest.raises(OSError) as failed:
            cli._write_out(render_pieces(table, fmt), "/dev/full")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "No space left" in str(failed.value)


def test_table_writing_memory_is_bounded():
    # the traced peak is one piece's cells and text: 0.5 MB (CSV) and 1.1 MB
    # (JSON) at 540k rows, where the whole-table text peaked at 80.9 and
    # 150.4 MB (tracemalloc, Python 3.11)
    n = 540_001
    rng = np.random.default_rng(0)
    table = ResultTable(columns=("z_m", "epsilon"), cells=(np.linspace(0.0, 3.2, n), rng.random(n)))
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            cli._write_out(render_pieces(table, fmt), os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (fmt, peak)


def test_print_config_is_a_fixed_point(tmp_path):
    first = run_cli("print-config").stdout
    p = tmp_path / "echo.json"
    p.write_text(first)
    again = run_cli("print-config", "--config", str(p)).stdout
    assert again == first
    obj = json.loads(first)
    assert obj["schema_version"] == "1"
    assert "constants" in obj


def test_stdout_is_deterministic_and_timing_goes_to_stderr():
    a = run_cli("sweep-current", "--points", "41")
    b = run_cli("sweep-current", "--points", "41")
    assert a.stdout == b.stdout
    assert "finished in" in a.stderr
    assert "finished in" not in a.stdout
    c = run_cli("sweep-current", "--points", "41", "--seedless")
    assert c.stdout == a.stdout


def test_out_file_matches_stdout_bytes(tmp_path, monkeypatch):
    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    p = tmp_path / "t.csv"
    run_cli("simulate", "--out", str(p))
    assert p.read_text() == run_cli("simulate").stdout
    # a trajectory of three pieces of rows, in both formats
    segments = str(2 * _PIECE + 100)
    for fmt in ("csv", "json"):
        args = ("trajectory", "--segments", segments, "--stride", "1", "--format", fmt)
        run_cli(*args, "--out", str(p))
        want = run_cli(*args).stdout.encode("utf-8")
        assert p.read_bytes() == want, fmt
        # and where one CPU is usable, so no worker is forked
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert cli.main([*args, "--out", str(p)]) == 0
        assert p.read_bytes() == want, fmt
        # and where no pipe can be made, which once exited 4 as if the
        # output had failed: no worker is forked either
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            mp.setattr(os, "pipe", no_pipe)
            assert cli.main([*args, "--out", str(p)]) == 0
        assert p.read_bytes() == want, fmt
