"""Acceptance gate: one test per shipped criterion.

Each test times its own work, registers a PASS/FAIL line for the terminal
summary (see conftest), and then asserts. Criterion 4 is known to fail on
the default medium and is left failing on purpose; the measured numbers are
in its detail line.
"""

import json
import math
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import focsim as fs
from focsim.config import default_config, parse_config, serialize_config
from focsim.constants import constant

import _oracles
from conftest import RATIOS, medium_with_profile
from test_cli import run_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_criterion_01_ideal_chain_closed_form(criterion_log):
    start = time.perf_counter()
    f_grid = np.linspace(0.0, math.pi / 2, 1000)
    pair = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    out = np.array([_oracles.intensity(fs.roundtrip_fields(pair, (f,))[0]) for f in f_grid])
    basis = 1.0 + np.cos(4.0 * f_grid)
    c = float(np.dot(out, basis) / np.dot(basis, basis))
    resid = float(np.max(np.abs(out - c * basis))) / (c * float(np.max(basis)))
    elapsed = time.perf_counter() - start
    ok = c > 0.0 and resid < 1e-10 and elapsed < 1.0
    criterion_log[1] = (ok, f"max relative residual {resid:.2e}, {elapsed:.2f}s")
    assert c > 0.0
    assert resid < 1e-10
    assert elapsed < 1.0


def test_criterion_02_plate_column_formula(criterion_log):
    start = time.perf_counter()
    e_in = fs.jones_vector(1.0, 0.0)
    worst = 0.0
    for rho in np.linspace(0.0, 2.0 * math.pi, 20):
        for beta in np.linspace(-math.pi, math.pi, 20):
            got = fs.qwp_imperfect(fs.ImperfectWaveplate(rho, beta)) @ e_in
            want = np.array(
                [
                    math.cos(rho / 2) + 1j * math.sin(rho / 2) * math.cos(2 * beta),
                    1j * math.sin(rho / 2) * math.sin(2 * beta),
                ]
            )
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    criterion_log[2] = (ok, f"worst column deviation {worst:.2e} on 20x20, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_fabrication_errors_break_the_limit(criterion_log):
    start = time.perf_counter()
    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    scan = fs.run_imperfection_scan((-cut, cut), (-splice, splice))
    worst = scan.worst_err_pct
    elapsed = time.perf_counter() - start
    ok = worst > 0.2 and 2.0 <= worst <= 4.0 and elapsed < 5.0
    criterion_log[3] = (
        ok,
        f"worst |error| {worst:.3f}% (needs > 0.2% and within 2-4%), {elapsed:.2f}s",
    )
    assert worst > 0.2
    assert 2.0 <= worst <= 4.0
    assert elapsed < 5.0


def test_criterion_04_coarse_grid_convergence_band(criterion_log):
    start = time.perf_counter()
    res = fs.run_convergence_ladder(
        fs.default_demo_medium(), (250, 500, 1000, 2000), 1_000_000
    )
    ratios = res.ratios()
    dev_1000 = next(r.max_abs_dev for r in res.rows if r.n_segments == 1000)
    elapsed = time.perf_counter() - start
    in_band = all(1.7 <= r <= 2.3 for r in ratios)
    ok = in_band and dev_1000 < 1e-3 and elapsed < 30.0
    criterion_log[4] = (
        ok,
        "ratios ("
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f") need [1.7, 2.3]; dev(N=1000) {dev_1000:.2e} needs < 1e-3; {elapsed:.1f}s",
    )
    assert in_band, f"halving ratios {ratios} outside [1.7, 2.3]"
    assert dev_1000 < 1e-3, f"deviation at N=1000 is {dev_1000:.3e}"
    assert elapsed < 30.0


def test_criterion_05_zero_spin_quarter_wave(criterion_log):
    start = time.perf_counter()
    length = 0.1
    delta = math.pi / (2.0 * length)
    med = fs.SpunMediumSpec(length, delta, fs.SpinProfile("constant", 0.0))
    want = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
    worst = max(
        float(np.max(np.abs(fs.total_matrix(med, fs.grid_for(med, n)) - want)))
        for n in (64, 4096)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    criterion_log[5] = (ok, f"worst deviation {worst:.2e} at N=64/4096, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_06_profile_ordering(criterion_log, xi_table):
    rows, build_s = xi_table
    pairs = [
        (rows["cosine", r].delta_eps_pp_settled, rows["linear", r].delta_eps_pp_settled)
        for r in RATIOS
    ]
    ordered = all(c <= l for c, l in pairs)
    lin_full = [rows["linear", r].delta_eps_pp_full for r in RATIOS]
    monotone = all(a <= b for a, b in zip(lin_full, lin_full[1:]))
    ok = ordered and monotone and build_s < 30.0
    criterion_log[6] = (
        ok,
        f"cosine<=linear at all 4 ratios: {ordered}; "
        f"linear ripple non-decreasing: {monotone}; table built in {build_s:.1f}s",
    )
    assert ordered, f"settled ripple pairs (cosine, linear): {pairs}"
    assert monotone, f"linear full-window ripple: {lin_full}"
    assert build_s < 30.0


def test_criterion_07_tradeoff_correlation(criterion_log, xi_table):
    rows, build_s = xi_table
    drivers, pps = [], []
    for kind in ("linear", "cosine"):
        for r in RATIOS:
            drivers.append(_oracles.fluctuation_bound(medium_with_profile(kind, r).profile))
            pps.append(rows[kind, r].delta_eps_pp_full)

    def ranks(xs):
        order = np.argsort(np.asarray(xs), kind="stable")
        out = np.empty(len(xs))
        out[order] = np.arange(len(xs))
        return out

    d = ranks(drivers) - ranks(pps)
    n = len(drivers)
    rho = 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
    ok = rho >= 0.8 and build_s < 30.0
    criterion_log[7] = (
        ok, f"Spearman {rho:.4f} over the 8 profile/rate cells, table {build_s:.1f}s"
    )
    assert rho >= 0.8
    assert build_s < 30.0


def test_criterion_08_error_reduction_factor(criterion_log):
    start = time.perf_counter()
    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    bare_worst = fs.run_imperfection_scan((-cut, cut), (-splice, splice)).worst_err_pct

    def device_worst(fe):
        worst = 0.0
        for dev in (-cut, 0.0, cut):
            med = replace(fe.medium, total_length_m=fe.medium.total_length_m + dev)
            res = fs.run_current_sweep(fs.default_sweep_spec(replace(fe, medium=med)))
            worst = max(worst, res.max_abs_err_pct)
        return worst

    ho_worst = device_worst(fs.default_high_order_front_end())
    spun_worst = device_worst(fs.default_spun_front_end())
    elapsed = time.perf_counter() - start
    reduced = ho_worst <= 0.2 * bare_worst
    ordered = ho_worst < spun_worst < bare_worst
    ok = reduced and ordered and elapsed < 60.0
    criterion_log[8] = (
        ok,
        f"worst |error| {ho_worst:.3f}% (ramped) vs {spun_worst:.3f}% (constant-rate) "
        f"vs {bare_worst:.3f}% (bare plate), reduction x{bare_worst / ho_worst:.1f}, "
        f"{elapsed:.1f}s",
    )
    assert reduced, f"{ho_worst:.4f}% not <= 20% of {bare_worst:.4f}%"
    assert ordered
    assert elapsed < 60.0


def test_criterion_09_drift_directionality(criterion_log, perturbation_result):
    res, build_s = perturbation_result
    wl = res.wavelength.pp_increase_pct
    temp = res.temperature.pp_increase_pct
    ok = wl > 0.0 and temp > 0.0 and temp >= wl and build_s < 60.0
    criterion_log[9] = (
        ok,
        f"ripple increase: wavelength +{wl:.2f}%, temperature +{temp:.2f}% "
        f"(bands reported, not asserted), study {build_s:.1f}s",
    )
    assert wl > 0.0
    assert temp > 0.0
    assert temp >= wl
    assert build_s < 60.0


def test_criterion_10_determinism_and_round_trip(criterion_log, tmp_path):
    start = time.perf_counter()
    first = run_cli("sweep-current")
    second = run_cli("sweep-current")
    # the same run written through --out: both write paths give the same bytes
    out = tmp_path / "sweep.csv"
    run_cli("sweep-current", "--out", str(out))
    written = out.read_bytes()
    byte_identical = first.stdout == second.stdout and written == first.stdout.encode("utf-8")

    cfg = default_config()
    text = serialize_config(cfg)
    cfg2 = parse_config(json.loads(text))
    fixed_point = cfg2 == cfg and serialize_config(cfg2) == text

    values = (math.pi, -2.5e-17, 1.0 / 3.0, -0.0, 6.02e23)
    table = fs.ResultTable.from_rows(columns=("v",), rows=tuple((x,) for x in values))
    csv_cells = [line.split(",")[0] for line in fs.render(table, "csv").splitlines()[2:]]
    csv_exact = all(float(c) == x for c, x in zip(csv_cells, values))
    json_exact = _oracles.table_view_from_json(fs.render(table, "json")) == _oracles.table_view(table)

    elapsed = time.perf_counter() - start
    ok = byte_identical and fixed_point and csv_exact and json_exact and elapsed < 10.0
    criterion_log[10] = (
        ok,
        f"byte-identical runs/--out: {byte_identical}; config fixed point: "
        f"{fixed_point}; csv/json numeric round trip: {csv_exact and json_exact}; "
        f"{elapsed:.1f}s",
    )
    assert byte_identical
    assert fixed_point
    assert csv_exact
    assert json_exact
    assert elapsed < 10.0


def test_criterion_11_property_suite(criterion_log):
    from test_properties import CASES

    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(ROOT / "tests" / "test_properties.py"),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and CASES >= 1000 and elapsed < 120.0
    criterion_log[11] = (
        ok,
        f"property run exit {proc.returncode}, {CASES} cases per random property, "
        f"{elapsed:.1f}s",
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert CASES >= 1000
    assert elapsed < 120.0
