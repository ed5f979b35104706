"""Campaign layer: sweeps, scans, and drift studies against frozen values."""

import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import focsim as fs
from focsim.constants import constant
from focsim.experiments import (
    delta_at_temperature,
    delta_at_wavelength,
    device_delta,
)
from focsim.spun import grid_for, total_matrix

import _frozen


def test_front_end_validation():
    plate = fs.ImperfectWaveplate(math.pi / 2, 0.0)
    med = fs.default_demo_medium()
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="ideal", waveplate=plate)
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="imperfect_qwp")
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="imperfect_qwp", waveplate=plate, medium=med)
    for kind in ("spun_fiber", "high_order_qwp"):
        with pytest.raises(ValueError, match=f"^{kind} front end needs exactly a medium$"):
            fs.FrontEnd(kind=kind, n_segments=100)
        with pytest.raises(ValueError, match=f"^{kind} front end needs exactly a medium$"):
            fs.FrontEnd(kind=kind, waveplate=plate, medium=med, n_segments=100)
    with pytest.raises(ValueError, match="^ideal front end takes no parameters$"):
        fs.FrontEnd(kind="ideal", waveplate=plate, medium=med)
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="spun_fiber", medium=med, n_segments=100)  # ramped profile
    with pytest.raises(ValueError):
        fs.front_end_high_order(
            fs.SpunMediumSpec(0.03, 100.0, fs.SpinProfile("constant", 500.0)), 100
        )
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="high_order_qwp", medium=med, n_segments=0)
    with pytest.raises(ValueError):
        fs.FrontEnd(kind="polarizer")
    printed = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    for fe in (fs.FrontEnd(kind="ideal"), fs.front_end_imperfect(plate)):
        fwd, ret = fe.converter_pair()
        assert np.array_equal(fwd, printed[0]) and np.array_equal(ret, printed[1])


def test_converter_pair_of_each_kind():
    # the printed pair of ideal and a nominal plate is checked above
    zero_cut = fs.ImperfectWaveplate.from_cut_deviation(0.0)
    assert not zero_cut.is_nominal()  # rho is pi/2 only to rounding
    medium = fs.default_demo_medium()
    spun = fs.default_spun_front_end().medium
    cases = []
    for plate in (fs.ImperfectWaveplate(1.45, 0.02), zero_cut):
        mounted = fs.mount_at_45deg(fs.qwp_imperfect(plate))
        cases.append((fs.front_end_imperfect(plate), (mounted, np.conj(mounted))))
    for fe in (fs.front_end_high_order(medium, 2048), fs.front_end_spun(spun, 512)):
        product = total_matrix(fe.medium, grid_for(fe.medium, fe.n_segments))
        cases.append((fe, (product, product.T)))
    for fe, (want_fwd, want_ret) in cases:
        fwd, ret = fe.converter_pair()
        assert np.array_equal(fwd, want_fwd), fe.kind
        assert np.array_equal(ret, want_ret), fe.kind


def test_one_medium_product_per_distributed_run(monkeypatch, capsys, tmp_path):
    from focsim import cli, experiments

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return total_matrix(*args, **kwargs)

    monkeypatch.setattr(experiments, "total_matrix", counting)
    spun = fs.default_spun_front_end().medium
    for fe in (fs.front_end_spun(spun, 512), fs.front_end_high_order(fs.default_demo_medium(), 512)):
        calls.clear()
        fs.run_current_sweep(replace(fs.default_sweep_spec(fe), currents_a=(0.0, 500.0, 1000.0)))
        assert len(calls) == 1, fe.kind
    for kind in ("spun_fiber", "high_order_qwp"):
        p = tmp_path / f"{kind}.json"
        p.write_text(json.dumps({"front_end": {"kind": kind, "n_segments": 512}}))
        calls.clear()
        code = cli.main(["simulate", "--config", str(p)])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1, kind


def test_ideal_sweep_has_identically_zero_error():
    res = fs.run_current_sweep(fs.default_sweep_spec())
    assert res.n_fringe_null == 0
    assert np.array_equal(res.i_out, res.i_ideal)
    assert np.all(res.err_pct == 0.0)
    assert res.max_abs_err_pct == 0.0
    assert res.mean_abs_err_pct == 0.0
    vt = constant("verdet_rad_per_amp_turn") * constant("coil_turns")
    assert np.allclose(res.faraday_rad, vt * res.currents_a, atol=0.0)
    assert res.faraday_rad[-1] == pytest.approx(_frozen.F_AT_2000A, rel=1e-12)


def test_fringe_null_rows_are_excluded_from_summaries():
    spec = fs.default_sweep_spec()
    vt = spec.verdet_rad_per_amp_turn * spec.turns
    null_current = (math.pi / 4) / vt
    spec = replace(spec, currents_a=(0.0, null_current, 1000.0))
    res = fs.run_current_sweep(spec)
    assert res.n_fringe_null == 1
    assert math.isnan(res.i_out[1]) and math.isnan(res.err_pct[1])
    assert res.i_ideal[1] == pytest.approx(0.0, abs=1e-15)
    assert res.max_abs_err_pct == 0.0  # the two live rows are ideal
    only_null = fs.run_current_sweep(replace(spec, currents_a=(null_current,)))
    assert math.isnan(only_null.max_abs_err_pct)


_H = math.sqrt(0.5)
_ORACLE_IDEAL_PAIR = (
    _H * np.array([[1, 1j], [1j, 1]], dtype=np.complex128),
    _H * np.array([[1, -1j], [-1j, 1]], dtype=np.complex128),
)


def _oracle_sweep(q_in, q_out, currents):
    """Per-row reflective chain: polarizer, 45 degree splice, converter,
    coil, mirror and back, each current its own straight-line product.

    Independent of focsim.elements: every matrix is typed in here.
    """
    pol = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    splice_in = _H * np.array([[1, 1], [-1, 1]], dtype=np.complex128)
    splice_out = splice_in.T.copy()
    mirror = np.eye(2, dtype=np.complex128)
    e_in = np.array([1.0, 0.0], dtype=np.complex128)
    vt = constant("verdet_rad_per_amp_turn") * constant("coil_turns")
    rows = []
    for current in currents:
        f = vt * current
        c, s = math.cos(f), math.sin(f)
        r = np.array([[c, -s], [s, c]], dtype=np.complex128)

        def detected(qi, qo):
            e = pol @ splice_out @ qo @ r @ mirror @ r @ qi @ splice_in @ pol @ e_in
            return abs(e[0]) ** 2 + abs(e[1]) ** 2

        ideal = detected(*_ORACLE_IDEAL_PAIR)
        if ideal < 1e-15:
            rows.append((f, math.nan, math.cos(2 * f) ** 2, math.nan))
        else:
            out = detected(q_in, q_out)
            rows.append((f, out, ideal, (out - ideal) / ideal * 100.0))
    return np.array(rows).T


def _oracle_plate(cut_deviation_m, splice_angle_rad):
    rho = (
        2 * math.pi * constant("birefringence_delta_n")
        * (constant("plate_cut_length_m") + cut_deviation_m) / constant("wavelength_m")
    )
    c, s = math.cos(rho / 2), math.sin(rho / 2)
    c2b, s2b = math.cos(2 * splice_angle_rad), math.sin(2 * splice_angle_rad)
    plate = np.array([[c + 1j * s * c2b, 1j * s * s2b], [1j * s * s2b, c - 1j * s * c2b]])
    k, q = math.cos(math.pi / 4), math.sin(math.pi / 4)
    mount = np.array([[k, -q], [q, k]], dtype=np.complex128)
    fwd = mount @ plate @ mount.T
    return fwd, fwd.conj()


def test_current_sweep_matches_a_per_row_oracle():
    currents = tuple(np.linspace(0.0, 2000.0, 201))
    res = fs.run_current_sweep(replace(fs.default_sweep_spec(), currents_a=currents))
    f, i_out, i_ideal, err = _oracle_sweep(*_ORACLE_IDEAL_PAIR, currents)
    assert np.array_equal(res.faraday_rad, f)
    assert np.array_equal(res.i_out, i_out)
    assert np.array_equal(res.i_ideal, i_ideal)
    assert np.array_equal(res.err_pct, err)

    medium = fs.default_demo_medium()
    fwd = total_matrix(medium, grid_for(medium, 2048))
    cases = [
        (fs.front_end_imperfect(fs.ImperfectWaveplate.from_cut_deviation(d, b)),
         _oracle_plate(d, b))
        for d, b in ((5e-4, math.radians(2.0)), (-3e-4, -0.01))
    ]
    cases.append((fs.front_end_high_order(medium, 2048), (fwd, fwd.T)))
    for front_end, pair in cases:
        res = fs.run_current_sweep(replace(fs.default_sweep_spec(front_end), currents_a=currents))
        f, i_out, i_ideal, err = _oracle_sweep(*pair, currents)
        assert res.n_fringe_null == 0
        assert np.max(np.abs(res.i_out - i_out)) <= 1e-15
        assert np.max(np.abs(res.i_ideal - i_ideal)) <= 1e-15
        assert np.max(np.abs(res.err_pct - err) / np.maximum(1.0, np.abs(err))) <= 1e-12
        assert res.max_abs_err_pct > 0.01


def test_current_sweep_oracle_at_fringe_nulls():
    vt = constant("verdet_rad_per_amp_turn") * constant("coil_turns")
    null_current = (math.pi / 4) / vt
    plate = fs.ImperfectWaveplate.from_cut_deviation(5e-4, math.radians(2.0))
    pair = _oracle_plate(5e-4, math.radians(2.0))
    for currents in ((0.0, 700.0, null_current, 1500.0, 2000.0), (null_current,)):
        spec = replace(fs.default_sweep_spec(fs.front_end_imperfect(plate)), currents_a=currents)
        res = fs.run_current_sweep(spec)
        f, i_out, i_ideal, err = _oracle_sweep(*pair, currents)
        null = np.isnan(err)
        assert null.sum() == res.n_fringe_null == 1
        assert np.array_equal(np.isnan(res.i_out), null)
        assert np.array_equal(np.isnan(res.err_pct), null)
        assert np.array_equal(res.i_ideal[null], i_ideal[null])
        assert np.max(np.abs(res.i_out[~null] - i_out[~null]), initial=0.0) <= 1e-15
        live = np.abs(err[~null])
        if live.size:
            assert res.max_abs_err_pct == pytest.approx(live.max(), rel=1e-12)
            assert res.mean_abs_err_pct == pytest.approx(live.mean(), rel=1e-12)
        else:
            assert math.isnan(res.max_abs_err_pct) and math.isnan(res.mean_abs_err_pct)


def test_imperfection_scan_reproduces_frozen_worst_case():
    two_deg = math.radians(2.0)
    scan = fs.run_imperfection_scan(
        cut_deviations_m=(-5e-4, 5e-4),
        splice_angles_rad=(-two_deg, two_deg),
    )
    assert len(scan.cells) == 4
    assert scan.worst_err_pct == pytest.approx(_frozen.C3_MAX_ERR_PCT, rel=1e-9)
    assert scan.worst_err_pct == max(c.max_abs_err_pct for c in scan.cells)
    assert all(c.max_abs_err_pct > 0.2 for c in scan.cells)


def test_imperfection_scan_matches_per_plate_sweeps(monkeypatch):
    from focsim import experiments

    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    null_a = (math.pi / 4) / (constant("verdet_rad_per_amp_turn") * constant("coil_turns"))
    cases = [
        ((-cut, 0.0, cut), (-splice, 0.0, splice), (0.0, 250.0, null_a, 1000.0, 2000.0)),
        ((-cut, 0.0), (0.0, splice), (null_a,)),  # nulls only: every cell is NaN
    ]
    calls = []
    original = experiments.detected_intensity

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for deviations, angles, currents in cases:
        want = [
            fs.run_current_sweep(
                replace(
                    fs.default_sweep_spec(
                        fs.front_end_imperfect(fs.ImperfectWaveplate.from_cut_deviation(d, b))
                    ),
                    currents_a=currents,
                )
            ).max_abs_err_pct
            for d in deviations
            for b in angles
        ]
        with monkeypatch.context() as m:
            m.setattr(experiments, "detected_intensity", counting)
            calls.clear()
            scan = fs.run_imperfection_scan(deviations, angles, currents)
        assert len(calls) == 1  # one stacked product over plates x currents
        assert [(c.cut_deviation_m, c.splice_angle_rad) for c in scan.cells] == [
            (d, b) for d in deviations for b in angles
        ]
        got = [c.max_abs_err_pct for c in scan.cells]
        assert all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))
        assert all(isinstance(g, float) for g in got)
    assert all(math.isnan(g) for g in got)


@pytest.mark.parametrize("n_cut, n_splice", [(1, 1), (1, 5), (5, 1)])
def test_one_plate_and_one_axis_scans_match_per_plate_sweeps(n_cut, n_splice):
    """A single plate and stacks along one tolerance axis, over currents
    with a fringe null and over no currents at all."""
    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    null_a = (math.pi / 4) / (constant("verdet_rad_per_amp_turn") * constant("coil_turns"))
    rng = np.random.default_rng(10 * n_cut + n_splice)
    deviations = tuple(rng.uniform(-cut, cut, n_cut).tolist())
    angles = tuple(rng.uniform(-splice, splice, n_splice).tolist())
    for currents in ((0.0, 400.0, null_a, 1500.0), ()):
        want = [
            fs.run_current_sweep(
                replace(
                    fs.default_sweep_spec(
                        fs.front_end_imperfect(fs.ImperfectWaveplate.from_cut_deviation(d, b))
                    ),
                    currents_a=currents,
                )
            ).max_abs_err_pct
            for d in deviations
            for b in angles
        ]
        scan = fs.run_imperfection_scan(deviations, angles, currents)
        assert [(c.cut_deviation_m, c.splice_angle_rad) for c in scan.cells] == [
            (d, b) for d in deviations for b in angles
        ]
        got = [c.max_abs_err_pct for c in scan.cells]
        assert all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))
        assert all(math.isnan(g) for g in got) == (currents == ())


def test_stacked_plate_pairs_are_each_plates_own_pair():
    """Every slice of the stacked build is byte for byte, sign bits
    included, the pair that plate's front end gives on its own; a nominal
    plate gives the printed ideal pair wherever it sits in the stack."""
    from focsim.elements import plate_converter_pairs

    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    rng = np.random.default_rng(18)
    plates = [
        fs.ImperfectWaveplate.from_cut_deviation(d, b)
        for d, b in zip(rng.uniform(-2 * cut, 2 * cut, 9), rng.uniform(-2 * splice, 2 * splice, 9))
    ]
    plates[4:4] = [fs.ImperfectWaveplate.nominal(), fs.ImperfectWaveplate(math.pi, 0.3)]
    plates += [
        fs.ImperfectWaveplate(0.0, -0.0),
        fs.ImperfectWaveplate.from_cut_deviation(0.0),
        fs.ImperfectWaveplate.nominal(),
    ]
    fwd, ret = plate_converter_pairs(plates)
    assert fwd.shape == ret.shape == (len(plates), 2, 2)
    printed = (fs.qwp_ideal_in().tobytes(), fs.qwp_ideal_out().tobytes())
    for i, plate in enumerate(plates):
        own = fs.front_end_imperfect(plate).converter_pair()
        assert (fwd[i].tobytes(), ret[i].tobytes()) == tuple(m.tobytes() for m in own), i
        assert ((fwd[i].tobytes(), ret[i].tobytes()) == printed) == plate.is_nominal(), i
    one_fwd, one_ret = plate_converter_pairs([fs.ImperfectWaveplate.nominal()])
    assert (one_fwd[0].tobytes(), one_ret[0].tobytes()) == printed


def test_imperfection_scan_needs_both_tolerance_axes():
    for deviations, angles in (((), (0.0,)), ((0.0,), ()), ((), ())):
        with pytest.raises(ValueError, match="at least one cut deviation and one splice angle"):
            fs.run_imperfection_scan(deviations, angles)
    scan = fs.run_imperfection_scan((0.0, 1e-4), (0.0,), ())  # no currents: NaN cells
    assert len(scan.cells) == 2
    assert all(math.isnan(c.max_abs_err_pct) for c in scan.cells)


def test_scan_default_grid_is_the_cli_default_grid():
    """Without currents, the scan sweeps the grid the CLI's current sweep
    defaults to: every cell is bit for bit the one that grid gives."""
    from focsim.config import default_config

    cut = float(constant("plate_cut_deviation_m"))
    splice = float(constant("plate_splice_deviation_rad"))
    rng = np.random.default_rng(19)
    deviations = (0.0, *rng.uniform(-cut, cut, 3).tolist())
    angles = (0.0, *rng.uniform(-splice, splice, 2).tolist())
    currents = default_config().sweep_spec().currents_a
    got = fs.run_imperfection_scan(deviations, angles)
    want = fs.run_imperfection_scan(deviations, angles, currents)
    cell_bytes = [np.array(astuple(c)).tobytes() for c in got.cells]
    assert cell_bytes == [np.array(astuple(c)).tobytes() for c in want.cells]
    assert np.array(got.worst_err_pct).tobytes() == np.array(want.worst_err_pct).tobytes()


def test_xi_sweep_matches_frozen_cells(xi_table):
    rows, _ = xi_table
    for kind in ("linear", "cosine"):
        for ratio in (1.0, 3.0, 5.0, 10.0):
            row = rows[(kind, ratio)]
            cell = _frozen.CELLS_N1E6[f"{kind}_{int(ratio)}"]
            assert row.delta_eps_pp_settled == pytest.approx(cell["pp_settled"], rel=1e-9)
            assert row.rms_eps_settled == pytest.approx(cell["rms_settled"], rel=1e-8)
            assert row.mean_eps_settled == pytest.approx(cell["mean_settled"], rel=1e-9)
            assert row.delta_eps_pp_full == pytest.approx(cell["pp_full"], rel=1e-9)
            if cell["conv_abs"] is None:
                assert row.conversion_length_m is None
            else:
                assert row.conversion_length_m == pytest.approx(cell["conv_abs"], abs=1e-9)
            assert row.ripple_flagged == (cell["pp_settled"] > 0.01)


def test_fast_linear_ramp_trips_the_ripple_flag():
    med = fs.default_demo_medium()
    lin = replace(med.profile, kind="linear", xi_max_rad_per_m=6.0 * med.delta_rad_per_m)
    (row,) = fs.run_xi_sweep(replace(med, profile=lin), (6.0,), 1_000_000)
    assert row.delta_eps_pp_settled == pytest.approx(_frozen.LINEAR_R6_PP_SETTLED, rel=1e-9)
    assert row.ripple_flagged


def test_perturbation_study_matches_frozen(perturbation_result):
    res, _ = perturbation_result
    assert res.base_pp == pytest.approx(_frozen.C9_BASE_PP_SETTLED, rel=1e-9)
    p = _frozen.C9_PERT_PCT
    want_wl = max(p["wl_minus10nm"]["pp"], p["wl_plus10nm"]["pp"])
    want_t = max(p["t_minus20"]["pp"], p["t_plus20"]["pp"])
    assert res.wavelength.pp_increase_pct == pytest.approx(want_wl, rel=1e-6)
    assert res.temperature.pp_increase_pct == pytest.approx(want_t, rel=1e-6)
    lam0 = constant("wavelength_m")
    assert res.wavelength.low_value == lam0 - 1e-8
    assert res.wavelength.high_value == lam0 + 1e-8
    assert res.temperature.low_value == 5.0
    assert res.temperature.high_value == 45.0
    want_rms_t = max(p["t_minus20"]["rms"], p["t_plus20"]["rms"])
    assert res.temperature.rms_increase_pct == pytest.approx(want_rms_t, rel=1e-6)


def test_perturbation_study_rejects_a_zero_base_ripple():
    # an unspun medium settles with no ripple at all, so a relative
    # increase over it is undefined
    med = fs.default_demo_medium()
    unspun = replace(med, profile=replace(med.profile, xi_max_rad_per_m=0.0))
    with pytest.raises(fs.NumericDomainError, match="base ripple is zero"):
        fs.run_perturbation_study(
            unspun,
            2000,
            float(constant("wavelength_drift_m")),
            float(constant("temperature_excursion_c")),
        )


def test_convergence_ratios_reject_a_zero_deviation():
    # birefringence and spin this weak give the same total matrix on every
    # grid, so every rung's deviation is exactly zero
    med = fs.default_demo_medium()
    flat = fs.SpunMediumSpec(
        med.total_length_m, 1e-199, replace(med.profile, xi_max_rad_per_m=5e-199)
    )
    res = fs.run_convergence_ladder(flat, (256, 512), 4096)
    assert [r.max_abs_dev for r in res.rows] == [0.0, 0.0]
    with pytest.raises(fs.NumericDomainError, match="zero deviation at n_segments=512"):
        res.ratios()
    # a zero deviation on the first rung is only ever a numerator
    rows = (replace(res.rows[0], max_abs_dev=0.0), replace(res.rows[1], max_abs_dev=2.0))
    assert fs.ConvergenceResult(rows).ratios() == (0.0,)


def test_delta_scaling_laws():
    assert delta_at_wavelength(100.0, 1.0e-6, 2.0e-6) == 50.0
    k = constant("temperature_coeff_per_c")
    t0 = constant("reference_temperature_c")
    assert delta_at_temperature(100.0, t0) == 100.0
    assert delta_at_temperature(100.0, t0 + 10.0) == pytest.approx(
        100.0 * (1.0 + 10.0 * k), rel=1e-15
    )
    assert device_delta() == pytest.approx(
        2.0 * math.pi * constant("birefringence_delta_n") / constant("wavelength_m"),
        rel=1e-15,
    )


def test_convergence_ladder_matches_frozen():
    med = fs.default_demo_medium()
    res = fs.run_convergence_ladder(med, (1024, 4096, 16384), 1 << 20)
    for row in res.rows:
        assert row.max_abs_dev == pytest.approx(
            _frozen.LADDER_DEFAULT[row.n_segments], rel=1e-9
        )
    r1, r2 = res.ratios()
    assert r1 == res.rows[0].max_abs_dev / res.rows[1].max_abs_dev
    assert r2 == res.rows[1].max_abs_dev / res.rows[2].max_abs_dev
    with pytest.raises(ValueError):
        fs.run_convergence_ladder(med, (512, 2048), 2048)


def test_distributed_front_ends_match_frozen_sweep_errors():
    dev = 5e-4
    ho = fs.default_high_order_front_end()
    n = ho.n_segments
    for idx, d in ((1, 0.0), (2, dev)):
        fe = fs.front_end_high_order(replace(ho.medium, total_length_m=0.10 + d), n)
        res = fs.run_current_sweep(fs.default_sweep_spec(fe))
        assert res.max_abs_err_pct == pytest.approx(_frozen.C8_HO_ERRS_PCT[idx], rel=1e-9)
    sp = fs.default_spun_front_end()
    for idx, d in ((0, -dev), (1, 0.0)):
        fe = fs.front_end_spun(replace(sp.medium, total_length_m=0.03 + d), n)
        res = fs.run_current_sweep(fs.default_sweep_spec(fe))
        assert res.max_abs_err_pct == pytest.approx(_frozen.C8_SPUN_ERRS_PCT[idx], rel=1e-9)


def test_distributed_sweep_errors_follow_the_medium_closed_form():
    # behind a medium U = [[a, -conj(b)], [b, conj(a)]] the sweep error is
    # -100 Im(a^2 + b^2)^2 at every current, once |a|^2 + |b|^2 = 1; a norm
    # drift delta scales every intensity by 1 + 2 delta, 200 delta points
    for fe in (fs.default_high_order_front_end(), fs.default_spun_front_end()):
        fwd, _ = fe.converter_pair()
        a, b = complex(fwd[0, 0]), complex(fwd[1, 0])
        drift = abs(a) ** 2 + abs(b) ** 2 - 1.0
        res = fs.run_current_sweep(fs.default_sweep_spec(fe))
        err = res.err_pct[~np.isnan(res.err_pct)]
        assert len(err) > 0
        gap = np.max(np.abs(err + 100.0 * (a * a + b * b).imag ** 2))
        assert gap <= 300.0 * abs(drift) + 1e-10, (fe.kind, gap, drift)


def test_default_front_end_geometry():
    ho = fs.default_high_order_front_end()
    assert ho.kind == "high_order_qwp"
    assert ho.medium.profile.kind == "cosine"
    med = ho.medium
    assert med.profile.xi_max_rad_per_m / med.delta_rad_per_m == pytest.approx(10.0, rel=1e-15)
    assert ho.medium.delta_rad_per_m == pytest.approx(device_delta(), rel=1e-15)
    sp = fs.default_spun_front_end()
    assert sp.kind == "spun_fiber"
    assert sp.medium.profile.kind == "constant"
    med = sp.medium
    assert med.profile.xi_max_rad_per_m / med.delta_rad_per_m == pytest.approx(5.0, rel=1e-15)
    assert sp.n_segments == ho.n_segments == int(constant("front_end_segments"))


def test_repeated_sweeps_are_identical():
    med = fs.default_demo_medium()
    currents = tuple(np.linspace(0.0, 2000.0, 21))
    sweep = replace(fs.default_sweep_spec(), currents_a=currents)

    first_xi = fs.run_xi_sweep(med, (1.0, 3.0), 2000)
    first_sw = fs.run_current_sweep(sweep)
    again_xi = fs.run_xi_sweep(med, (1.0, 3.0), 2000)
    again_sw = fs.run_current_sweep(sweep)

    assert again_xi == first_xi
    for name in ("currents_a", "faraday_rad", "i_out", "i_ideal", "err_pct"):
        assert np.array_equal(getattr(again_sw, name), getattr(first_sw, name))
    assert again_sw.max_abs_err_pct == first_sw.max_abs_err_pct
