"""Randomized property suite.

Every continuous-domain property below runs 1000 examples under the "suite"
hypothesis profile registered in conftest (max_examples=1000 with
derandomize=True, which pins the generator to hypothesis's fixed
derandomization seed, so each test replays the identical example sequence on
every run). Properties whose stated domain is finite (the profile-ordering
and rate-monotonicity grids, the correlation over the eight profile/rate
cells, the 61-point retardation grid, the default-converter error ordering)
are instead enumerated over that entire domain, which checks strictly more
than sampling it; the ripple-cell enumerations run on a 200k-segment grid
whose orderings were cross-checked against the 1M-segment campaign grid.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import focsim as fs
from focsim.config import parse_config, serialize_config
from focsim.constants import constant

import _oracles
from conftest import RATIOS, medium_with_profile

CASES = 1000

angles = st.floats(-8.0, 8.0)
retardations = st.floats(0.0, 2.0 * math.pi)
splice_angles = st.floats(-math.pi, math.pi)
amplitudes = st.floats(-3.0, 3.0)


def test_case_budget_is_active():
    assert settings.default.max_examples >= CASES
    assert settings.default.derandomize


# ---------------------------------------------------------------- strategies


@st.composite
def field_states(draw):
    v = fs.jones_vector(
        complex(draw(amplitudes), draw(amplitudes)),
        complex(draw(amplitudes), draw(amplitudes)),
    )
    assume(_oracles.intensity(v) > 1e-4)
    return v


@st.composite
def lossless_elements(draw):
    pick = draw(st.integers(0, 10))
    if pick == 0:
        return fs.rotator(draw(angles))
    if pick == 1:
        return fs.rotator(draw(angles))
    if pick == 2:
        return fs.rotator(-draw(angles))
    if pick == 3:
        return fs.qwp_ideal_in()
    if pick == 4:
        return fs.qwp_ideal_out()
    if pick == 5:
        return fs.splice45_in()
    if pick == 6:
        return fs.splice45_out()
    if pick == 7:
        return np.eye(2, dtype=np.complex128)
    if pick == 8:
        plate = fs.ImperfectWaveplate(draw(retardations), draw(splice_angles))
        return fs.qwp_imperfect(plate)
    if pick == 9:
        rho = draw(retardations)
        assume(rho != math.pi)  # the tan form's one excluded point
        plate = fs.ImperfectWaveplate(rho, draw(splice_angles))
        return _oracles.qwp_imperfect_tan(plate)
    return _oracles.segment_matrix(
        draw(st.floats(1.0, 5000.0)), draw(angles), draw(st.floats(1e-5, 0.01))
    )


@st.composite
def lossless_products(draw):
    m = np.eye(2, dtype=np.complex128)
    for _ in range(draw(st.integers(1, 4))):
        m = draw(lossless_elements()) @ m
    return m


@st.composite
def spun_media(draw, kinds=("linear", "cosine", "constant")):
    kind = draw(st.sampled_from(kinds))
    length = draw(st.floats(0.02, 0.25))
    beat = draw(st.floats(0.005, 0.05))
    delta = 2.0 * math.pi / beat
    xi = draw(st.floats(0.0, 8.0)) * delta
    if kind == "constant":
        profile = fs.SpinProfile("constant", xi)
    else:
        l2 = draw(st.floats(0.1, 0.9)) * length
        l1 = draw(st.floats(0.0, 0.9)) * (length - l2)
        profile = fs.SpinProfile(kind, xi, l1, l2)
    return fs.SpunMediumSpec(length, delta, profile)


# ------------------------------------------------------- polarization algebra


@given(m=lossless_products())
def test_any_lossless_product_is_unitary(m):
    assert _oracles.is_unitary(m, tol=1e-12)


@given(m=lossless_products(), v=field_states())
def test_lossless_products_conserve_intensity(m, v):
    before = _oracles.intensity(v)
    after = _oracles.intensity(m @ v)
    assert abs(after - before) <= 1e-12 * before


@given(v=field_states())
def test_stokes_vector_is_light_like(v):
    s = _oracles.jones_to_stokes(v)
    assert abs(s[0] ** 2 - (s[1] ** 2 + s[2] ** 2 + s[3] ** 2)) <= 1e-10 * s[0] ** 2


@given(v=field_states())
def test_principal_ellipticity_stays_bounded(v):
    assert -1.0 <= _oracles.ellipticity_principal(v) <= 1.0


@given(a=st.floats(0.1, 10.0), t=st.floats(-0.99999, 0.99999))
def test_aligned_ellipse_matches_coordinate_axis_ratio(a, t):
    # s2 vanishes for (a, i t a), so the ellipse axes sit on x and y and the
    # coordinate-frame ratio |ey|/|ex| is the true minor/major ratio; |t| is
    # kept off 1 because the inverse sine loses half the significand at the
    # circular-polarization corner
    v = fs.jones_vector(a, 1j * t * a)
    assert _oracles.jones_to_stokes(v)[2] == pytest.approx(0.0, abs=1e-12)
    assert abs(_oracles.ellipticity_principal(v)) == pytest.approx(
        abs(v[1]) / abs(v[0]), abs=1e-10
    )


# --------------------------------------------------------- reflective chain


def _plate_error_pct(rho: float, beta: float, f_rad: float) -> float:
    fwd = fs.mount_at_45deg(fs.qwp_imperfect(fs.ImperfectWaveplate(rho, beta)))
    coil = fs.FaradayCoil(np.array([f_rad]))
    return fs.detected_intensity(coil, (fwd, np.conj(fwd))).relative_error_pct[0]


@given(m=lossless_elements())
def test_every_lossless_constructor_is_unitary(m):
    assert _oracles.is_unitary(m, tol=1e-12)


def test_ideal_chain_fits_a_raised_cosine():
    f_grid = np.linspace(0.0, math.pi / 2, 1000)
    pair = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    out = np.array([_oracles.intensity(fs.roundtrip_fields(pair, (f,))[0]) for f in f_grid])
    basis = 1.0 + np.cos(4.0 * f_grid)
    c = float(np.dot(out, basis) / np.dot(basis, basis))
    assert c > 0.0
    assert np.max(np.abs(out - c * basis)) <= 1e-10 * c * np.max(basis)


@given(rho=retardations, beta=splice_angles)
def test_plate_is_invariant_under_half_turn_splice_shift(rho, beta):
    a = fs.qwp_imperfect(fs.ImperfectWaveplate(rho, beta))
    b = fs.qwp_imperfect(fs.ImperfectWaveplate(rho, beta + math.pi))
    assert np.max(np.abs(a - b)) <= 1e-12


@given(f=st.floats(-2.0, 2.0))
def test_quarter_wave_plate_error_vanishes_off_null(f):
    # the relative error divides by the ideal fringe, so the excluded
    # neighborhood of the nulls must clear the ~1e-16 numerator roundoff
    assume(abs(1.0 + math.cos(4.0 * f)) > 1e-3)
    assert abs(_plate_error_pct(math.pi / 2, 0.0, f)) <= 1e-12


def test_error_ordering_on_the_retardation_grid():
    # at zero splice angle the return pass retraces the plate, so the pure
    # retardation error cancels identically and the grid only has roundoff
    # left to order; the slack is the algebraic tolerance, far above it
    rhos = np.linspace(math.pi / 2 - 0.3, math.pi / 2 + 0.3, 61)
    errs = np.array([abs(_plate_error_pct(r, 0.0, 0.1)) for r in rhos])
    order = np.argsort(np.abs(rhos - math.pi / 2), kind="stable")
    ranked = errs[order]
    assert np.all(np.diff(ranked) >= -1e-12)


@given(
    m1=st.floats(0.0, 0.3),
    m2=st.floats(0.0, 0.3),
    s1=st.sampled_from((-1.0, 1.0)),
    s2=st.sampled_from((-1.0, 1.0)),
)
def test_error_grows_with_retardation_deviation(m1, m2, s1, s2):
    lo, hi = sorted((m1, m2))
    e_lo = abs(_plate_error_pct(math.pi / 2 + s1 * lo, 0.0, 0.1))
    e_hi = abs(_plate_error_pct(math.pi / 2 + s2 * hi, 0.0, 0.1))
    assert e_lo <= e_hi + 1e-12


# ------------------------------------------------------------- spun media


@given(med=spun_media(), n=st.integers(16, 2048))
def test_spun_product_is_unitary_for_any_medium(med, n):
    j = fs.total_matrix(med, fs.grid_for(med, n))
    assert np.max(np.abs(j.conj().T @ j - np.eye(2))) < 1e-9


@given(
    beat=st.floats(0.005, 0.05),
    length=st.floats(0.01, 0.25),
    n=st.integers(64, 2048),
)
def test_unspun_medium_is_a_plain_retarder(beat, length, n):
    delta = 2.0 * math.pi / beat
    med = fs.SpunMediumSpec(length, delta, fs.SpinProfile("constant", 0.0))
    j = fs.total_matrix(med, fs.grid_for(med, n))
    half = 0.5 * delta * length
    want = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    assert np.max(np.abs(j - want)) <= 1e-10


@given(med=spun_media(), n=st.integers(16, 512))
def test_trajectory_endpoint_equals_one_shot_product(med, n):
    # the trajectory records the unsigned ripple amplitude, so the one-shot
    # product's signed ellipticity is compared through its magnitude
    grid = fs.grid_for(med, n)
    traj = fs.propagate_trajectory(med, grid, metric_kind="principal")
    want = abs(_oracles.ellipticity_principal(fs.total_matrix(med, grid)[:, 0]))
    assert traj.epsilon[-1] == pytest.approx(want, abs=1e-10)


def _ladder_errors(med, probes, ref_n):
    ref = fs.total_matrix(med, fs.grid_for(med, ref_n))
    return [
        float(np.max(np.abs(fs.total_matrix(med, fs.grid_for(med, n)) - ref)))
        for n in probes
    ]


def test_refinement_halves_the_error_on_default_media():
    """Doubling N should divide the product error by about two.

    Checked on the two default media where the first-order term is visible:
    the demo medium and the constant-rate device. The high-order device's
    smooth ramp cancels the first-order term, so it refines at second order
    in every window reachable at test runtime and is pinned by frozen ladder
    values in the campaign tests instead of a ratio band here.
    """
    errs = _ladder_errors(fs.default_demo_medium(), (1 << 15, 1 << 16, 1 << 17), 1 << 20)
    assert errs[0] > errs[1] > errs[2]
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.7 <= coarse / fine <= 2.3

    device = fs.default_spun_front_end().medium
    errs = _ladder_errors(device, (1 << 15, 1 << 16, 1 << 17, 1 << 18), 1 << 21)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.7 <= coarse / fine <= 2.3


@pytest.fixture(scope="module")
def ripple_rows():
    """All eight profile/rate ripple cells on a 200k-segment grid."""
    rows = {}
    for kind in ("linear", "cosine"):
        for row in fs.run_xi_sweep(medium_with_profile(kind, RATIOS[0]), RATIOS, 200_000):
            rows[kind, row.xi_over_delta] = row
    return rows


def test_smooth_transition_settles_no_worse(ripple_rows):
    for r in RATIOS:
        cos_pp = ripple_rows["cosine", r].delta_eps_pp_settled
        lin_pp = ripple_rows["linear", r].delta_eps_pp_settled
        assert cos_pp <= lin_pp


def test_faster_spin_fluctuates_no_less(ripple_rows):
    pps = [ripple_rows["linear", r].delta_eps_pp_full for r in RATIOS]
    assert all(a <= b for a, b in zip(pps, pps[1:]))


def test_gradient_driver_ranks_measured_fluctuation(ripple_rows):
    drivers, pps = [], []
    for kind in ("linear", "cosine"):
        for r in RATIOS:
            drivers.append(_oracles.fluctuation_bound(medium_with_profile(kind, r).profile))
            pps.append(ripple_rows[kind, r].delta_eps_pp_full)

    def ranks(xs):
        order = np.argsort(np.asarray(xs), kind="stable")
        out = np.empty(len(xs))
        out[order] = np.arange(len(xs))
        return out

    d = ranks(drivers) - ranks(pps)
    n = len(drivers)
    rho = 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
    assert rho >= 0.8


# ------------------------------------------------------------- campaigns


@st.composite
def sweep_specs(draw):
    kind = draw(st.integers(0, 1))
    if kind == 0:
        fe = fs.FrontEnd(kind="ideal")
    else:
        fe = fs.front_end_imperfect(
            fs.ImperfectWaveplate(draw(st.floats(1.0, 2.5)), draw(st.floats(-0.1, 0.1)))
        )
    currents = draw(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=4))
    return fs.CurrentSweepSpec(
        front_end=fe,
        currents_a=tuple(currents),
        verdet_rad_per_amp_turn=draw(st.floats(1e-5, 1e-3)),
        turns=draw(st.integers(1, 500)),
    )


def _sweeps_equal(a, b):
    for field in ("currents_a", "faraday_rad", "i_out", "i_ideal", "err_pct"):
        if not np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True):
            return False
    for field in ("max_abs_err_pct", "mean_abs_err_pct"):
        x, y = getattr(a, field), getattr(b, field)
        if not (x == y or (math.isnan(x) and math.isnan(y))):
            return False
    return a.n_fringe_null == b.n_fringe_null


@given(spec=sweep_specs())
def test_sweep_repeats_bit_for_bit(spec):
    first = fs.run_current_sweep(spec)
    again = fs.run_current_sweep(spec)
    assert _sweeps_equal(first, again)


@given(spec=sweep_specs())
def test_sweep_summaries_equal_bruteforce_recompute(spec):
    res = fs.run_current_sweep(spec)
    live = res.err_pct[~np.isnan(res.err_pct)]
    assert res.n_fringe_null == len(spec.currents_a) - live.size
    if live.size:
        assert res.max_abs_err_pct == np.max(np.abs(live))
        assert res.mean_abs_err_pct == np.mean(np.abs(live))
    else:
        assert math.isnan(res.max_abs_err_pct)
        assert math.isnan(res.mean_abs_err_pct)


def test_default_converters_rank_by_sweep_error():
    bare = fs.front_end_imperfect(
        fs.ImperfectWaveplate.from_cut_deviation(
            float(constant("plate_cut_deviation_m")),
            float(constant("plate_splice_deviation_rad")),
        )
    )
    worst = {
        name: fs.run_current_sweep(fs.default_sweep_spec(fe)).max_abs_err_pct
        for name, fe in (
            ("high_order", fs.default_high_order_front_end()),
            ("spun", fs.default_spun_front_end()),
            ("bare", bare),
        )
    }
    assert worst["high_order"] < worst["spun"] < worst["bare"]


# ---------------------------------------------------------------- outputs


_cell_text = st.sampled_from(("", "a", "xy", "ramp_3"))
_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**9), 10**9),
    st.booleans(),
    st.none(),
    _cell_text,
)


@st.composite
def result_tables(draw):
    width = draw(st.integers(1, 3))
    columns = tuple(f"col{i}" for i in range(width))
    n_rows = draw(st.integers(0, 3))
    rows = tuple(
        tuple(draw(_cells) for _ in range(width)) for _ in range(n_rows)
    )
    grid_n = draw(st.one_of(st.none(), st.integers(1, 1 << 20)))
    return fs.ResultTable.from_rows(columns=columns, rows=rows, grid_n=grid_n)


@given(table=result_tables())
def test_rendered_tables_carry_the_constants_fingerprint(table):
    tag = f"constants={fs.constants_fingerprint()}"
    header = fs.render(table, "csv").splitlines()[0]
    assert header.startswith("#") and tag in header
    meta = json.loads(fs.render(table, "json"))["metadata"]
    assert meta["constants_fingerprint"] == fs.constants_fingerprint()


@given(table=result_tables(), fmt=st.sampled_from(("csv", "json")))
def test_rendering_the_same_table_twice_is_identical(table, fmt):
    assert fs.render(table, fmt) == fs.render(table, fmt)


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_survive_the_text_round_trip(x):
    assert float(format(x, ".17g")) == x


# ------------------------------------------------------------ configuration


_profile_sections = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(("linear", "cosine", "constant")),
        "xi_over_delta": st.floats(0.0, 20.0),
        "lead_in_l1_m": st.floats(0.0, 0.1),
        "transition_l2_m": st.floats(1e-3, 0.3),
    },
)

_medium_sections = st.fixed_dictionaries(
    {},
    optional={
        "total_length_m": st.floats(0.01, 1.0),
        "beat_length_m": st.floats(1e-3, 0.1),
        "profile": _profile_sections,
    },
)

_front_end_sections = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ideal")}),
    st.fixed_dictionaries(
        {"kind": st.just("imperfect_qwp")},
        optional={
            "cut_deviation_m": st.floats(-1e-3, 1e-3),
            "splice_angle_rad": st.floats(-0.2, 0.2),
        },
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(("spun_fiber", "high_order_qwp"))},
        optional={
            "medium": _medium_sections,
            "n_segments": st.integers(64, 1 << 20),
        },
    ),
)

_config_documents = st.fixed_dictionaries(
    {},
    optional={
        "schema_version": st.just(fs.SCHEMA_VERSION),
        "front_end": _front_end_sections,
        "coil": st.fixed_dictionaries(
            {},
            optional={
                "verdet_rad_per_amp_turn": st.floats(1e-6, 1e-3),
                "turns": st.integers(1, 2000),
                "current_a": st.floats(0.0, 5000.0),
            },
        ),
        "medium": _medium_sections,
        "trajectory": st.fixed_dictionaries(
            {},
            optional={
                "n_segments": st.integers(64, 1 << 22),
                "metric_kind": st.sampled_from(("principal", "axis_ratio")),
                "stride": st.integers(1, 10000),
            },
        ),
        "current_sweep": st.fixed_dictionaries(
            {},
            optional={
                "max_a": st.floats(1.0, 10000.0),
                "points": st.integers(2, 2001),
            },
        ),
        "xi_sweep": st.fixed_dictionaries(
            {},
            optional={
                "ratios": st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
                "profiles": st.lists(
                    st.sampled_from(("linear", "cosine", "constant")),
                    min_size=1,
                    max_size=3,
                ),
                "n_segments": st.integers(64, 1 << 22),
            },
        ),
        "perturbation": st.fixed_dictionaries(
            {},
            optional={
                "wavelength_drift_m": st.floats(-1e-7, 1e-7),
                "temperature_excursion_c": st.floats(0.0, 100.0),
                "n_segments": st.integers(64, 1 << 22),
            },
        ),
        "convergence": st.fixed_dictionaries(
            {},
            optional={
                "segment_counts": st.lists(
                    st.integers(1, 1 << 12), min_size=1, max_size=6
                ),
                # stays above both the drawn counts and the default ladder
                "reference_n": st.integers(1 << 18, 1 << 22),
            },
        ),
    },
)


@given(doc=_config_documents)
def test_config_round_trip_reaches_a_fixed_point(doc):
    cfg = parse_config(doc)
    text = serialize_config(cfg)
    cfg2 = parse_config(json.loads(text))
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text
    # the serialized form carries the full assumed-constants block
    assert json.loads(text)["constants"] == {
        k: {"value": v, "source": s} for k, (v, s) in fs.ASSUMED_CONSTANTS.items()
    }
