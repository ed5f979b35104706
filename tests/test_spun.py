"""Spun-medium propagation: profiles, discretized products, trajectories.

Closed-form profile checks integrate the rate numerically; matrix and
metric checks compare against values frozen from the independent
reference implementation in _frozen.
"""

import dataclasses
import errno
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest

import focsim as fs
from focsim.constants import constant
from focsim.errors import NumericDomainError
from focsim.spun import (
    conversion_length,
    grid_for,
    propagate_trajectory,
    stability_metrics,
    total_matrix,
)

import _frozen
import _oracles

DEMO = fs.default_demo_medium()


@pytest.fixture(scope="module")
def demo_reference():
    """2^20-segment product of the default medium, the refinement anchor."""
    return total_matrix(DEMO, grid_for(DEMO, 1 << 20))


@pytest.fixture(scope="module")
def metrics_trajectory():
    med = fs.SpunMediumSpec(
        DEMO.total_length_m,
        DEMO.delta_rad_per_m,
        fs.SpinProfile(
            "cosine",
            3.0 * DEMO.delta_rad_per_m,
            DEMO.profile.lead_in_l1_m,
            DEMO.profile.transition_l2_m,
        ),
    )
    return propagate_trajectory(med, grid_for(med, 1_000_000))


# ---- spin profiles ----


def test_profile_validation():
    with pytest.raises(ValueError):
        fs.SpinProfile("linear", 10.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fs.SpinProfile("cosine", 10.0, 0.0, -0.1)
    # NaN is not positive: each kind says so at construction
    for kind in ("linear", "cosine"):
        with pytest.raises(ValueError, match="positive transition length"):
            fs.SpinProfile(kind, 10.0, 0.0, math.nan)
    # a NaN lead-in once built, then failed as a non-finite spin angle
    with pytest.raises(ValueError, match="lengths must be finite"):
        fs.SpinProfile("linear", 10.0, math.nan, 0.1)
    with pytest.raises(ValueError, match="lengths must be finite"):
        fs.SpinProfile("linear", 10.0, 0.0, math.inf)
    with pytest.raises(ValueError, match="unknown spin profile kind"):
        fs.SpinProfile("bogus", 10.0, 0.0, 0.1)


def test_constant_profile_spins_uniformly():
    p = fs.SpinProfile("constant", 3.0)
    z = np.array([0.0, 0.4, 2.5])
    assert np.array_equal(_oracles.spin_rate(p, z), [3.0, 3.0, 3.0])
    assert np.allclose(p.spin_angle(z), 3.0 * z, atol=0.0)
    assert _oracles.spin_rate(p, 0.7) == 3.0


def test_ramp_rates_hit_closed_form_waypoints():
    xm, l1, l2 = 200.0, 0.02, 0.25
    lin = fs.SpinProfile("linear", xm, l1, l2)
    cos = fs.SpinProfile("cosine", xm, l1, l2)
    for p in (lin, cos):
        assert _oracles.spin_rate(p, 0.0) == 0.0
        assert _oracles.spin_rate(p, l1) == 0.0
        assert _oracles.spin_rate(p, l1 + l2) == pytest.approx(xm, abs=1e-12)
        assert _oracles.spin_rate(p, l1 + l2 + 1.0) == xm
    assert _oracles.spin_rate(lin, l1 + 0.5 * l2) == pytest.approx(0.5 * xm, abs=1e-12)
    assert _oracles.spin_rate(cos, l1 + 0.5 * l2) == pytest.approx(0.5 * xm, abs=1e-12)
    # quarter-way: cosine lags the linear ramp below the midpoint
    assert _oracles.spin_rate(cos, l1 + 0.25 * l2) < _oracles.spin_rate(lin, l1 + 0.25 * l2)


def test_cosine_ramp_enters_and_leaves_smoothly():
    """The cosine transition has zero rate slope at both ends; linear jumps."""
    xm, l1, l2, h = 200.0, 0.02, 0.25, 1e-6
    cos = fs.SpinProfile("cosine", xm, l1, l2)
    lin = fs.SpinProfile("linear", xm, l1, l2)
    assert abs(_oracles.spin_rate(cos, l1 + h) - _oracles.spin_rate(cos, l1)) < 1e-5
    assert abs(_oracles.spin_rate(cos, l1 + l2) - _oracles.spin_rate(cos, l1 + l2 - h)) < 1e-5
    assert _oracles.spin_rate(lin, l1 + h) - _oracles.spin_rate(lin, l1) > 1e-4


def test_spin_angle_integrates_spin_rate():
    profiles = [
        fs.SpinProfile("linear", 150.0, 0.05, 0.3),
        fs.SpinProfile("cosine", 150.0, 0.05, 0.3),
        fs.SpinProfile("constant", 80.0),
    ]
    for p in profiles:
        for zq in (0.13, 0.35, 0.62, 1.1, 1.9):
            zg = np.linspace(0.0, zq, 400_001)
            want = float(np.trapezoid(_oracles.spin_rate(p, zg), zg))
            assert p.spin_angle(zq) == pytest.approx(want, abs=1e-9)
        assert p.spin_angle(0.0) == 0.0


def test_angle_grows_linearly_past_the_transition():
    p = fs.SpinProfile("cosine", 150.0, 0.05, 0.3)
    z1, z2 = 0.5, 1.7
    assert p.spin_angle(z2) - p.spin_angle(z1) == pytest.approx(
        150.0 * (z2 - z1), abs=1e-10
    )


def test_profiles_reject_negative_positions():
    p = fs.SpinProfile("linear", 10.0, 0.0, 0.1)
    with pytest.raises(NumericDomainError):
        p.spin_angle(-1e-9)
    with pytest.raises(NumericDomainError):
        p.spin_angle(np.array([0.1, -0.2]))


# ---- medium spec and grid ----


def test_medium_derived_properties():
    med = DEMO
    assert med.settle_z_m == med.profile.lead_in_l1_m + med.profile.transition_l2_m
    flat = fs.SpunMediumSpec(0.02, 100.0, fs.SpinProfile("constant", 5.0))
    assert flat.settle_z_m == 0.0


def test_medium_validation():
    prof = fs.SpinProfile("linear", 10.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        fs.SpunMediumSpec(0.0, 100.0, prof)
    # a NaN length once built, then failed as a non-finite spin angle
    with pytest.raises(ValueError, match="total length must be positive"):
        fs.SpunMediumSpec(math.nan, 1.0, fs.SpinProfile("constant", 1.0))
    with pytest.raises(ValueError, match="total length must be positive and finite"):
        fs.SpunMediumSpec(math.inf, 1.0, fs.SpinProfile("constant", 1.0))
    with pytest.raises(ValueError):
        fs.SpunMediumSpec(0.25, 100.0, prof)  # shorter than lead-in + transition
    fs.SpunMediumSpec(0.3, 100.0, prof)


def test_with_delta_keeps_the_fabricated_profile():
    med = DEMO
    moved = dataclasses.replace(med, delta_rad_per_m=med.delta_rad_per_m * 1.02)
    assert moved.profile is med.profile
    assert moved.total_length_m == med.total_length_m
    assert moved.delta_rad_per_m == med.delta_rad_per_m * 1.02
    longer = dataclasses.replace(med, total_length_m=0.5)
    assert longer.profile is med.profile
    assert longer.delta_rad_per_m == med.delta_rad_per_m


def test_grid_basics():
    g = fs.PropagationGrid(4, 0.2)
    assert g.total_length_m / g.n_segments == 0.05
    zs = g.z_samples()
    assert len(zs) == 5
    assert zs[0] == 0.0 and zs[-1] == 0.2
    assert np.allclose(np.diff(zs), 0.05, atol=1e-18)
    with pytest.raises(ValueError):
        fs.PropagationGrid(0, 0.2)
    with pytest.raises(ValueError):
        fs.PropagationGrid(4, 0.0)
    # once "z samples repeat" from the first use of the grid
    with pytest.raises(ValueError, match="grid length must be positive"):
        fs.PropagationGrid(4, math.nan)
    with pytest.raises(ValueError, match="grid length must be positive and finite"):
        fs.PropagationGrid(4, math.inf)
    assert grid_for(DEMO, 7).total_length_m == DEMO.total_length_m
    with pytest.raises(ValueError):
        total_matrix(DEMO, fs.PropagationGrid(8, DEMO.total_length_m * 2))


# ---- segment and total matrices ----


def test_segment_matrix_is_a_rotated_retarder():
    segment_matrix = _oracles.segment_matrix
    j = segment_matrix(100.0, 0.0, 0.01)
    assert np.allclose(j, np.diag([np.exp(0.5j), np.exp(-0.5j)]), atol=1e-16)
    theta = 0.37
    rot = fs.rotator(theta)
    want = rot @ segment_matrix(100.0, 0.0, 0.01) @ rot.T
    assert np.allclose(segment_matrix(100.0, theta, 0.01), want, atol=1e-15)
    assert _oracles.is_unitary(segment_matrix(123.4, 1.1, 0.007), tol=1e-14)
    with pytest.raises(ValueError):
        segment_matrix(100.0, 0.0, 0.0)


def test_coarse_products_compose_segment_matrices():
    prof = fs.SpinProfile("linear", 300.0, 0.0, 0.1)
    med = fs.SpunMediumSpec(0.1, 500.0, prof)
    segment_matrix = _oracles.segment_matrix
    j1 = total_matrix(med, grid_for(med, 1))
    assert np.array_equal(j1, segment_matrix(500.0, prof.spin_angle(0.0), 0.1))
    j2 = total_matrix(med, grid_for(med, 2))
    by_hand = segment_matrix(500.0, prof.spin_angle(0.05), 0.05) @ segment_matrix(
        500.0, prof.spin_angle(0.0), 0.05
    )
    assert np.allclose(j2, by_hand, atol=1e-16)


def test_zero_spin_reduces_to_a_plain_retarder():
    length = 0.02
    med = fs.SpunMediumSpec(length, (0.5 * math.pi) / length, fs.SpinProfile("constant", 0.0))
    want = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
    for n in (64, 4096):
        j = total_matrix(med, grid_for(med, n))
        assert np.max(np.abs(j - want)) < 1e-10


def test_total_matrix_reproduces_frozen_golden():
    delta = DEMO.delta_rad_per_m
    med = fs.SpunMediumSpec(0.3, delta, fs.SpinProfile("linear", 5.0 * delta, 0.0, 0.3))
    j = total_matrix(med, grid_for(med, 100_000))
    gold5 = np.array(
        [complex(re, im) for re, im in _frozen.GOLDEN_MATRIX_N1E5]
    ).reshape(2, 2)
    gold7 = np.array(
        [complex(re, im) for re, im in _frozen.GOLDEN_MATRIX_N1E7]
    ).reshape(2, 2)
    assert np.max(np.abs(j - gold5)) < 1e-12
    # distance to the near-continuum product is the frozen discretization error
    dev = float(np.max(np.abs(j - gold7)))
    assert dev == pytest.approx(_frozen.GOLDEN_MATRIX_ERR_1E5, rel=1e-9)


def test_total_matrix_stays_unitary_at_large_n():
    j = total_matrix(DEMO, grid_for(DEMO, 1_000_000))
    assert np.max(np.abs(j.conj().T @ j - np.eye(2))) < 1e-9


_SUB = fs.spun._SUB
_CHUNK = fs.spun._CHUNK


@pytest.mark.parametrize("angle_rule", ["left", "midpoint"])
@pytest.mark.parametrize("n", [1, _SUB - 1, _SUB, _SUB + 1, 3 * _SUB + 77, _CHUNK + 1])
def test_sub_block_trees_keep_the_whole_chunk_bits(n, angle_rule, forks, monkeypatch):
    """total_matrix against one pairwise tree over each whole chunk: the
    sub-block trees must regroup nothing, so the bits are equal, whether
    1, 2 or 3 usable CPUs share the sub-blocks."""
    spun = fs.spun
    grid = grid_for(DEMO, n)
    want = np.eye(2, dtype=np.complex128)
    sub_blocks = []
    for lo, hi in spun._chunks(DEMO, grid):
        want = spun._ordered_product(spun._segment_block(DEMO, n, lo, hi, angle_rule)) @ want
        sub_blocks.append(-(-(hi - lo) // _SUB))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        del forks[:]
        assert np.array_equal(total_matrix(DEMO, grid, angle_rule=angle_rule), want), cpus
        # each chunk forks a worker per usable CPU and sub-block but the first
        assert len(forks) == sum(min(cpus, b) - 1 for b in sub_blocks), cpus



@pytest.mark.parametrize("failure", ["exit at once", "no fork", "no pipe"])
def test_the_bits_do_not_depend_on_a_worker(failure, forks, monkeypatch):
    # three sub-blocks; of two workers, the forked one owns sub-block 1
    grid = grid_for(DEMO, 2 * _SUB + 77)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = total_matrix(DEMO, grid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if failure == "no fork":

        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
    elif failure == "no pipe":

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
    else:
        # the worker dies before it sends its sub-block's product
        parent, dumps = os.getpid(), pickle.dumps

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dying)
    assert np.array_equal(total_matrix(DEMO, grid), want)
    assert len(forks) == (1 if failure == "exit at once" else 0)


# constant spin whose angle theta = xi z overflows past z = 2L/3 only: over
# 2 * _SUB segments, in the second sub-block, which a forked worker owns
LATE_OVERFLOW = fs.SpunMediumSpec(10.0, 1.0, fs.SpinProfile("constant", 2.7e307))


@pytest.mark.parametrize("angle_rule", ["left", "midpoint"])
def test_an_overflow_in_a_workers_sub_block_raises_as_in_one_process(
    angle_rule, forks, monkeypatch
):
    n = 2 * _SUB
    with np.errstate(over="ignore"):
        theta = LATE_OVERFLOW.profile.spin_angle(np.arange(n) * (LATE_OVERFLOW.total_length_m / n))
    assert np.isfinite(theta[:_SUB]).all() and not np.isfinite(theta[_SUB:]).all()
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        with pytest.raises(NumericDomainError, match="^spin angle is not finite$"):
            total_matrix(LATE_OVERFLOW, grid_for(LATE_OVERFLOW, n), angle_rule=angle_rule)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1

def test_total_matrix_memory_is_bounded():
    # tracemalloc sees only this process, which still holds one sub-block
    # at a time whatever its forked workers do: the traced peak is one
    # sub-block's segments and temporaries, 1.86 MB at 2^20 segments,
    # where one tree over each whole 2^19-segment chunk peaked at 58.7 MB
    # (tracemalloc, numpy 2.4.6)
    grid = grid_for(DEMO, 1 << 20)
    tracemalloc.start()
    try:
        total_matrix(DEMO, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_chunk_ranges_are_made_as_they_are_taken():
    # 2^62 segments make 2^43 ranges; only the first is ever built here
    grid = fs.PropagationGrid(2**62, DEMO.total_length_m)
    assert next(iter(fs.spun._chunks(DEMO, grid))) == (0, _CHUNK)
    with pytest.raises(ValueError, match="does not cover"):
        fs.spun._chunks(DEMO, fs.PropagationGrid(2**62, 2.0 * DEMO.total_length_m))


def test_left_endpoint_rule_refines_at_first_order(demo_reference):
    for n in (1024, 4096, 16384):
        dev = float(np.max(np.abs(total_matrix(DEMO, grid_for(DEMO, n)) - demo_reference)))
        assert dev == pytest.approx(_frozen.LADDER_DEFAULT[n], rel=1e-9)
    devs = {
        n: float(np.max(np.abs(total_matrix(DEMO, grid_for(DEMO, n)) - demo_reference)))
        for n in (32768, 65536, 131072)
    }
    assert 1.7 < devs[32768] / devs[65536] < 2.3
    assert 1.7 < devs[65536] / devs[131072] < 2.3


def test_midpoint_rule_refines_at_second_order():
    """Doubling N divides the midpoint-rule error by about four.

    The left-endpoint rule stays the default anyway: the refinement
    contract elsewhere pins first-order halving.
    """
    ref = total_matrix(DEMO, grid_for(DEMO, 1 << 17), angle_rule="midpoint")
    devs = {
        n: float(
            np.max(np.abs(total_matrix(DEMO, grid_for(DEMO, n), angle_rule="midpoint") - ref))
        )
        for n in (1024, 2048, 4096)
    }
    assert 3.4 < devs[1024] / devs[2048] < 4.6
    assert 3.4 < devs[2048] / devs[4096] < 4.6
    assert np.array_equal(
        total_matrix(DEMO, grid_for(DEMO, 512)),
        total_matrix(DEMO, grid_for(DEMO, 512), angle_rule="left"),
    )


def _uniform_spun_closed_form(delta: float, xi: float, length: float) -> np.ndarray:
    """Continuum Jones matrix of a uniformly spun retarder (Laming & Payne,
    J. Lightwave Technol. 7, 1989), in spun's conventions: the local
    retarder is diag(e^{+i delta dz/2}, e^{-i delta dz/2}) and theta(0) = 0.

    J(L) = R(xi L) [cos(Omega L) I + i sin(Omega L)/Omega (delta/2 s_z + xi s_y)],
    Omega = sqrt(delta^2/4 + xi^2). Every matrix is typed in here.
    """
    omega = math.sqrt(delta * delta / 4.0 + xi * xi)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    c, s = math.cos(xi * length), math.sin(xi * length)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    body = math.cos(omega * length) * np.eye(2) + 1j * math.sin(omega * length) / omega * (
        0.5 * delta * sigma_z + xi * sigma_y
    )
    return rot @ body


def _deviation(med, n: int, want: np.ndarray) -> float:
    return float(np.max(np.abs(total_matrix(med, grid_for(med, n)) - want)))


def test_uniform_spin_converges_to_the_closed_form():
    """The left-endpoint product approaches the continuum matrix at first
    order: doubling N halves its deviation, on the default spun device and
    on seeded uniformly spun media."""
    med = fs.default_spun_front_end().medium
    assert med.profile.kind == "constant"
    want = _uniform_spun_closed_form(
        med.delta_rad_per_m, med.profile.xi_max_rad_per_m, med.total_length_m
    )
    dev = _deviation(med, 200_000, want)
    assert 4.10e-5 <= dev <= 4.25e-5
    assert 1.95 <= dev / _deviation(med, 400_000, want) <= 2.05

    rng = np.random.default_rng(0)
    for _ in range(10):
        delta, xi, length = rng.uniform(10, 500), rng.uniform(-300, 300), rng.uniform(0.01, 0.3)
        med = fs.SpunMediumSpec(length, delta, fs.SpinProfile("constant", xi))
        want = _uniform_spun_closed_form(delta, xi, length)
        # 2^14 is the smallest N at which every one of these media holds the ratio
        ratio = _deviation(med, 1 << 14, want) / _deviation(med, 1 << 15, want)
        assert 1.9 <= ratio <= 2.1, (delta, xi, length)


# four times the largest gap each N showed over both media and both rules,
# or more (numpy 2.4.6, x86-64 long double)
_UNIFORM_SPIN_BOUNDS = {1: 3e-14, 2: 1e-13, 3: 1e-13, 1000: 2e-13, 70_000: 1e-11, 1 << 20: 5e-11}


@pytest.mark.parametrize("angle_rule, offset", [("left", 0.0), ("midpoint", 0.5)])
def test_uniform_spin_products_match_the_exact_power(angle_rule, offset):
    """total_matrix on constant spin against the exact product of the same
    segments (_oracles.uniform_spin_product), from one segment to two whole
    chunks: what is left is float64 rounding."""
    counter_spun = fs.SpunMediumSpec(0.25, 20.0, fs.SpinProfile("constant", -190.0))
    for med in (fs.default_spun_front_end().medium, counter_spun):
        xi = med.profile.xi_max_rad_per_m
        for n, bound in _UNIFORM_SPIN_BOUNDS.items():
            want = _oracles.uniform_spin_product(med.delta_rad_per_m, xi, med.total_length_m, n, offset)
            got = total_matrix(med, grid_for(med, n), angle_rule=angle_rule)
            gap = float(np.max(np.abs(got - want)))
            assert gap < bound, (xi, n, gap)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Item-wise products of two stacks of 2x2 matrices laid out (2, 2, n)."""
    return np.array([[a[i, 0] * b[0, k] + a[i, 1] * b[1, k] for k in range(2)] for i in range(2)])


def _magnus4_converter(med, theta, n: int) -> np.ndarray:
    """Continuum Jones matrix of a medium whose axes turn as theta(z), by n
    (a power of two) steps of the 4th-order commutator Magnus integrator
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009). dJ/dz = A(z) J with
    the lab-frame generator A(z) = (i delta / 2) R(theta) s_z R(-theta),
    taken at the two Gauss points of each step:

    Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1],
    exp Omega = cosh s I + (sinh s / s) Omega,  s^2 = -det Omega,

    and the steps reduced by a pairwise tree, later steps on the left.
    Every matrix is typed in here; nothing comes from focsim.spun.
    """
    h = med.total_length_m / n
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])[:, :, np.newaxis]

    def generator(z):
        c, s = np.cos(theta(z)), np.sin(theta(z))
        rot = np.array([[c, -s], [s, c]])
        return 0.5j * med.delta_rad_per_m * _mul(_mul(rot, sigma_z), rot.transpose(1, 0, 2))

    mid = (np.arange(n) + 0.5) * h
    a1 = generator(mid - h / (2 * math.sqrt(3)))
    a2 = generator(mid + h / (2 * math.sqrt(3)))
    omega = 0.5 * h * (a1 + a2) + (math.sqrt(3) / 12) * h * h * (_mul(a2, a1) - _mul(a1, a2))
    s = np.sqrt(omega[0, 1] * omega[1, 0] - omega[0, 0] * omega[1, 1])
    m = np.sinh(s) / s * omega
    m[0, 0] += np.cosh(s)
    m[1, 1] += np.cosh(s)
    while m.shape[-1] > 1:
        m = _mul(m[..., 1::2], m[..., 0::2])
    return m[..., 0]


def test_ramped_medium_converges_to_the_magnus_oracle():
    """On the default high_order_qwp (cosine ramp, xi/delta = 10), against a
    4th-order continuum oracle: the oracle refines at 4th order, the
    midpoint rule at 2nd, and the default left rule is still short of its
    first-order halving at 200k to 800k segments. The sweep error at the
    default grid reads about 8% below the one behind the oracle's converter.
    """
    fe = fs.default_high_order_front_end()
    med = fe.medium
    p = med.profile
    assert p.kind == "cosine" and fe.n_segments == 200_000
    l1, l2, xi = p.lead_in_l1_m, p.transition_l2_m, p.xi_max_rad_per_m

    def theta(z):
        u = np.clip(z - l1, 0.0, l2)
        ramp = xi * (0.5 * u - (0.5 * l2 / math.pi) * np.sin(math.pi * u / l2))
        return ramp + xi * np.clip(z - l1 - l2, 0.0, None)

    want = _magnus4_converter(med, theta, 1 << 18)
    assert np.max(np.abs(want.conj().T @ want - np.eye(2))) < 1e-10
    devs = [
        np.max(np.abs(_magnus4_converter(med, theta, 1 << k) - want)) for k in (14, 15, 16, 17)
    ]
    assert 9e-6 <= devs[0] <= 1.1e-5
    assert all(15.0 <= a / b <= 18.0 for a, b in zip(devs, devs[1:])), devs

    counts = (200_000, 400_000, 800_000)
    # the left rule's ratios climb towards 2 from below
    for rule, first, bands in (
        ("left", 3.53e-4, ((1.80, 1.89), (1.89, 1.97))),
        ("midpoint", 6.19e-5, ((3.9, 4.1), (3.9, 4.1))),
    ):
        devs = [
            float(np.max(np.abs(total_matrix(med, grid_for(med, n), angle_rule=rule) - want)))
            for n in counts
        ]
        assert 0.97 * first <= devs[0] <= 1.03 * first, (rule, devs)
        ratios = [a / b for a, b in zip(devs, devs[1:])]
        assert all(lo <= r <= hi for r, (lo, hi) in zip(ratios, bands)), (rule, ratios)

    spec = fs.default_sweep_spec(fe)
    default = fs.run_current_sweep(spec).max_abs_err_pct
    coil = fs.FaradayCoil.from_currents(spec.verdet_rad_per_amp_turn, spec.turns, spec.currents_a)
    err = fs.detected_intensity(coil, (want, want.T)).relative_error_pct
    behind_oracle = float(np.nanmax(np.abs(err)))
    assert 0.0181 <= behind_oracle <= 0.0183
    assert 0.07 <= 1.0 - default / behind_oracle <= 0.09


# ---- trajectories and stability metrics ----


def test_trajectory_final_state_matches_total_matrix():
    grid = grid_for(DEMO, 4096)
    traj = propagate_trajectory(DEMO, grid)
    e_fin = total_matrix(DEMO, grid) @ fs.jones_vector(1.0, 0.0)
    want = abs(_oracles.ellipticity_principal(e_fin))
    assert traj.epsilon[-1] == pytest.approx(want, abs=1e-10)
    assert np.array_equal(traj.z_m, grid.z_samples())
    assert traj.epsilon[0] == 0.0  # linear launch state
    assert traj.settle_z_m == DEMO.settle_z_m


_BLOCK = fs.spun._BLOCK


@pytest.mark.parametrize(
    "n, chunk",
    [
        (1, None),
        (_BLOCK // 2 + 3, None),
        (3 * _BLOCK + 77, None),
        (3 * _BLOCK + 77, _BLOCK + 100),
    ],
)
def test_trajectory_states_match_segment_by_segment_product(n, chunk, monkeypatch):
    """Every recorded state, across block and chunk seams, against the
    straight-line product of segment_matrix applied one segment at a time."""
    if chunk is not None:
        monkeypatch.setattr(fs.spun, "_CHUNK", chunk)
    delta = DEMO.delta_rad_per_m
    med = fs.SpunMediumSpec(0.05, delta, fs.SpinProfile("linear", 3.0 * delta, 0.01, 0.03))
    e_in = fs.jones_vector(0.8, 0.36 + 0.48j)
    grid = grid_for(med, n)
    dz = grid.total_length_m / grid.n_segments
    v = e_in
    want = [abs(_oracles.ellipticity_principal(v))]
    for theta in med.profile.spin_angle(np.arange(n) * dz):
        v = _oracles.segment_matrix(delta, float(theta), dz) @ v
        want.append(abs(_oracles.ellipticity_principal(v)))
    traj = propagate_trajectory(med, grid, e_in=e_in)
    np.testing.assert_allclose(traj.epsilon, want, rtol=0.0, atol=1e-12)


def test_grid_must_span_the_medium():
    grid = fs.PropagationGrid(100, 2.0 * DEMO.total_length_m)
    for run in (fs.total_matrix, propagate_trajectory):
        with pytest.raises(ValueError, match="does not cover"):
            run(DEMO, grid)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        fs.EllipticityTrajectory(
            np.array([0.0, 1.0]), np.array([0.0, 0.1, 0.2]), "principal", 0.0
        )
    with pytest.raises(ValueError):
        fs.EllipticityTrajectory(
            np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.1, 0.2]), "principal", 0.0
        )
    # np.diff gives [inf, nan] here, and nan <= 0 is false
    with pytest.raises(ValueError):
        fs.EllipticityTrajectory(
            np.array([0.0, np.inf, np.inf]), np.array([0.0, 0.1, 0.2]), "principal", 0.0
        )
    # and a NaN sample compares false with both neighbours
    with pytest.raises(ValueError, match="z samples must strictly increase"):
        fs.EllipticityTrajectory(
            np.array([0.0, np.nan, 1.0]), np.array([0.0, 0.1, 0.2]), "principal", 0.0
        )


@pytest.mark.parametrize("run", [total_matrix, propagate_trajectory])
def test_unknown_angle_rule_is_rejected(run):
    # a misspelled rule must not run the left rule
    with pytest.raises(ValueError, match="unknown angle rule 'Midpoint'"):
        run(DEMO, grid_for(DEMO, 8), angle_rule="Midpoint")


def test_unknown_metric_kind_is_rejected():
    # and a misspelled metric must not compute the principal one
    with pytest.raises(ValueError, match="unknown metric kind 'bogus'"):
        propagate_trajectory(DEMO, grid_for(DEMO, 8), metric_kind="bogus")


def test_trajectory_scan_matches_frozen_metrics(metrics_trajectory):
    """One-in-a-million-segment scan against the reference implementation."""
    g = _frozen.GOLDEN_METRICS_N1E6
    m = stability_metrics(metrics_trajectory)
    assert m.delta_eps_pp == pytest.approx(g["pp_settled"], rel=1e-9)
    assert m.rms_eps == pytest.approx(g["rms_settled"], rel=1e-8)
    assert m.mean_eps == pytest.approx(g["mean_settled"], rel=1e-9)
    eps = metrics_trajectory.epsilon
    assert np.nanmax(eps) - np.nanmin(eps) == pytest.approx(g["pp_full"], rel=1e-9)
    assert np.nanmax(metrics_trajectory.epsilon) == pytest.approx(g["peak"], rel=1e-9)
    assert conversion_length(metrics_trajectory) is None and g["conv_abs"] is None
    # the frozen relative-threshold crossing was located on a strided
    # subsample, so the full-grid crossing may precede it by one stride
    cr = conversion_length(metrics_trajectory, 0.95 * m.mean_eps)
    assert 0.0 <= g["conv_rel"] - cr <= 3.9e-5


def test_axis_ratio_metric_marks_undefined_samples():
    length = 0.02
    med = fs.SpunMediumSpec(length, (0.5 * math.pi) / length, fs.SpinProfile("constant", 0.0))
    traj = propagate_trajectory(
        med, grid_for(med, 64), e_in=fs.jones_vector(0.0, 1.0), metric_kind="axis_ratio"
    )
    assert np.all(np.isnan(traj.epsilon))
    with pytest.raises(NumericDomainError, match="fewer than two samples"):
        stability_metrics(traj)
    # the principal metric is defined for the same launch
    traj2 = propagate_trajectory(med, grid_for(med, 64), e_in=fs.jones_vector(0.0, 1.0))
    assert np.all(np.isfinite(traj2.epsilon))


def test_stability_metrics_skip_gap_samples():
    z = np.linspace(0.0, 1.0, 11)
    eps = np.linspace(0.2, 0.4, 11)
    eps[5] = np.nan
    clean = fs.EllipticityTrajectory(np.delete(z, 5), np.delete(eps, 5), "axis_ratio", 0.0)
    gappy = fs.EllipticityTrajectory(z, eps, "axis_ratio", 0.0)
    assert stability_metrics(gappy) == stability_metrics(clean)


def test_stability_window_selection():
    med = DEMO
    traj = propagate_trajectory(med, grid_for(med, 8192))
    assert stability_metrics(traj) == stability_metrics(
        traj, window=(med.settle_z_m, med.total_length_m)
    )
    full = stability_metrics(traj, window=(0.0, med.total_length_m))
    assert full.delta_eps_pp > stability_metrics(traj).delta_eps_pp
    with pytest.raises(NumericDomainError, match="fewer than two samples"):
        stability_metrics(traj, window=(2.0, 3.0))
    with pytest.raises(NumericDomainError, match="fewer than two samples"):
        stability_metrics(traj, window=(0.1, 0.1 + 1e-9))


def test_stability_metrics_match_analytic_ramp():
    z = np.linspace(0.0, 1.0, 200_001)
    traj = fs.EllipticityTrajectory(z, z.copy(), "principal", 0.0)
    m = stability_metrics(traj, window=(0.0, 1.0))
    assert m.mean_eps == pytest.approx(0.5, rel=1e-9)
    assert m.rms_eps == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-6)
    assert m.delta_eps_pp == pytest.approx(1.0, rel=1e-12)


def test_conversion_length_first_crossing():
    z = np.linspace(0.0, 1.0, 101)
    traj = fs.EllipticityTrajectory(z, z.copy(), "principal", 0.0)
    assert conversion_length(traj) == pytest.approx(0.95, abs=1e-12)
    assert conversion_length(traj, threshold=0.501) == pytest.approx(0.51, abs=1e-12)
    low = fs.EllipticityTrajectory(z, 0.5 * z, "principal", 0.0)
    assert conversion_length(low) is None


# ---- planning helpers ----


def test_estimate_segments_formula_and_floor():
    c = constant("segment_calibration_c")
    assert fs.estimate_segments(0.3, 1e-3) == math.ceil(c * 0.09 / 1e-3)
    assert fs.estimate_segments(1e-3, 0.5) == 64
    with pytest.raises(ValueError):
        fs.estimate_segments(0.0, 1e-3)
    # once numpy's "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="length must be positive"):
        fs.estimate_segments(math.nan, 1e-3)
    # once OverflowError from math.ceil(inf)
    with pytest.raises(ValueError, match="length must be positive and finite"):
        fs.estimate_segments(math.inf, 1e-3)
    # once OverflowError from the square of the length, and from math.ceil(inf)
    for length, eps in ((1e200, 1e-3), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="^segment estimate is not a finite float$"):
            fs.estimate_segments(length, eps)
    with pytest.raises(ValueError):
        fs.estimate_segments(0.3, 0.0)
    with pytest.raises(ValueError):
        fs.estimate_segments(0.3, 1.0)


def test_estimate_segments_honors_the_tolerance(demo_reference):
    eps = 1e-3
    n = fs.estimate_segments(DEMO.total_length_m, eps)
    dev = float(np.max(np.abs(total_matrix(DEMO, grid_for(DEMO, n)) - demo_reference)))
    assert dev <= eps


def test_fluctuation_bound_closed_forms():
    bound = _oracles.fluctuation_bound
    lin = fs.SpinProfile("linear", 20.0, 0.0, 0.5)
    cos = fs.SpinProfile("cosine", 20.0, 0.0, 0.5)
    assert bound(lin) == pytest.approx(800.0, rel=1e-15)
    assert bound(cos) == pytest.approx(400.0 * math.pi, rel=1e-15)
    assert bound(cos) > bound(lin)
    assert bound(fs.SpinProfile("constant", 20.0)) == 0.0
    # each closed form is max|dxi/dz| * xi_max of the profile's own rate law
    z = np.linspace(0.0, 0.6, 600_001)
    for prof in (lin, cos, fs.SpinProfile("cosine", 7.0, 0.05, 0.2)):
        slope = np.max(np.abs(np.gradient(_oracles.spin_rate(prof, z), z)))
        assert slope * prof.xi_max_rad_per_m == pytest.approx(bound(prof), rel=1e-6)
