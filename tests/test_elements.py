import math

import numpy as np
import pytest

import focsim as fs
from focsim.elements import FRINGE_FLOOR, _intensities, plate_converter_pairs, roundtrip_fields
from focsim.errors import NumericDomainError

import _frozen
import _oracles

S = math.sqrt(2) / 2


def test_printed_matrices():
    assert np.array_equal(fs.polarizer(), [[1, 0], [0, 0]])
    assert np.allclose(fs.splice45_in(), [[S, S], [-S, S]], atol=1e-16)
    assert np.array_equal(fs.splice45_out(), fs.splice45_in().T)
    assert np.allclose(fs.qwp_ideal_in(), [[S, S * 1j], [S * 1j, S]], atol=1e-16)
    assert np.array_equal(fs.qwp_ideal_out(), np.conj(fs.qwp_ideal_in()))


def test_faraday_pair():
    f = 0.83
    assert np.allclose(fs.rotator(f) @ fs.rotator(-f), np.eye(2), atol=1e-15)
    out = fs.rotator(math.pi / 2) @ fs.jones_vector(1.0, 0.0)
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_imperfect_plate_printed_column():
    rho, beta = 1.234, 0.21
    w = fs.qwp_imperfect(fs.ImperfectWaveplate(rho, beta))
    col = w @ fs.jones_vector(1.0, 0.0)
    want = [
        math.cos(rho / 2) + 1j * math.sin(rho / 2) * math.cos(2 * beta),
        1j * math.sin(rho / 2) * math.sin(2 * beta),
    ]
    assert np.allclose(col, want, atol=1e-15)


def test_imperfect_plate_tan_form():
    w = fs.ImperfectWaveplate(2.0, 0.4)
    assert np.allclose(_oracles.qwp_imperfect_tan(w), fs.qwp_imperfect(w), atol=1e-12)
    # the sine/cosine form stays finite where tan(rho/2) diverges
    for rho in (math.pi, 3 * math.pi, -math.pi):
        assert _oracles.is_unitary(fs.qwp_imperfect(fs.ImperfectWaveplate(rho, 0.3)))


def _scalar_plate(rho: float, beta: float) -> np.ndarray:
    """The sine/cosine plate in Python's scalar complex arithmetic."""
    c, s = math.cos(rho / 2), math.sin(rho / 2)
    c2b, s2b = math.cos(2 * beta), math.sin(2 * beta)
    return np.array(
        [[c + 1j * s * c2b, 1j * s * s2b], [1j * s * s2b, c - 1j * s * c2b]],
        dtype=np.complex128,
    )


def test_plates_round_as_python_scalar_arithmetic():
    """qwp_imperfect, and every slice of a stacked plate build, holds the
    bytes of the same formula evaluated one Python complex at a time,
    signed zeros included; so does the stack mounted at 45 degrees."""
    from focsim.elements import plate_converter_pairs

    rng = np.random.default_rng(7)
    edge = (0.0, -0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e-300, -1e-300, 1e300)
    rhos = [*edge, *rng.uniform(-10, 10, 12)]
    betas = [*edge[:-1], math.pi / 4, *rng.uniform(-1, 1, 6)]
    pairs = [(rho, beta) for rho in rhos for beta in betas]
    plates = [fs.ImperfectWaveplate(rho, beta) for rho, beta in pairs]
    fwd, ret = plate_converter_pairs(plates)
    mount = (fs.rotator(math.pi / 4), fs.rotator(-math.pi / 4))
    for i, (plate, (rho, beta)) in enumerate(zip(plates, pairs)):
        want = _scalar_plate(rho, beta)
        assert fs.qwp_imperfect(plate).tobytes() == want.tobytes(), (rho, beta)
        if not plate.is_nominal():
            mounted = mount[0] @ want @ mount[1]
            assert fwd[i].tobytes() == mounted.tobytes(), (rho, beta)
            assert ret[i].tobytes() == np.conj(mounted).tobytes(), (rho, beta)


def test_mounted_nominal_plate_is_ideal():
    mounted = fs.mount_at_45deg(fs.qwp_imperfect(fs.ImperfectWaveplate.nominal()))
    assert np.max(np.abs(mounted - fs.qwp_ideal_in())) < 1e-15


def test_waveplate_physical_consistency():
    # rho = 2 pi delta_n d / lambda in that order, bit for bit, d the deviated cut
    dn, lam = fs.constant("birefringence_delta_n"), fs.constant("wavelength_m")
    for dev in (0.0, 3e-4, -1e-5):
        d = fs.constant("plate_cut_length_m") + dev
        assert fs.ImperfectWaveplate.from_cut_deviation(dev).rho_rad == 2 * math.pi * dn * d / lam


def test_waveplate_from_cut_deviation():
    w0 = fs.ImperfectWaveplate.from_cut_deviation(0.0)
    assert abs(w0.rho_rad - math.pi / 2) < 1e-12
    assert fs.constant("plate_cut_length_m") == pytest.approx(_frozen.PLATE_CUT_NOMINAL_M, rel=1e-12)
    w = fs.ImperfectWaveplate.from_cut_deviation(5e-4, math.radians(2))
    assert w.rho_rad > w0.rho_rad
    assert w.beta_rad == math.radians(2)


def test_coil_construction():
    coil = fs.FaradayCoil.from_currents(1e-6, 355, (2000.0,))
    assert coil.rotation_angle_f_rad[0] == pytest.approx(_frozen.F_AT_2000A, rel=1e-12)
    # the coil is always swept: a bare angle is not a coil
    for f in (0.5, np.array(0.5), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="1-D"):
            fs.FaradayCoil(f)


def test_ideal_roundtrip_closed_form():
    pair = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    for f in (0.0, 0.1, 0.35, 0.71, 1.2):
        got = _oracles.intensity(roundtrip_fields(pair, (f,))[0])
        assert got == pytest.approx(_oracles.ideal_intensity(f), abs=1e-12)


def _closed_form_angles(rng):
    """Seven Faraday angles, one of them the fringe null at F = pi/4."""
    return fs.FaradayCoil(np.append(rng.uniform(-math.pi, math.pi, 6), math.pi / 4))


def _off_null(r, want):
    keep = ~np.isnan(r.i_out)
    assert keep.sum(axis=-1).tolist() == [6] * len(want)
    return r.i_out[keep], want[keep]


def test_plate_intensity_closed_form():
    # a plate returns through its complex conjugate
    rng = np.random.default_rng(21)
    plates = [
        fs.ImperfectWaveplate(rho, beta)
        for rho, beta in zip(rng.uniform(0.0, 2 * math.pi, 200), rng.uniform(-math.pi, math.pi, 200))
    ]
    coil = _closed_form_angles(rng)
    fwd, ret = plate_converter_pairs(plates)
    r = fs.detected_intensity(coil, (fwd[:, np.newaxis], ret[:, np.newaxis]))
    want = np.array([_oracles.plate_intensity(w, coil.rotation_angle_f_rad) for w in plates])
    got, want = _off_null(r, want)
    assert np.max(np.abs(got - want)) < 1e-13


def test_medium_intensity_closed_form():
    # a medium U = [[a, -conj(b)], [b, conj(a)]] returns through its transpose
    rng = np.random.default_rng(22)
    v = rng.normal(size=(200, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a, b = v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]
    u = np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)
    coil = _closed_form_angles(rng)
    r = fs.detected_intensity(coil, (u[:, np.newaxis], u.transpose(0, 2, 1)[:, np.newaxis]))
    want = np.array([_oracles.medium_intensity(m, coil.rotation_angle_f_rad) for m in u])
    got, want = _off_null(r, want)
    assert np.max(np.abs(got - want)) < 1e-13


def test_detected_intensity_frozen_example():
    w = fs.ImperfectWaveplate(math.pi / 2, math.radians(1))
    r = fs.detected_intensity(
        fs.FaradayCoil(np.array([0.1])), fs.front_end_imperfect(w).converter_pair()
    )
    assert r.i_out[0] == pytest.approx(_frozen.DETECTED_EXAMPLE["i_out"], rel=1e-12)
    assert r.i_ideal[0] == pytest.approx(_frozen.DETECTED_EXAMPLE["i_ideal"], rel=1e-12)
    assert r.relative_error_pct[0] == pytest.approx(
        _frozen.DETECTED_EXAMPLE["err_pct"], abs=1e-9
    )


def test_detected_intensity_nominal_plate_error_vanishes():
    w = fs.ImperfectWaveplate.nominal()
    coil = fs.FaradayCoil(np.array([0.3]))
    r = fs.detected_intensity(coil, fs.front_end_imperfect(w).converter_pair())
    assert abs(r.relative_error_pct[0]) < 1e-12


def test_fringe_null_row_is_nan():
    pair = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    r = fs.detected_intensity(fs.FaradayCoil(np.array([math.pi / 4])), pair)
    assert math.isnan(r.i_out[0]) and math.isnan(r.relative_error_pct[0])
    assert r.i_ideal[0] < 1e-15


def test_swept_coil_matches_single_angles():
    pair = fs.front_end_imperfect(fs.ImperfectWaveplate(1.45, 0.02)).converter_pair()
    f = np.array([0.0, 0.1, math.pi / 4, 0.6, 1.2])
    r = fs.detected_intensity(fs.FaradayCoil(f), pair)
    for k, fk in enumerate(f):
        one = fs.detected_intensity(fs.FaradayCoil(f[k : k + 1]), pair)
        for got, want in ((r.i_out, one.i_out), (r.i_ideal, one.i_ideal),
                          (r.relative_error_pct, one.relative_error_pct)):
            assert np.array_equal(got[k : k + 1], want, equal_nan=True), fk
    assert math.isnan(r.i_out[2]) and math.isnan(r.relative_error_pct[2])  # pi/4 is a null
    # P stacked converters: each (P, n) row is that converter's own swept call
    plates = [fs.ImperfectWaveplate(1.45, 0.02), fs.ImperfectWaveplate.nominal(),
              fs.ImperfectWaveplate(2.0, -0.3)]
    pairs = [fs.front_end_imperfect(w).converter_pair() for w in plates]
    stacked = tuple(np.stack(m)[:, np.newaxis] for m in zip(*pairs))
    rs = fs.detected_intensity(fs.FaradayCoil(f), stacked)
    assert rs.i_out.shape == rs.relative_error_pct.shape == (3, len(f))
    for p, pair in enumerate(pairs):
        one = fs.detected_intensity(fs.FaradayCoil(f), pair)
        assert np.array_equal(rs.i_out[p], one.i_out, equal_nan=True)
        assert np.array_equal(rs.i_ideal, one.i_ideal)
        assert np.array_equal(rs.relative_error_pct[p], one.relative_error_pct, equal_nan=True)
        assert np.array_equal(roundtrip_fields(stacked, f)[p], roundtrip_fields(pair, f))


def test_ideal_row_matches_a_separate_ideal_chain():
    # the printed pair rides as the last stacked converter; every field must
    # equal separate evaluations of the converter and of the ideal chain
    rng = np.random.default_rng(33)
    f201 = np.linspace(0.0, 0.7, 201)
    f201[57] = math.pi / 4  # a fringe null
    ideal = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    plates = [fs.ImperfectWaveplate(rng.uniform(0.5, 2.6), rng.uniform(-0.4, 0.4))
              for _ in range(63)] + [fs.ImperfectWaveplate.nominal()]
    pairs = [fs.front_end_imperfect(w).converter_pair() for w in plates]
    bare = pairs[0]
    one, stack64 = (tuple(np.stack(m)[:, np.newaxis] for m in zip(*ps)) for ps in (pairs[:1], pairs))
    for converter, shape in ((bare, ()), (one, (1,)), (stack64, (64,))):
        for f in (f201, np.array([math.pi / 4]), np.array([])):
            r = fs.detected_intensity(fs.FaradayCoil(f), converter)
            i_ideal = _intensities(roundtrip_fields(ideal, f))
            i_out = _intensities(roundtrip_fields(converter, f))
            with np.errstate(divide="ignore", invalid="ignore"):
                err = (i_out - i_ideal) / i_ideal * 100.0
            null = i_ideal < FRINGE_FLOOR
            i_out[..., null] = err[..., null] = np.nan
            assert r.i_out.shape == r.relative_error_pct.shape == shape + (len(f),)
            assert np.array_equal(r.i_ideal, i_ideal)
            assert np.array_equal(r.i_out, i_out, equal_nan=True), (shape, len(f))
            assert np.array_equal(r.relative_error_pct, err, equal_nan=True), (shape, len(f))
            assert null.any() == (len(f) > 0)
            if shape:  # each stacked row is that converter's own call
                for p in range(shape[0]):
                    own = fs.detected_intensity(fs.FaradayCoil(f), pairs[p])
                    assert np.array_equal(r.i_out[p], own.i_out, equal_nan=True)
                    assert np.array_equal(r.relative_error_pct[p], own.relative_error_pct,
                                          equal_nan=True)
                    assert np.array_equal(r.i_ideal, own.i_ideal)


def _oracle_fields(q_in, q_out, f):
    """Detector fields of one converter, one typed-in 2x2 chain per angle."""
    pol = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    s_in = S * np.array([[1, 1], [-1, 1]], dtype=np.complex128)
    s_out = S * np.array([[1, -1], [1, 1]], dtype=np.complex128)
    out = []
    for a in f:
        r = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]], dtype=np.complex128)
        chain = pol @ s_out
        chain = chain @ q_out
        chain = chain @ r
        chain = chain @ r
        chain = chain @ q_in
        chain = chain @ s_in
        out.append(chain[:, 0])
    return np.array(out, dtype=np.complex128).reshape(len(f), 2)


def test_stacked_fields_match_a_per_item_oracle():
    rng = np.random.default_rng(7)
    f201 = np.linspace(0.0, 0.7, 201)
    f201[57] = math.pi / 4  # a fringe null
    for p_count in (1, 3, 64):
        plates = [fs.ImperfectWaveplate(rng.uniform(0.5, 2.6), rng.uniform(-0.4, 0.4))
                  for _ in range(p_count - 1)] + [fs.ImperfectWaveplate.nominal()]
        pairs = [fs.front_end_imperfect(w).converter_pair() for w in plates]
        stacked = tuple(np.stack(m)[:, np.newaxis] for m in zip(*pairs))
        for f in (np.array([]), np.array([math.pi / 4]), f201):
            got = roundtrip_fields(stacked, f)
            assert got.shape == (p_count, len(f), 2)
            for p, (q_in, q_out) in enumerate(pairs):
                want = _oracle_fields(q_in, q_out, f)
                ex, want_ex = got[p, :, 0], want[:, 0]
                assert np.array_equal(ex, want_ex), (p_count, len(f), p)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(ex)), np.signbit(part(want_ex)))
                assert np.all(got[p, :, 1] == 0)


def _fields(parts):
    """(..., 2) complex fields from (..., 4) parts re ex, im ex, re ey, im ey,
    set part by part so that no infinity turns into NaN on the way."""
    out = np.empty(parts.shape[:-1] + (2,), dtype=np.complex128)
    out.real, out.imag = parts[..., 0::2], parts[..., 1::2]
    return out


def _assert_intensities_match_python(fields):
    """_intensities against Python's abs(ex) ** 2 + abs(ey) ** 2 per field."""
    got = _intensities(fields)
    want = np.array(
        [abs(complex(ex)) ** 2 + abs(complex(ey)) ** 2 for ex, ey in fields.reshape(-1, 2).tolist()],
        dtype=np.float64,
    ).reshape(fields.shape[:-1])
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # Python's complex abs maps every NaN to its own NaN, so a NaN's sign is
    # not the oracle's; every other sign bit must match
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))


def test_intensities_match_python_per_field():
    rng = np.random.default_rng(16)
    # general fields: each part of ex and ey log-uniform in 1e-150..1e150, either sign
    parts = 10.0 ** rng.uniform(-150, 150, (1 << 17, 4)) * rng.choice((-1.0, 1.0), (1 << 17, 4))
    _assert_intensities_match_python(_fields(parts).reshape(-1, 512, 2))
    # order-one fields, where pow and x * x differ most often in the last bit
    parts = rng.uniform(-1.5, 1.5, (1 << 15, 4))
    _assert_intensities_match_python(_fields(parts))
    # edge values in every part: signed zeros, NaN, infinities, subnormals
    edge = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -2.5,
                     1e150, -1e-150, 5e-324, 6e153])  # four parts of 6e153 still sum below max
    grid = np.stack(np.meshgrid(edge, edge, edge, edge, indexing="ij"), -1).reshape(-1, 4)
    _assert_intensities_match_python(_fields(grid))
    # chain fields, whose ey is a signed zero, behind stacked seeded plates
    plates = [fs.ImperfectWaveplate(rng.uniform(0.3, 2.8), rng.uniform(-0.5, 0.5))
              for _ in range(7)] + [fs.ImperfectWaveplate.nominal()]
    pairs = [fs.front_end_imperfect(w).converter_pair() for w in plates]
    stacked = tuple(np.stack(m)[:, np.newaxis] for m in zip(*pairs))
    f = np.linspace(-1.0, 1.0, 201)
    f[[3, 100]] = (-math.pi / 4, math.pi / 4)  # fringe nulls
    _assert_intensities_match_python(roundtrip_fields(stacked, f))
    _assert_intensities_match_python(roundtrip_fields((fs.qwp_ideal_in(), fs.qwp_ideal_out()), f))


def test_overflowing_intensity_raises_numeric_domain_error():
    big = np.full((2, 2), 1e200, dtype=np.complex128)  # finite fields near 1e200
    coil = fs.FaradayCoil(np.array([0.0, 0.3]))
    with pytest.raises(NumericDomainError, match="overflows"):
        fs.detected_intensity(coil, (big, np.eye(2, dtype=np.complex128)))
    # |ex| ** 2 overflows, or the sum of two finite squares does
    for field in ([1.4e154 + 0j, 0j], [1e154 + 1e154j, 0j], [1.2e154 + 0j, -1.2e154j]):
        with pytest.raises(NumericDomainError):
            _intensities(np.array([field]))
    # non-finite fields are not an overflow: they give inf and NaN as before
    with np.errstate(all="raise"):
        got = _intensities(np.array([[complex(np.inf, 1.0), 0j], [complex(np.nan, 0.0), 1j],
                                     [complex(np.nan, -np.inf), 0j]]))
    assert got[0] == np.inf and math.isnan(got[1]) and got[2] == np.inf


def test_scenario_converter_used():
    coil = fs.FaradayCoil(np.array([0.2]))
    pair = (fs.qwp_ideal_in(), fs.qwp_ideal_out())
    assert fs.detected_intensity(coil, pair).relative_error_pct[0] == 0.0
    fwd = fs.mount_at_45deg(fs.qwp_imperfect(fs.ImperfectWaveplate(1.45, 0.02)))
    assert fs.detected_intensity(coil, (fwd, np.conj(fwd))).relative_error_pct[0] != 0.0
