import math

import numpy as np
import pytest

import focsim as fs

import _oracles

S = math.sqrt(0.5)


def test_rotator_convention():
    out = fs.rotator(math.pi / 2) @ np.array([1.0, 0.0], dtype=np.complex128)
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_rotator_composition_and_inverse():
    a, b = 0.37, -1.21
    assert np.allclose(fs.rotator(a) @ fs.rotator(b), fs.rotator(a + b), atol=1e-14)
    assert np.allclose(fs.rotator(a) @ fs.rotator(-a), np.eye(2), atol=1e-15)
    assert np.allclose(fs.rotator(a).T, fs.rotator(-a), atol=0)


def test_vector_and_matrix_constructors():
    v = fs.jones_vector(1.0, 1.0j)
    assert v.dtype == np.complex128 and v.shape == (2,)
    m = fs.rotator(0.2)
    assert m.dtype == np.complex128 and m.shape == (2, 2)


def test_apply_and_intensity():
    v = fs.jones_vector(3.0, 4.0j)
    assert _oracles.intensity(v) == pytest.approx(25.0, rel=1e-15)
    assert np.allclose(fs.rotator(0.0) @ v, v, atol=0)


def test_stokes_cardinal_states():
    h = _oracles.jones_to_stokes(fs.jones_vector(1.0, 0.0))
    assert np.allclose(h, [1, 1, 0, 0], atol=1e-15)
    v = _oracles.jones_to_stokes(fs.jones_vector(0.0, 1.0))
    assert np.allclose(v, [1, -1, 0, 0], atol=1e-15)
    diag = _oracles.jones_to_stokes(fs.jones_vector(S, S))
    assert np.allclose(diag, [1, 0, 1, 0], atol=1e-15)
    circ = _oracles.jones_to_stokes(fs.jones_vector(S, S * 1j))
    assert np.allclose(circ, [1, 0, 0, 1], atol=1e-15)


def test_ellipticity_principal_signed_range():
    assert _oracles.ellipticity_principal(fs.jones_vector(1.0, 1.0j)) == pytest.approx(1.0)
    assert _oracles.ellipticity_principal(fs.jones_vector(1.0, -1.0j)) == pytest.approx(-1.0)
    assert _oracles.ellipticity_principal(fs.jones_vector(1.0, 0.0)) == 0.0
    assert _oracles.ellipticity_principal(fs.jones_vector(1.0, 0.5j)) == pytest.approx(
        0.5, rel=1e-12
    )


def test_is_unitary():
    assert _oracles.is_unitary(fs.rotator(0.7))
    assert not _oracles.is_unitary(fs.polarizer())


def test_equal_up_to_phase():
    m = fs.rotator(0.3)
    assert _oracles.equal_up_to_phase(m, np.exp(0.45j) * m)
    assert not _oracles.equal_up_to_phase(m, fs.rotator(0.9))
