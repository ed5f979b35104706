"""Optical elements of the reflective current-sensor chain.

The sensor is a single-ended loop: polarizer, 45 degree splice, quarter-wave
plate, sensing coil, mirror, then the same elements in reverse. All element
constructors return plain Jones matrices; the chain assembly lives in
roundtrip_fields, which evaluates a converter pair at many Faraday angles,
one matmul per factor shared by many of them (a single angle f is
roundtrip_fields(pair, (f,))[0]).
The coil is always swept over a current grid (FaradayCoil.from_currents), so
detected_intensity has one path: arrays over the angles, NaN on fringe nulls.

roundtrip_fields ends with _clear_vector_state; its docstring says why.

Two conventions matter and are easy to get wrong:

* The Faraday rotation is non-reciprocal. After the mirror the field is
  rotated again in the same lab-frame sense, so the round trip accumulates
  2F. Modeling the return pass as the inverse rotation would cancel the
  effect and leave the detector blind to current.
* The quarter-wave plate of the deviation model is written in its own
  fast-axis frame. In the chain it sits with its axes at 45 degrees to the
  polarizer, which is exactly what turns the nominal plate into the
  circular-basis converter the printed ideal matrices describe. The return
  pass applies the element's complex conjugate, the lab-frame form of
  traversing the same reciprocal retarder after reflection.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .constants import constant
from .errors import NumericDomainError
from .jones import JonesMatrix, rotator

SQRT_HALF = math.sqrt(0.5)
FRINGE_FLOOR = 1e-15  # ideal intensity below this is a fringe null


def polarizer() -> JonesMatrix:
    """Horizontal linear polarizer, a projector onto x."""
    return np.array([[1, 0], [0, 0]], dtype=np.complex128)


def splice45_in() -> JonesMatrix:
    return SQRT_HALF * np.array([[1, 1], [-1, 1]], dtype=np.complex128)


def splice45_out() -> JonesMatrix:
    """Inverse of the inbound 45 degree splice (its transpose)."""
    return splice45_in().T.copy()


def qwp_ideal_in() -> JonesMatrix:
    return SQRT_HALF * np.array([[1, 1j], [1j, 1]], dtype=np.complex128)


def qwp_ideal_out() -> JonesMatrix:
    return SQRT_HALF * np.array([[1, -1j], [-1j, 1]], dtype=np.complex128)


@dataclass(frozen=True)
class ImperfectWaveplate:
    """Fabrication state of a discrete quarter-wave plate, the deviation
    model's two numbers: rho_rad is the actual retardation, beta_rad the
    splice (axis alignment) error. from_cut_deviation derives rho from
    material and geometry; the plate keeps only rho.
    """

    rho_rad: float
    beta_rad: float

    def __post_init__(self):
        # finite plate keys can still overflow the retardation or 2 beta
        if not (math.isfinite(self.rho_rad) and math.isfinite(2 * self.beta_rad)):
            raise NumericDomainError("plate retardation or splice angle is not finite")

    @classmethod
    def from_cut_deviation(
        cls, cut_deviation_m: float, splice_angle_rad: float = 0.0
    ) -> "ImperfectWaveplate":
        """Plate cut short or long of the nominal quarter-wave length.

        Material and wavelength come from the ambient build constants; only
        the two fabrication errors vary. rho = 2 pi delta_n d / lambda.
        """
        delta_n = float(constant("birefringence_delta_n"))
        cut_length_m = float(constant("plate_cut_length_m")) + cut_deviation_m
        wavelength_m = float(constant("wavelength_m"))
        return cls(2 * math.pi * delta_n * cut_length_m / wavelength_m, splice_angle_rad)

    @classmethod
    def nominal(cls) -> "ImperfectWaveplate":
        return cls(math.pi / 2, 0.0)

    def is_nominal(self) -> bool:
        return self.rho_rad == math.pi / 2 and self.beta_rad == 0.0


def qwp_imperfect(w: ImperfectWaveplate) -> JonesMatrix:
    """Deviation-model plate in its own fast-axis frame.

    Built from the sine/cosine form, which is algebraically identical to the
    printed tan form but stays finite at rho = pi.
    """
    return _plate_stack((w,))[0]


def _plate_stack(plates: Sequence[ImperfectWaveplate]) -> npt.NDArray[np.complex128]:
    """(P, 2, 2) stack of qwp_imperfect(w) for every plate w.

    The sines and cosines come from math.sin/math.cos per value, as in
    _rotator_stack; the complex sums and products are numpy's, which round
    as Python's scalar complex arithmetic does.
    """
    c = np.array([math.cos(w.rho_rad / 2) for w in plates])
    s = np.array([math.sin(w.rho_rad / 2) for w in plates])
    c2b = np.array([math.cos(2 * w.beta_rad) for w in plates])
    s2b = np.array([math.sin(2 * w.beta_rad) for w in plates])
    m = np.empty((len(plates), 2, 2), dtype=np.complex128)
    m[:, 0, 0] = c + 1j * s * c2b
    m[:, 0, 1] = m[:, 1, 0] = 1j * s * s2b
    m[:, 1, 1] = c - 1j * s * c2b
    return m


_EXP_ZEROS = np.zeros(8)


def _clear_vector_state() -> None:
    """End the slow vector state a complex product leaves.

    After a complex128 matmul (OpenBLAS zgemm), scalar float code runs
    several times slower until a numpy AVX-512 loop runs; likely cause: the
    AVX-512 complex kernels return without vzeroupper. Measured on a 2-vCPU
    AVX-512 Xeon (numpy 2.4.6, OpenBLAS 0.3.31): math.sin took 210-560 ns
    per call after a complex @ against 35-76 ns before, and libm pow 200-410
    ns per value against 15-31 ns; a float64 @ does not do this. np.exp over
    a few zeros ends it (math.sin back to 37-77 ns), where np.add, np.sqrt,
    np.cos, np.hypot, np.multiply and .copy() did not, or only partly. The
    exp runs on a private array, never on the chain's data, and costs about
    0.4 us where the state is already clean.
    """
    np.exp(_EXP_ZEROS)


def mount_at_45deg(element: JonesMatrix) -> JonesMatrix:
    """Place a fast-axis-frame element, or a (P, 2, 2) stack of them, with
    its axes at 45 degrees; a stack takes one 2x2 product per item either
    side, each slice equal to that element's own call."""
    return rotator(math.pi / 4) @ element @ rotator(-math.pi / 4)


def plate_converter_pairs(
    plates: Sequence[ImperfectWaveplate],
) -> tuple[npt.NDArray[np.complex128], npt.NDArray[np.complex128]]:
    """Forward and return converters of P plates, each stacked as (P, 2, 2).

    A plate is mounted at 45 degrees and returns through its complex
    conjugate. A nominal plate gives the printed ideal pair instead: its
    mounted matrix is off that pair by rounding, and the conjugate of
    qwp_ideal_in flips the sign of the zero imaginary parts of qwp_ideal_out.
    FrontEnd.converter_pair takes a plate's pair from here, so a plate in a
    stack gives the same bytes as on its own.
    """
    fwd = mount_at_45deg(_plate_stack(plates))
    ret = np.conj(fwd)
    nominal = [w.is_nominal() for w in plates]
    fwd[nominal], ret[nominal] = qwp_ideal_in(), qwp_ideal_out()
    return fwd, ret


@dataclass(frozen=True)
class FaradayCoil:
    """Sensing coil swept over currents: a 1-D array of Faraday angles, one
    per current (a single current is a one-element sweep)."""

    rotation_angle_f_rad: npt.NDArray[np.float64]

    def __post_init__(self):
        if np.ndim(self.rotation_angle_f_rad) != 1:
            raise ValueError("Faraday rotation must be a 1-D array of angles")
        # finite coil keys can still overflow verdet*turns*current
        if not np.isfinite(self.rotation_angle_f_rad).all():
            raise NumericDomainError("Faraday rotation is not finite")

    @classmethod
    def from_currents(cls, verdet_rad_per_amp_turn: float, turns: int, currents) -> "FaradayCoil":
        """The coil swept over a current grid, F = V N I at every current."""
        # an overflowed V*N times a 0 A current is nan; FaradayCoil reports it
        with np.errstate(over="ignore", invalid="ignore"):
            f = verdet_rad_per_amp_turn * turns * np.asarray(currents, dtype=np.float64)
        return cls(f)


@dataclass(frozen=True)
class IntensityResult:
    """Arrays over the coil's angles; behind P stacked converters i_out and
    relative_error_pct are (P, n), i_ideal (n,)."""

    i_out: npt.NDArray[np.float64]
    i_ideal: npt.NDArray[np.float64]
    relative_error_pct: npt.NDArray[np.float64]


def _rotator_stack(angles_rad: Sequence[float]) -> npt.NDArray[np.complex128]:
    """(n, 2, 2) stack of rotator(a) for every angle a.

    Built from math.cos/math.sin like rotator itself, so each slice is
    bit-identical to it; numpy's vectorized sin/cos may differ by an ulp.
    """
    c = np.array([math.cos(a) for a in angles_rad], dtype=np.float64)
    s = np.array([math.sin(a) for a in angles_rad], dtype=np.float64)
    m = np.empty((len(c), 2, 2), dtype=np.complex128)
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1] = -s
    m[:, 1, 0] = s
    return m


def roundtrip_fields(
    converter: tuple[JonesMatrix, JonesMatrix], f_rad: Sequence[float]
) -> npt.NDArray[np.complex128]:
    """Detector fields, shape (n, 2), for one converter at n Faraday angles.

    The chain polarizer @ splice45_out @ q_out @ r @ r @ q_in @ splice45_in
    is multiplied left to right with every 2x2 product of a single pass, but
    each factor shared by many items is applied in one matmul over those
    items side by side: P plates at n angles take 2P + n + 3 BLAS calls. A
    converter pair stacked as (P, 1, 2, 2) gives fields (P, n, 2), each
    slice equal to that converter's own call. The inbound polarizer passes
    the unit launch field (1, 0) unchanged, so the detector field is the
    first column of the rest of the chain.
    """
    q_in, q_out = converter
    r = _rotator_stack(f_rad)
    n = len(r)
    # no mirror factor: it is the identity in this lab-frame convention, and
    # the non-reciprocal return rotation has the same sense as the inbound one
    # polarizer @ splice45_out once, @ q_out: one 2x2 product per plate
    a = (polarizer() @ splice45_out() @ q_out).reshape(-1, 2, 2)
    p = len(a)
    # [a_1; ...; a_P] @ [r_1 ... r_n]: one (2P, 2n) product in all
    m = a.reshape(2 * p, 2) @ r.transpose(1, 0, 2).reshape(2, 2 * n)
    # @ r_k: one (2P, 2) product per angle, the plates' rows stacked
    m = m.reshape(p, 2, n, 2).transpose(2, 0, 1, 3).reshape(n, 2 * p, 2) @ r
    # @ q_in: one (2n, 2) product per plate; @ splice45_in: one in all
    m = m.reshape(n, p, 2, 2).swapaxes(0, 1).reshape(p, 2 * n, 2) @ np.reshape(q_in, (-1, 2, 2))
    m = m.reshape(-1, 2) @ splice45_in()
    _clear_vector_state()
    return m.reshape(np.shape(q_in)[:-3] + (n, 2, 2))[..., 0]


def _intensities(fields: npt.NDArray[np.complex128]) -> npt.NDArray[np.float64]:
    """abs(ex) ** 2 + abs(ey) ** 2 of every field, bit for bit as Python
    computes it per value.

    np.hypot is the libm call Python's complex abs makes, and numpy's
    float64 float_power loop calls libm pow per value as Python's ** does;
    np.power, np.square and x * x differ from pow on about 0.09% of values.
    An intensity that overflows from finite fields raises
    NumericDomainError; inf and NaN fields give inf and NaN.
    """
    try:
        with np.errstate(over="raise"):
            p = np.float_power(np.hypot(fields.real, fields.imag), 2.0)
            # two slices, not .sum(axis=-1): a reduce over a 2-long axis is slower
            return p[..., 0] + p[..., 1]
    except FloatingPointError:
        raise NumericDomainError("detected intensity overflows") from None


def detected_intensity(
    coil: FaradayCoil, converter: tuple[JonesMatrix, JonesMatrix]
) -> IntensityResult:
    """Detected intensity and its relative error against the numeric ideal chain.

    converter is a (forward, return) pair, as FrontEnd.converter_pair()
    gives; the reference is the chain behind the printed pair
    (qwp_ideal_in(), qwp_ideal_out()). Every field of the result is an
    array over the coil's angles, and fringe-null rows hold NaN in i_out
    and relative_error_pct. A converter pair stacked as (P, 1, 2, 2) gives
    (P, n) arrays of those two against one evaluation of the ideal chain.
    """
    f = coil.rotation_angle_f_rad
    i_out = _intensities(roundtrip_fields(converter, f))
    i_ideal = _intensities(roundtrip_fields((qwp_ideal_in(), qwp_ideal_out()), f))
    null = i_ideal < FRINGE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        err = (i_out - i_ideal) / i_ideal * 100.0
    i_out[..., null] = np.nan
    err[..., null] = np.nan
    return IntensityResult(i_out=i_out, i_ideal=i_ideal, relative_error_pct=err)
