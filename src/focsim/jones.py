"""Complex 2x2 polarization algebra.

Jones vectors are length-2 complex ndarrays, Jones matrices 2x2 complex
ndarrays in row-major layout: m[0, 0] couples the x input to the x output.
Everything here is a pure function over immutable values; nothing mutates
its arguments.

Sign conventions, fixed once and used everywhere:

* rotator(theta) rotates the field counterclockwise when viewed against the
  propagation direction, so rotator(pi/2) @ [1, 0] = [0, 1].
* s3 = -2 Im(ex conj(ey)); the circular state (1, i)/sqrt(2) has s3 = +1.
* Signed principal-frame ellipticity is tan(chi) with sin(2chi) = s3/s0,
  positive for that same circular state.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

from .errors import DegenerateInputError

JonesVector = npt.NDArray[np.complex128]
JonesMatrix = npt.NDArray[np.complex128]
StokesVector = npt.NDArray[np.float64]

IDENTITY: JonesMatrix = np.eye(2, dtype=np.complex128)


def jones_vector(ex: complex, ey: complex) -> JonesVector:
    return np.array([ex, ey], dtype=np.complex128)


def jones_matrix(rows) -> JonesMatrix:
    m = np.asarray(rows, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("a Jones matrix is 2x2")
    return m


def apply(m: JonesMatrix, v: JonesVector) -> JonesVector:
    return m @ v


def intensity(v: JonesVector) -> float:
    return float(abs(v[0]) ** 2 + abs(v[1]) ** 2)


def normalize(v: JonesVector) -> JonesVector:
    n = math.sqrt(intensity(v))
    if n == 0.0:
        raise DegenerateInputError("cannot normalize the zero field")
    return v / n


def rotator(theta: float) -> JonesMatrix:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def jones_to_stokes(v: JonesVector) -> StokesVector:
    ex, ey = complex(v[0]), complex(v[1])
    cross = ex * ey.conjugate()
    return np.array(
        [
            abs(ex) ** 2 + abs(ey) ** 2,
            abs(ex) ** 2 - abs(ey) ** 2,
            2.0 * cross.real,
            -2.0 * cross.imag,
        ],
        dtype=np.float64,
    )


def ellipticity_axis_ratio(v: JonesVector) -> float:
    """|ey| / |ex|, the literal coordinate-frame axis ratio.

    Only equals the minor-to-major axis ratio of the polarization ellipse
    when the ellipse axes align with x and y; see ellipticity_principal for
    the frame-independent quantity. Not clamped to [0, 1].
    """
    ax = abs(complex(v[0]))
    if ax < 1e-300:
        raise DegenerateInputError("|ex| too small for the axis-ratio formula")
    return abs(complex(v[1])) / ax


def ellipticity_principal(v: JonesVector) -> float:
    """Signed ellipticity tan(chi) in the ellipse's own principal frame.

    chi is the ellipticity angle on the Poincare sphere, sin(2chi) = s3/s0.
    The result lies in [-1, 1]; its magnitude is the minor-to-major axis
    ratio regardless of how the ellipse is oriented, and the sign encodes
    handedness under the documented s3 convention.
    """
    s = jones_to_stokes(v)
    if s[0] <= 0.0:
        raise DegenerateInputError("zero field has no ellipticity")
    ratio = min(1.0, max(-1.0, s[3] / s[0]))
    return math.tan(0.5 * math.asin(ratio))


def is_unitary(m: JonesMatrix, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(m.conj().T @ m - IDENTITY)) < tol)


def equal_up_to_phase(a: JonesMatrix, b: JonesMatrix, tol: float = 1e-12) -> bool:
    """Projective equality: |tr(a^H b)| / 2 = 1 within tol.

    Jones matrices that differ only by a global phase act identically on
    every measurable intensity, so tests compare them this way instead of
    entrywise.
    """
    na = math.sqrt(float(np.sum(np.abs(a) ** 2)) / 2.0)
    nb = math.sqrt(float(np.sum(np.abs(b) ** 2)) / 2.0)
    if na == 0.0 or nb == 0.0:
        return na == nb
    return abs(abs(complex(np.trace(a.conj().T @ b))) / (2.0 * na * nb) - 1.0) < tol
