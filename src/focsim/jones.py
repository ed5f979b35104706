"""Jones vectors and the rotator.

Jones vectors are length-2 complex ndarrays, Jones matrices 2x2 complex
ndarrays in row-major layout: m[0, 0] couples the x input to the x output.
Everything here is a pure function over immutable values; nothing mutates
its arguments.

rotator(theta) rotates the field counterclockwise when viewed against the
propagation direction, so rotator(pi/2) @ [1, 0] = [0, 1].
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

JonesVector = npt.NDArray[np.complex128]
JonesMatrix = npt.NDArray[np.complex128]


def jones_vector(ex: complex, ey: complex) -> JonesVector:
    return np.array([ex, ey], dtype=np.complex128)


def rotator(theta: float) -> JonesMatrix:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)
