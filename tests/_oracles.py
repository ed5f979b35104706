"""Reference formulas the tests compare focsim against, kept outside the
library under test: Stokes and ellipticity algebra, unitarity and
projective equality, the paper's printed tan-form plate, the nominal
chain's closed form, the detected intensity behind a plate and behind a
medium, the spin rate and fluctuation driver of each profile kind, one
segment's matrix from scalar math calls, the complex pairwise tree of a
grid's segments, the real operands of 2 x 2 complex products laid out by
strided copies, the exact segment product of a uniformly spun medium, and
a table's content read back from its JSON text.

The two intensity forms follow the chain's two return-pass conventions: a
plate returns through its complex conjugate, a medium through its
transpose (Jones reciprocity in a fixed lab basis; Potton, Rep. Prog.
Phys. 67, 2004).

Sign conventions: s3 = -2 Im(ex conj(ey)), so the circular state
(1, i)/sqrt(2) has s3 = +1; the signed principal-frame ellipticity is
tan(chi) with sin(2chi) = s3/s0, positive for that same circular state.
"""

import json
import math

import numpy as np


def intensity(v) -> float:
    return float(abs(v[0]) ** 2 + abs(v[1]) ** 2)


def jones_to_stokes(v):
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


def ellipticity_principal(v) -> float:
    """Signed ellipticity tan(chi) in the ellipse's own principal frame.

    The result lies in [-1, 1]; its magnitude is the minor-to-major axis
    ratio regardless of how the ellipse is oriented.
    """
    s = jones_to_stokes(v)
    if s[0] <= 0.0:
        raise ValueError("zero field has no ellipticity")
    ratio = min(1.0, max(-1.0, s[3] / s[0]))
    return math.tan(0.5 * math.asin(ratio))


def is_unitary(m, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(2))) < tol)


def equal_up_to_phase(a, b, tol: float = 1e-12) -> bool:
    """Projective equality: |tr(a^H b)| / 2 = 1 within tol.

    Jones matrices that differ only by a global phase act identically on
    every measurable intensity.
    """
    na = math.sqrt(float(np.sum(np.abs(a) ** 2)) / 2.0)
    nb = math.sqrt(float(np.sum(np.abs(b) ** 2)) / 2.0)
    if na == 0.0 or nb == 0.0:
        return na == nb
    return abs(abs(complex(np.trace(a.conj().T @ b))) / (2.0 * na * nb) - 1.0) < tol


def qwp_imperfect_tan(w):
    """The paper's printed tan-form plate; diverges at rho = pi mod 2 pi."""
    c = math.cos(w.rho_rad / 2)
    t = math.tan(w.rho_rad / 2)
    c2b = math.cos(2 * w.beta_rad)
    s2b = math.sin(2 * w.beta_rad)
    return c * np.array(
        [
            [1 + 1j * t * c2b, 1j * t * s2b],
            [1j * t * s2b, 1 - 1j * t * c2b],
        ],
        dtype=np.complex128,
    )


def ideal_intensity(f_rad: float) -> float:
    """Closed form for the nominal chain at unit input, (1 + cos 4F) / 2."""
    return 0.5 * (1.0 + math.cos(4 * f_rad))


def spin_rate(profile, z):
    """xi at position z (rad/m) of a focsim SpinProfile, for scalars or arrays."""
    z = np.asarray(z, dtype=np.float64)
    if profile.kind == "constant":
        out = np.full_like(z, profile.xi_max_rad_per_m)
    else:
        u = np.clip((z - profile.lead_in_l1_m) / profile.transition_l2_m, 0.0, 1.0)
        if profile.kind == "linear":
            out = profile.xi_max_rad_per_m * u
        else:
            out = profile.xi_max_rad_per_m * (0.5 - 0.5 * np.cos(np.pi * u))
    return out if out.ndim else float(out)


def fluctuation_bound(profile) -> float:
    """Fluctuation driver max|dxi/dz| * xi_max of a focsim SpinProfile.

    A correlation driver, not an absolute bound; the proportionality
    constant is unknown.
    """
    xm = profile.xi_max_rad_per_m
    if profile.kind == "linear":
        return xm * xm / profile.transition_l2_m
    if profile.kind == "cosine":
        return math.pi * xm * xm / (2.0 * profile.transition_l2_m)
    return 0.0  # constant


def segment_matrix(delta_rad_per_m: float, theta_rad: float, dz_m: float):
    """One segment, R(theta) diag(e^{+i delta dz / 2}, e^{-i delta dz / 2})
    R(-theta), written out with scalar math calls."""
    if dz_m <= 0.0:
        raise ValueError("segment length must be positive")
    half = 0.5 * delta_rad_per_m * dz_m
    ep = complex(math.cos(half), math.sin(half))
    em = ep.conjugate()
    c, s = math.cos(theta_rad), math.sin(theta_rad)
    return np.array(
        [
            [ep * c * c + em * s * s, (ep - em) * c * s],
            [(ep - em) * c * s, ep * s * s + em * c * c],
        ],
        dtype=np.complex128,
    )


def complex_tree_product(alpha, beta):
    """m[-1] ... m[1] m[0] of the segment matrices m[k] = [[alpha[k],
    beta[k]], [beta[k], conj(alpha[k])]], as a pairwise tree of complex
    np.matmul calls: one zgemm per 2 x 2 item, the grouping and rounding
    focsim's total_matrix must keep bit for bit over the whole grid."""
    m = np.empty((len(alpha), 2, 2), dtype=np.complex128)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = alpha, beta, beta, alpha.conj()
    while len(m) > 1:
        half = len(m) // 2
        paired = np.matmul(m[1 : 2 * half : 2], m[0 : 2 * half : 2])
        m = np.concatenate([paired, m[-1:]]) if len(m) % 2 else paired
    return m[0]


def pair_operands(a, b):
    """float64 operands whose stacked matmul, viewed as complex128, is a[j] @
    b[j] for stacks of 2 x 2 complex matrices, built by strided copies: row
    i of the (k, 2, 4) left operand holds the floats of (i a)_i, and the
    rows of the (k, 4, 4) right operand those of (-i b)_0, b_0, (-i b)_1,
    b_1, the layout whose dgemm rounds as OpenBLAS's zgemm."""
    af, bf = a.view(np.float64), b.view(np.float64)
    left = np.empty(af.shape)
    left[..., 0::2] = -af[..., 1::2]
    left[..., 1::2] = af[..., 0::2]
    right = np.empty((len(b), 4, 4))
    right[:, 1::2] = bf
    right[:, 0::2, 0::2] = bf[..., 1::2]
    right[:, 0::2, 1::2] = -bf[..., 0::2]
    return left, right


def uniform_spin_product(delta_rad_per_m: float, xi_rad_per_m: float, length_m: float, n: int):
    """J_N ... J_1 of n segments of a medium spun at the constant rate xi, in
    long double: with theta_k = xi (k - 1) dz at each segment's left end,
    R(-theta_{k+1}) R(theta_k) = R(-xi dz) and theta_1 = 0, so the product
    is R(theta_N) (D R(-xi dz))^(N-1) D, and the power is taken by repeated
    squaring."""
    ld = np.longdouble
    dz = ld(length_m) / n
    half = ld(delta_rad_per_m) * dz / 2

    def rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]], dtype=np.clongdouble)

    ep = np.clongdouble(np.cos(half) + 1j * np.sin(half))
    d = np.array([[ep, 0], [0, ep.conjugate()]], dtype=np.clongdouble)
    base, power, k = d @ rot(-ld(xi_rad_per_m) * dz), np.eye(2, dtype=np.clongdouble), n - 1
    while k:
        if k & 1:
            power = base @ power
        base, k = base @ base, k >> 1
    return rot(ld(xi_rad_per_m) * (n - 1) * dz) @ power @ d


def plate_intensity(w, f_rad):
    """Detected intensity behind a focsim ImperfectWaveplate mounted at 45
    degrees, at Faraday angles f: cos^2 2F + sin^2 rho sin^2 2beta sin^2 2F."""
    f2 = 2.0 * np.asarray(f_rad, dtype=np.float64)
    return np.cos(f2) ** 2 + (math.sin(w.rho_rad) * math.sin(2 * w.beta_rad)) ** 2 * np.sin(f2) ** 2


def medium_intensity(u, f_rad):
    """Detected intensity behind a unit-norm medium U = [[a, -conj(b)],
    [b, conj(a)]] that returns through U^T: (1 - Im(a^2 + b^2)^2) cos^2 2F."""
    a, b = complex(u[0, 0]), complex(u[1, 0])
    return (1.0 - (a * a + b * b).imag ** 2) * np.cos(2.0 * np.asarray(f_rad, dtype=np.float64)) ** 2


def table_view(table):
    """What a focsim ResultTable holds: (columns, grid_n, extra_metadata, rows)."""
    return table.columns, table.grid_n, table.extra_metadata, table.rows


def table_view_from_json(text: str):
    """table_view of the table a JSON rendering was made from; a NaN cell
    reads back as None, as the rendering writes it."""
    obj = json.loads(text)
    md = obj["metadata"]
    known = {"schema_version", "constants_fingerprint", "grid_n"}
    extra = tuple((k, str(v)) for k, v in md.items() if k not in known)
    rows = tuple(tuple(row) for row in obj["rows"])
    return tuple(obj["columns"]), md.get("grid_n"), extra, rows
