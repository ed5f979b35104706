"""Extended-precision reference for frozen values in tests/_frozen.py.

Recomputes and prints, in the layout of tests/_frozen.py:

* the ripple metrics: the CELLS_N1E6 table (linear and cosine ramps at
  xi/delta = 1, 3, 5, 10 on the default medium, N = 1e6 left-endpoint
  segments), GOLDEN_METRICS_N1E6 (the cosine-3 cell) and
  LINEAR_R6_PP_SETTLED;
* GOLDEN_MATRIX_N1E5, the product over 1e5 segments of a 0.3 m medium of
  the default birefringence with a linear ramp to xi/delta = 5 over its
  whole length;
* LADDER_DEFAULT, the max-norm distance of the default medium's product at
  each N = 2^8 ... 2^17 from its product at N = 2^20;
* C8_HO_ERRS_PCT and C8_SPUN_ERRS_PCT, the largest sweep errors behind the
  default high_order_qwp and spun_fiber converters at 200 000 segments,
  with their lengths shortened, kept and lengthened by 0.5 mm.

On stderr it prints the relative gap of each value to the frozen one.

The reference is independent of the library under test: it does not import
focsim, and it reads only the constants registry, tests/_frozen.py and
tests/_oracles.py, by file path. Except for the spun_fiber media below,
the spin angles theta_k are evaluated in float64 from the closed-form
profiles, so the discretization is the library's. Everything after that
is in extended precision: each segment's SU(2) pair
alpha = cos h + i sin h cos 2 theta, beta = i sin h sin 2 theta; for the
metrics, a straight-line state recurrence over all segments, the
ellipticity at every state and the window metrics; for the products, the
first column (a, b) of [[a, -conj(b)], [b, conj(a)]], each block of
segments composed as a pairwise tree and the blocks in order (the grouping
moves nothing at float64 precision). The uniformly spun spun_fiber media
take their product from the exact power of tests/_oracles.py
(uniform_spin_product), in extended precision throughout, in O(log N)
steps instead of O(N). A converter's sweep error is -100 Im(a^2 + b^2)^2
at every current, the closed form of a unit-norm medium returning through
its transpose (tests/_oracles.py, medium_intensity).

The relative-threshold crossing conv_rel is printed on the full grid; the
frozen value was located on a strided subsample and may exceed it by up to
one stride (tests/test_spun.py allows 3.9e-5 m).

Run from the repository root (about 10 s and 210 MB on a 2-vCPU Xeon):

    python tools/frozen_reference.py
"""

import importlib.util
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
N_SEGMENTS = 1_000_000
CELLS = [(kind, ratio) for kind in ("linear", "cosine") for ratio in (1, 3, 5, 10)]
EXTRA = [("linear", 6)]
STEP_BLOCK = 1 << 14
LADDER = [1 << k for k in range(8, 18)]
LADDER_REFERENCE = 1 << 20
GOLDEN_N = 100_000
GOLDEN_LENGTH_M = 0.3
LENGTH_STEPS_M = (-5e-4, 0.0, 5e-4)


def load(name, path):
    """A module loaded from its file, so that focsim is never imported."""
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def registry():
    """The constants registry, loaded from its file without importing focsim."""
    mod = load("frozen_reference_constants", ROOT / "src" / "focsim" / "constants.py")
    return {k: v for k, (v, _) in mod.ASSUMED_CONSTANTS.items()}


def spin_angle(kind, xi_max, l1, l2, z):
    """Closed-form theta(z) of the linear, cosine and constant profiles, in
    float64."""
    if kind == "constant":
        return xi_max * z
    u = np.clip(z - l1, 0.0, l2)
    if kind == "linear":
        ramp = xi_max * u * u / (2.0 * l2)
    else:
        ramp = xi_max * (0.5 * u - (0.5 * l2 / np.pi) * np.sin(np.pi * u / l2))
    return ramp + xi_max * np.clip(z - l1 - l2, 0.0, None)


def ellipticity(x, y):
    """|tan(chi)| of the principal axes, chi = asin(S3 / S0) / 2."""
    s0 = np.abs(x) ** 2 + np.abs(y) ** 2
    s3 = -2.0 * (x * np.conj(y)).imag
    return np.abs(np.tan(0.5 * np.arcsin(np.clip(s3 / s0, -1, 1))))


def trajectories(cells, c):
    """Ellipticity at all N + 1 states, one column per cell, in long double."""
    length = float(c["medium_total_length_m"])
    delta = 2.0 * math.pi / float(c["medium_beat_length_m"])
    l1, l2 = float(c["medium_lead_in_m"]), float(c["medium_transition_m"])
    dz = length / N_SEGMENTS
    half = np.longdouble(0.5 * delta * dz)
    ch, sh = np.cos(half), np.sin(half)
    eps = np.empty((N_SEGMENTS + 1, len(cells)), dtype=np.longdouble)
    x = np.ones(len(cells), dtype=np.clongdouble)
    y = np.zeros(len(cells), dtype=np.clongdouble)
    eps[0] = ellipticity(x, y)
    for lo in range(0, N_SEGMENTS, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, N_SEGMENTS)
        z = np.arange(lo, hi, dtype=np.float64) * dz
        two_theta = 2 * np.stack(
            [spin_angle(kind, ratio * delta, l1, l2, z) for kind, ratio in cells], axis=1
        ).astype(np.longdouble)
        alpha = (ch + 1j * sh * np.cos(two_theta)).astype(np.clongdouble)
        beta = (1j * sh * np.sin(two_theta)).astype(np.clongdouble)
        alpha_c, beta_nc = np.conj(alpha), -np.conj(beta)
        xs = np.empty_like(alpha)
        ys = np.empty_like(alpha)
        for k in range(hi - lo):
            x, y = alpha[k] * x + beta_nc[k] * y, beta[k] * x + alpha_c[k] * y
            xs[k] = x
            ys[k] = y
        eps[lo + 1 : hi + 1] = ellipticity(xs, ys)
    z = np.linspace(0.0, length, N_SEGMENTS + 1)
    return z, eps, l1 + l2


def first_column(length, delta, kind, xi_max, l1, l2, n):
    """(a, b), the first column of the ordered product of the n segments of
    a medium, in long double."""
    dz = length / n
    half = np.longdouble(0.5 * delta * dz)
    ch, sh = np.cos(half), np.sin(half)
    a, b = np.clongdouble(1), np.clongdouble(0)
    for lo in range(0, n, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, n)
        z = np.arange(lo, hi, dtype=np.float64) * dz
        two_theta = 2 * spin_angle(kind, xi_max, l1, l2, z).astype(np.longdouble)
        alpha = (ch + 1j * sh * np.cos(two_theta)).astype(np.clongdouble)
        beta = (1j * sh * np.sin(two_theta)).astype(np.clongdouble)
        while len(alpha) > 1:
            # (later, earlier) neighbours compose into one pair; an odd last
            # segment waits for the next level
            m = len(alpha) // 2 * 2
            al, bl, ae, be = alpha[1:m:2], beta[1:m:2], alpha[0:m:2], beta[0:m:2]
            alpha = np.concatenate([al * ae - np.conj(bl) * be, alpha[m:]])
            beta = np.concatenate([bl * ae + np.conj(al) * be, beta[m:]])
        a, b = alpha[0] * a - np.conj(beta[0]) * b, beta[0] * a + np.conj(alpha[0]) * b
    return a, b


def products(c):
    """GOLDEN_MATRIX_N1E5, LADDER_DEFAULT, C8_HO_ERRS_PCT and C8_SPUN_ERRS_PCT."""
    delta = 2.0 * math.pi / float(c["medium_beat_length_m"])
    a, b = first_column(GOLDEN_LENGTH_M, delta, "linear", 5.0 * delta, 0.0, GOLDEN_LENGTH_M, GOLDEN_N)
    golden = [[float(v.real), float(v.imag)] for v in (a, -np.conj(b), b, np.conj(a))]

    demo = (float(c["medium_total_length_m"]), delta, str(c["medium_profile"]),
            float(c["medium_xi_over_delta"]) * delta, float(c["medium_lead_in_m"]),
            float(c["medium_transition_m"]))
    ref = first_column(*demo, LADDER_REFERENCE)
    ladder = {}
    for n in LADDER:
        a, b = first_column(*demo, n)
        ladder[n] = float(max(abs(a - ref[0]), abs(b - ref[1])))

    delta = 2.0 * math.pi / (float(c["wavelength_m"]) / float(c["birefringence_delta_n"]))
    n = int(c["front_end_segments"])
    ho_length, ho_xi = float(c["ho_qwp_total_length_m"]), float(c["ho_qwp_xi_over_delta"]) * delta
    ho_l2 = float(c["ho_qwp_transition_m"])
    spun_length = float(c["spun_fiber_total_length_m"])
    spun_xi = float(c["spun_fiber_xi_over_delta"]) * delta
    oracles = load("frozen_reference_oracles", ROOT / "tests" / "_oracles.py")

    def sweep_error(a, b):
        return float(100 * (a * a + b * b).imag ** 2)

    errors = {
        "C8_HO_ERRS_PCT": [
            sweep_error(*first_column(ho_length + step, delta, "cosine", ho_xi, 0.0, ho_l2, n))
            for step in LENGTH_STEPS_M
        ],
        "C8_SPUN_ERRS_PCT": [
            sweep_error(*oracles.uniform_spin_product(delta, spun_xi, spun_length + step, n)[:, 0])
            for step in LENGTH_STEPS_M
        ],
    }
    return golden, ladder, errors


def gaps(name, ours, frozen):
    """Relative gap of each frozen value to ours, on stderr."""
    for key, value in ours.items():
        want = frozen[key]
        gap = abs(want - value) / abs(value)
        sys.stderr.write(f"{name}[{key!r}]: frozen {want!r}, reference {value!r}, relative gap {gap:.3g}\n")


def first_crossing(z, e, threshold):
    hits = np.nonzero(e >= threshold)[0]
    return float(z[hits[0]]) if len(hits) else None


def metrics(z, e, settle):
    """The frozen metric set of one trajectory, as in focsim.stability_metrics."""
    mask = (z >= settle - 1e-12) & (z <= z[-1] + 1e-12)
    zw, ew = z[mask].astype(np.longdouble), e[mask]
    span = zw[-1] - zw[0]
    mean = np.trapezoid(ew, zw) / span
    rms = np.sqrt(np.trapezoid((ew - mean) ** 2, zw) / span)
    return {
        "pp_settled": float(ew.max() - ew.min()),
        "pp_full": float(e.max() - e.min()),
        "rms_settled": float(rms),
        "mean_settled": float(mean),
        "peak": float(e.max()),
        "conv_abs": first_crossing(z, e, 0.95),
        "conv_rel": first_crossing(z, e, 0.95 * mean),
    }


def show(m, indent):
    for key, value in m.items():
        print(f"{indent}{key!r}: {value!r},")


def main() -> int:
    if np.finfo(np.longdouble).eps >= 1e-18:
        sys.stderr.write(
            "long double here is no wider than float64 "
            f"(eps {np.finfo(np.longdouble).eps:.3g}); refusing to print a reference\n"
        )
        return 1
    cells = CELLS + EXTRA
    c = registry()
    z, eps, settle = trajectories(cells, c)
    by_cell = {
        f"{kind}_{ratio}": metrics(z, eps[:, i], settle) for i, (kind, ratio) in enumerate(cells)
    }
    print("GOLDEN_METRICS_N1E6 = {")
    show(by_cell["cosine_3"], "    ")
    print("}\n\nCELLS_N1E6 = {")
    for kind, ratio in CELLS:
        print(f"    '{kind}_{ratio}': {{")
        show(by_cell[f"{kind}_{ratio}"], "        ")
        print("    },")
    print("}")
    print()
    print(f"LINEAR_R6_PP_SETTLED = {by_cell['linear_6']['pp_settled']!r}")

    golden, ladder, errors = products(c)
    print("\nLADDER_DEFAULT = {")
    for n, dev in ladder.items():
        print(f"    {n}: {dev!r},")
    print("}\n\nGOLDEN_MATRIX_N1E5 = [")
    for re, im in golden:
        print(f"    [{re!r}, {im!r}],")
    print("]")
    for name, values in errors.items():
        print(f"\n{name} = {values!r}")

    frozen = load("frozen_reference_frozen", ROOT / "tests" / "_frozen.py")
    gaps("LADDER_DEFAULT", ladder, frozen.LADDER_DEFAULT)
    flat = dict(enumerate(v for entry in golden for v in entry))
    gaps("GOLDEN_MATRIX_N1E5", flat, dict(enumerate(v for e in frozen.GOLDEN_MATRIX_N1E5 for v in e)))
    for name, values in errors.items():
        gaps(name, dict(enumerate(values)), dict(enumerate(getattr(frozen, name))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
