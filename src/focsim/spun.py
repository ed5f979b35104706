"""Discretized propagation through spun birefringent media.

A spun medium is a linear retarder whose fast axis orientation theta(z)
rotates along the fiber at a prescribed spin rate xi(z). Propagation is the
ordered product of per-segment rotated retarders,

    J = J_N ... J_2 J_1,
    J_k = R(theta_k) diag(e^{+i delta dz / 2}, e^{-i delta dz / 2}) R(-theta_k),

with theta_k the spin angle at the segment's left endpoint. The left-endpoint
rule makes the product error fall off as 1/N, the first-order behavior the
convergence contract asserts.

Products are evaluated as pairwise trees over fixed-size chunks. Each
chunk's tree is built from power-of-two sub-blocks aligned to the chunk
start: every sub-block is reduced on its own, then the sub-block products
are reduced in order. No pair of the whole-chunk tree crosses a sub-block
seam, so the grouping, and every bit of the result, are those of one tree
over the whole chunk, while each process holds one sub-block at a time.
The sub-block products of a chunk are computed through
``_fork.ordered_map``. A sub-block's product depends only on its segments,
so the bits are the same for any worker count.

Each tree level runs as stacked float64 matmuls of at most _SLAB pairs,
whose operands (``_pair_products``) make OpenBLAS's dgemm small kernel sum
them in the FMA order of its zgemm kernel and come from one exact dgemm each
by a matrix of 0 and +-1, for the finite entries that unitary segments keep.
So the bits are those of one complex matmul per pair, by the two kernels, not
by IEEE arithmetic alone. On an AVX-512 host, random stacks and every medium
tried matched, save an exact zero's sign: zgemm gave -0 in 1.3-2% of entries
with 35-40% of the components +-0, where dgemm never does, and subnormal
entries whose products underflow can flip it against operands built by
strided copies, which unit-scale segment entries never do.

Trajectory scans carry only the Jones state: each segment is the SU(2)
pair (alpha, beta) of its matrix [[alpha, -conj(beta)], [beta,
conj(alpha)]], and a blocked scan over fixed-size blocks computes each
block's total, carries the state across the block totals in order, then
propagates it through every block at once. Chunk, sub-block and block
sizes are constants, so results are bit-reproducible regardless of
platform thread settings. The scan fills the epsilon array of a record
built before it, so the record checks the z samples once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np
import numpy.typing as npt

from ._fork import ordered_map
from .constants import constant
from .errors import NumericDomainError
from .jones import JonesMatrix

_CHUNK = 1 << 19
_BLOCK = 1 << 9
# a power of two no larger than _CHUNK, or the sub-block trees stop being
# subtrees of the whole-chunk tree and total_matrix changes in the last bits;
# so only the grid's end cuts a sub-block short
_SUB = 1 << 14
# pairs per matmul of a product tree, so that its operands stay in cache
_SLAB = 1 << 11

ProfileKind = Literal["linear", "cosine", "constant"]
PROFILE_KINDS: tuple[str, ...] = get_args(ProfileKind)
MetricKind = Literal["principal", "axis_ratio"]
METRIC_KINDS: tuple[str, ...] = get_args(MetricKind)


@dataclass(frozen=True)
class SpinProfile:
    """Spin-rate law xi(z).

    linear and cosine ramp from 0 at the end of the unspun lead L1 up to
    xi_max at L1 + L2, then stay at xi_max (uniformly spun continuation).
    The cosine ramp has a continuous derivative at both ends of the
    transition; the linear ramp does not, and that asymmetry is the whole
    point of comparing them. constant spins at xi_max everywhere, modeling
    conventional spun fiber.
    """

    kind: ProfileKind
    xi_max_rad_per_m: float
    lead_in_l1_m: float = 0.0
    transition_l2_m: float = 0.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown spin profile kind {self.kind!r}")
        if self.kind in ("linear", "cosine") and not self.transition_l2_m > 0.0:
            raise ValueError(f"{self.kind} profile needs a positive transition length")
        if not (math.isfinite(self.lead_in_l1_m) and math.isfinite(self.transition_l2_m)):
            raise ValueError("lead-in and transition lengths must be finite")

    def spin_angle(self, z):
        """Cumulative axis orientation theta(z) = integral of xi. Radians."""
        z = np.asarray(z, dtype=np.float64)
        if np.any(z < 0.0):
            raise NumericDomainError("spin profile undefined for z < 0")
        if self.kind == "constant":
            out = self.xi_max_rad_per_m * z
        else:
            l1, l2, xm = self.lead_in_l1_m, self.transition_l2_m, self.xi_max_rad_per_m
            u = np.clip(z - l1, 0.0, l2)
            if self.kind == "linear":
                ramp = xm * u * u / (2.0 * l2)
            else:
                ramp = xm * (0.5 * u - (0.5 * l2 / np.pi) * np.sin(np.pi * u / l2))
            out = ramp + xm * np.clip(z - l1 - l2, 0.0, None)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SpunMediumSpec:
    """Geometry and material state of one spun medium."""

    total_length_m: float
    delta_rad_per_m: float
    profile: SpinProfile

    def __post_init__(self):
        if not 0.0 < self.total_length_m < math.inf:
            raise ValueError("total length must be positive and finite")
        if self.total_length_m + 1e-12 < self.settle_z_m:
            raise ValueError("medium shorter than lead-in plus transition")

    @property
    def settle_z_m(self) -> float:
        """Start of the post-transition region."""
        if self.profile.kind in ("linear", "cosine"):
            return self.profile.lead_in_l1_m + self.profile.transition_l2_m
        return 0.0


@dataclass(frozen=True)
class PropagationGrid:
    """Uniform segmentation of [0, L] into n_segments pieces."""

    n_segments: int
    total_length_m: float

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("need at least one segment")
        if not 0.0 < self.total_length_m < math.inf:
            raise ValueError("grid length must be positive and finite")

    def z_samples(self) -> npt.NDArray[np.float64]:
        """The n_segments + 1 state positions, 0 through L inclusive."""
        return np.linspace(0.0, self.total_length_m, self.n_segments + 1)


def grid_for(spec: SpunMediumSpec, n_segments: int) -> PropagationGrid:
    return PropagationGrid(n_segments, spec.total_length_m)


def _segment_pairs(
    spec: SpunMediumSpec, n: int, lo: int, hi: int
) -> tuple[npt.NDArray[np.complex128], npt.NDArray[np.complex128]]:
    """SU(2) pairs (alpha, beta) of segments lo..hi-1.

    Segment k's matrix is [[alpha, beta], [beta, conj(alpha)]]; beta is
    purely imaginary, so the upper-right entry equals -conj(beta).
    """
    dz = spec.total_length_m / n
    with np.errstate(over="ignore", invalid="ignore"):
        theta = spec.profile.spin_angle(np.arange(lo, hi, dtype=np.float64) * dz)
    # a finite spin rate can still overflow theta over the length
    if not np.isfinite(theta).all():
        raise NumericDomainError("spin angle is not finite")
    half = 0.5 * spec.delta_rad_per_m * dz
    # and a finite rate times a finite length can overflow the retardation
    if not math.isfinite(half):
        raise NumericDomainError("segment retardation is not finite")
    c, s = np.cos(theta), np.sin(theta)
    ep = complex(math.cos(half), math.sin(half))
    em = ep.conjugate()
    return ep * c * c + em * s * s, (ep - em) * c * s


def _segment_block(spec: SpunMediumSpec, n: int, lo: int, hi: int) -> npt.NDArray[np.complex128]:
    alpha, beta = _segment_pairs(spec, n, lo, hi)
    m = np.empty((hi - lo, 2, 2), dtype=np.complex128)
    m[:, 0, 0] = alpha
    m[:, 0, 1] = beta
    m[:, 1, 0] = beta
    m[:, 1, 1] = alpha.conj()
    return m


_LEFT = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=np.float64)
_RIGHT = np.hstack((0.0 - _LEFT, np.eye(4)))  # not -_LEFT, whose zeros are -0


def _pair_products(f: npt.NDArray[np.float64], out=None) -> npt.NDArray[np.float64]:
    """The (k, 2, 4) floats of item 2j + 1 times item 2j of a (2k, 2, 4) float64
    view of 2x2 complex matrices, rounded as OpenBLAS's zgemm rounds them.

    zgemm forms each entry as one FMA chain over four real products, real
    part (-a0i b0i, a0r b0r, -a1i b1i, a1r b1r), imaginary part (a0i b0r,
    a0r b0i, a1i b1r, a1r b1i); the dgemm kernel sums K in order the same
    way. So the (k, 2, 4) left operand's row i holds the floats of (i a)_i,
    and the (k, 4, 4) right operand's rows those of (-i b)_0, b_0, (-i b)_1,
    b_1: views of f's rows X_r = (x0r, x0i, x1r, x1i) times _LEFT, (iX)_r,
    and times _RIGHT, [(-iX)_r, X_r]. Each output is one entry times +-1 plus
    zero terms, exact unless f holds an inf or NaN (inf times 0 is NaN).
    """
    rows = f.reshape(-1, 4)
    left = (rows @ _LEFT).reshape(-1, 2, 2, 4)[:, 1]
    right = (rows @ _RIGHT).reshape(-1, 2, 2, 8)[:, 0].reshape(-1, 4, 4)
    return np.matmul(left, right, out=out)


def _ordered_product(m: npt.NDArray[np.complex128]) -> JonesMatrix:
    """m[-1] ... m[1] m[0], as a pairwise tree that keeps operator order.

    Each level's products overwrite the front of m, which is used up, at
    most _SLAB pairs per matmul: slab [lo, hi) reads items 2 lo to 2 hi
    before its products land at lo to hi, and later slabs read from 2 hi on.
    """
    n, f = len(m), m.view(np.float64)
    while n > 1:
        half = n // 2
        for lo in range(0, half, _SLAB):
            hi = min(lo + _SLAB, half)
            _pair_products(f[2 * lo : 2 * hi], out=f[lo:hi])
        if n % 2:
            m[half] = m[n - 1]
        n = half + n % 2
    return m[0].copy()


def _chunks(spec: SpunMediumSpec, grid: PropagationGrid) -> Iterator[tuple[int, int]]:
    """In order, the [lo, hi) ranges of at most _CHUNK segments that cover
    the grid, which must span the medium. The check runs at the call; the
    ranges are made as they are taken."""
    if abs(grid.total_length_m - spec.total_length_m) > 1e-12 * spec.total_length_m:
        raise ValueError("grid does not cover the medium length")
    n = grid.n_segments
    return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def total_matrix(spec: SpunMediumSpec, grid: PropagationGrid) -> JonesMatrix:
    """Ordered product of all segment matrices over the grid."""
    n = grid.n_segments

    def part(a: int) -> JonesMatrix:
        return _ordered_product(_segment_block(spec, n, a, min(a + _SUB, n)))

    out = np.eye(2, dtype=np.complex128)
    for lo, hi in _chunks(spec, grid):
        out = _ordered_product(np.stack(list(ordered_map(part, range(lo, hi, _SUB))))) @ out
    return out


@dataclass(frozen=True)
class EllipticityTrajectory:
    """Sampled ellipticity magnitude along the fiber.

    epsilon holds |minor/major| per sample; gap markers (NaN) appear only
    where the axis-ratio formula is undefined. settle_z_m carries the
    post-transition boundary, where stability_metrics starts its span.
    The z samples are checked here, once, as neighbouring pairs, so a
    repeated value (+inf included) or a NaN raises ValueError.
    """

    z_m: npt.NDArray[np.float64]
    epsilon: npt.NDArray[np.float64]
    metric_kind: MetricKind
    settle_z_m: float

    def __post_init__(self):
        if len(self.z_m) != len(self.epsilon):
            raise ValueError("z and epsilon lengths differ")
        if not (self.z_m[1:] > self.z_m[:-1]).all():
            raise ValueError("z samples must strictly increase")


def _eps_from_states(
    ex: npt.NDArray[np.complex128], ey: npt.NDArray[np.complex128], metric_kind: MetricKind
):
    if metric_kind == "axis_ratio":
        ax = np.abs(ex)
        out = np.full(ax.shape, np.nan)
        ok = ax >= 1e-300
        out[ok] = np.abs(ey[ok]) / ax[ok]
        return out
    s0 = np.abs(ex) ** 2 + np.abs(ey) ** 2
    s3 = -2.0 * (ex * np.conj(ey)).imag
    return np.abs(np.tan(0.5 * np.arcsin(np.clip(s3 / s0, -1.0, 1.0))))


def _by_block(v: npt.NDArray[np.complex128], width: int, blocks: int, fill: complex):
    """v padded with fill to whole blocks, laid out (width, blocks):
    row j holds entry j of every block."""
    padded = np.pad(v, (0, width * blocks - len(v)), constant_values=fill)
    return padded.reshape(blocks, width).T.copy()


def _sweep(alpha, beta, x, y, out_x=None, out_y=None):
    """Carry one state per block through the block's segments in order.

    alpha and beta are laid out by _by_block; x and y hold each block's
    entering state. Returns the leaving states; out_x and out_y, if given,
    receive the state after every segment in the same layout.
    """
    for j in range(len(alpha)):
        a, b = alpha[j], beta[j]
        x, y = a * x + b * y, b * x + a.conj() * y
        if out_x is not None:
            out_x[j] = x
            out_y[j] = y
    return x, y


def propagate_trajectory(
    spec: SpunMediumSpec,
    grid: PropagationGrid,
    metric_kind: MetricKind = "principal",
) -> EllipticityTrajectory:
    """State scan over the grid, recording ellipticity at every position.

    The scan launches the x-polarized state (1, 0) and applies the same
    segment matrices as total_matrix in the same order, but groups the
    products differently, so its final state agrees with
    total_matrix(spec, grid)[:, 0] to rounding, not bit for bit.
    The returned record is built before the scan, which fills its epsilon
    in place, so its z check is the only one: a segment length so small
    that the z samples repeat raises NumericDomainError before the scan.
    An unknown metric kind raises ValueError.
    """
    if metric_kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    n = grid.n_segments
    z_m, epsilon = grid.z_samples(), np.empty(n + 1, dtype=np.float64)
    try:
        traj = EllipticityTrajectory(
            z_m, epsilon, metric_kind, min(spec.settle_z_m, spec.total_length_m)
        )
    except ValueError as exc:
        # dz > 0 is not enough: linspace over a few subnormals repeats values
        raise NumericDomainError("segment length underflows: z samples repeat") from exc
    eps = traj.epsilon
    # both metrics read 0 for (1, 0)
    eps[0] = 0.0
    x, y = 1 + 0j, 0j
    for lo, hi in _chunks(spec, grid):
        take = hi - lo
        width = min(_BLOCK, take)
        blocks = -(-take // width)
        alpha, beta = _segment_pairs(spec, n, lo, hi)
        alpha = _by_block(alpha, width, blocks, 1.0)
        beta = _by_block(beta, width, blocks, 0.0)
        # each block total is [[p, -conj(q)], [q, conj(p)]] with (p, q) the
        # image of (1, 0); carry the state across the totals in order
        xs, ys = [x], [y]
        if blocks > 1:
            ones = np.ones(blocks - 1, dtype=np.complex128)
            p, q = _sweep(alpha[:, :-1], beta[:, :-1], ones, np.zeros_like(ones))
            for pk, qk in zip(p.tolist(), q.tolist()):
                x, y = pk * x - qk.conjugate() * y, qk * x + pk.conjugate() * y
                xs.append(x)
                ys.append(y)
        ex = np.empty((width, blocks), dtype=np.complex128)
        ey = np.empty_like(ex)
        _sweep(alpha, beta, np.array(xs), np.array(ys), ex, ey)
        eps[lo + 1 : hi + 1] = _eps_from_states(ex, ey, metric_kind).T.ravel()[:take]
        blk, j = divmod(take - 1, width)
        x, y = complex(ex[j, blk]), complex(ey[j, blk])
    return traj


@dataclass(frozen=True)
class StabilityMetrics:
    delta_eps_pp: float
    rms_eps: float
    mean_eps: float


def stability_metrics(traj: EllipticityTrajectory) -> StabilityMetrics:
    """Peak-to-peak, RMS and mean ellipticity over the post-transition
    span, from traj.settle_z_m to the last sample, where the residual ripple
    is the quantity of interest. Gap samples are skipped; fewer than two
    left raise NumericDomainError.
    """
    mask = traj.z_m >= traj.settle_z_m - 1e-12
    z = traj.z_m[mask]
    e = traj.epsilon[mask]
    keep = ~np.isnan(e)
    z, e = z[keep], e[keep]
    if len(e) < 2:
        bounds = (traj.settle_z_m, float(traj.z_m[-1]))
        raise NumericDomainError(f"window {bounds!r} holds fewer than two samples")
    span = float(z[-1] - z[0])
    mean = float(np.trapezoid(e, z)) / span
    rms = math.sqrt(max(float(np.trapezoid((e - mean) ** 2, z)) / span, 0.0))
    return StabilityMetrics(
        delta_eps_pp=float(e.max() - e.min()),
        rms_eps=rms,
        mean_eps=mean,
    )


def conversion_length(traj: EllipticityTrajectory) -> float | None:
    """First z where the ellipticity reaches 0.95, None if never."""
    hits = np.nonzero(traj.epsilon >= 0.95)[0]
    if len(hits) == 0:
        return None
    return float(traj.z_m[hits[0]])


def estimate_segments(total_length_m: float, tolerance_eps: float) -> int:
    """Segment count for a target product error, from N >= C L^2 / eps.

    C was calibrated once against the measured first-order error constant of
    the default medium; the floor keeps degenerate inputs usable. A count
    past 2^63 - 1 raises ValueError.
    """
    if not 0.0 < total_length_m < math.inf:
        raise ValueError("length must be positive and finite")
    if not 0.0 < tolerance_eps < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    c = float(constant("segment_calibration_c"))
    try:
        n = max(64, math.ceil(c * total_length_m**2 / tolerance_eps))
    except OverflowError:  # from the square, or from the ceiling of inf
        raise ValueError("segment estimate is not a finite float") from None
    # the bound the config puts on every count: no run can take more
    if n > 2**63 - 1:
        raise ValueError("segment estimate exceeds 2^63 - 1")
    return n
