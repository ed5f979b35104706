"""Measurement campaigns built from the optical chain primitives.

Each runner is a pure function from a frozen parameter record to an
immutable result, evaluated serially in a fixed order. A current sweep is
one detected_intensity call on a coil swept over all its currents
(elements.roundtrip_fields batches the chain over them). An imperfection
scan builds its plates' converter pairs as one (P, 2, 2) stack
(elements.plate_converter_pairs: one mounting product per plate on each
side, one conjugate) and makes one call over plates x currents.

The default devices, medium and sweep spec are built in config
(config.default_high_order_front_end() and the rest), from the defaults the
CLI reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.typing as npt

from .constants import constant
from .elements import (
    FaradayCoil,
    ImperfectWaveplate,
    detected_intensity,
    plate_converter_pairs,
    qwp_ideal_in,
    qwp_ideal_out,
)
from .errors import NumericDomainError
from .jones import JonesMatrix
from .spun import (
    SpunMediumSpec,
    StabilityMetrics,
    conversion_length,
    grid_for,
    propagate_trajectory,
    stability_metrics,
    total_matrix,
)

RIPPLE_FLAG_PP = 0.01  # settled ripple above this flags an xi-sweep row
FRONT_END_KINDS = ("ideal", "imperfect_qwp", "spun_fiber", "high_order_qwp")


@dataclass(frozen=True)
class FrontEnd:
    """Polarization converter placed between the 45 degree splice and the coil.

    ideal and imperfect_qwp are discrete waveplates; spun_fiber and
    high_order_qwp are distributed media whose converter matrix is the
    propagation product over the whole medium. Distributed variants are
    described entirely by the medium geometry, there is no mounting angle
    to misalign. converter_pair() is where a front end's matrices are
    chosen, for every kind.
    """

    kind: str
    waveplate: ImperfectWaveplate | None = None
    medium: SpunMediumSpec | None = None
    n_segments: int = 0

    def __post_init__(self):
        if self.kind == "ideal":
            if self.waveplate is not None or self.medium is not None:
                raise ValueError("ideal front end takes no parameters")
        elif self.kind == "imperfect_qwp":
            if self.waveplate is None or self.medium is not None:
                raise ValueError("imperfect_qwp front end needs exactly a waveplate")
        elif self.kind in ("spun_fiber", "high_order_qwp"):
            if self.medium is None or self.waveplate is not None:
                raise ValueError(f"{self.kind} front end needs exactly a medium")
            if self.n_segments < 1:
                raise ValueError("distributed front end needs a segment count")
            ramped = self.medium.profile.kind in ("linear", "cosine")
            if self.kind == "high_order_qwp" and not ramped:
                raise ValueError("high_order_qwp needs a ramped spin profile")
            if self.kind == "spun_fiber" and self.medium.profile.kind != "constant":
                raise ValueError("spun_fiber needs a constant spin profile")
        else:
            raise ValueError(f"unknown front end kind {self.kind!r}")

    def converter_pair(self) -> tuple[JonesMatrix, JonesMatrix]:
        """Forward and return converter matrices of the chain.

        The ideal front end and a nominal plate give the printed ideal pair;
        any other plate is mounted at 45 degrees and returns through its
        complex conjugate (elements.plate_converter_pairs, which the
        imperfection scan calls on all its plates at once). A distributed
        medium returns through the transpose of its propagation product:
        the same reciprocal retarder chain traversed backwards.
        """
        if self.medium is not None:
            fwd = total_matrix(self.medium, grid_for(self.medium, self.n_segments))
            return fwd, fwd.T
        if self.waveplate is None:
            return qwp_ideal_in(), qwp_ideal_out()
        fwd, ret = plate_converter_pairs((self.waveplate,))
        return fwd[0], ret[0]


def front_end_imperfect(waveplate: ImperfectWaveplate) -> FrontEnd:
    return FrontEnd(kind="imperfect_qwp", waveplate=waveplate)


def front_end_spun(medium: SpunMediumSpec, n_segments: int) -> FrontEnd:
    return FrontEnd(kind="spun_fiber", medium=medium, n_segments=n_segments)


def front_end_high_order(medium: SpunMediumSpec, n_segments: int) -> FrontEnd:
    return FrontEnd(kind="high_order_qwp", medium=medium, n_segments=n_segments)


def device_delta() -> float:
    """Linear birefringence rate of the front-end fiber, rad/m."""
    return (
        2.0
        * math.pi
        * float(constant("birefringence_delta_n"))
        / float(constant("wavelength_m"))
    )


@dataclass(frozen=True)
class CurrentSweepSpec:
    front_end: FrontEnd
    currents_a: tuple[float, ...]
    verdet_rad_per_amp_turn: float
    turns: int


@dataclass(frozen=True)
class SweepResult:
    """Detected and reference intensities across a current grid.

    err_pct is NaN on fringe-null rows (reference intensity at the noise
    floor); those rows are excluded from the summary statistics.
    """

    currents_a: npt.NDArray[np.float64]
    faraday_rad: npt.NDArray[np.float64]
    i_out: npt.NDArray[np.float64]
    i_ideal: npt.NDArray[np.float64]
    err_pct: npt.NDArray[np.float64]
    max_abs_err_pct: float
    mean_abs_err_pct: float
    n_fringe_null: int


def run_current_sweep(spec: CurrentSweepSpec) -> SweepResult:
    currents = np.asarray(spec.currents_a, dtype=np.float64)
    coil = FaradayCoil.from_currents(spec.verdet_rad_per_amp_turn, spec.turns, currents)
    f = coil.rotation_angle_f_rad
    r = detected_intensity(coil, spec.front_end.converter_pair())
    err = r.relative_error_pct
    ok = ~np.isnan(err)
    i_ideal = r.i_ideal
    i_ideal[~ok] = [math.cos(2 * x) ** 2 for x in f[~ok]]
    return SweepResult(
        currents_a=currents,
        faraday_rad=f,
        i_out=r.i_out,
        i_ideal=i_ideal,
        err_pct=err,
        max_abs_err_pct=float(np.max(np.abs(err[ok]))) if ok.any() else float("nan"),
        mean_abs_err_pct=float(np.mean(np.abs(err[ok]))) if ok.any() else float("nan"),
        n_fringe_null=int((~ok).sum()),
    )


@dataclass(frozen=True)
class ImperfectionCell:
    cut_deviation_m: float
    splice_angle_rad: float
    max_abs_err_pct: float


@dataclass(frozen=True)
class ImperfectionScanResult:
    cells: tuple[ImperfectionCell, ...]
    worst_err_pct: float


def run_imperfection_scan(
    cut_deviations_m: tuple[float, ...],
    splice_angles_rad: tuple[float, ...],
    currents_a: tuple[float, ...] | None = None,
) -> ImperfectionScanResult:
    """Worst-case sweep error over a grid of plate build tolerances.

    The plates' converter pairs come as one stack from
    plate_converter_pairs, which also gives FrontEnd.converter_pair its
    pair, so the scan is one detected_intensity call over plates x
    currents; each cell is the max over the non-null currents, as
    run_current_sweep's max_abs_err_pct.
    """
    if len(cut_deviations_m) == 0 or len(splice_angles_rad) == 0:
        raise ValueError("a scan needs at least one cut deviation and one splice angle")
    if currents_a is None:
        currents_a = np.linspace(
            0.0, float(constant("current_max_a")), int(constant("current_points"))
        )
    combos = [(d, b) for d in cut_deviations_m for b in splice_angles_rad]
    fwd, ret = plate_converter_pairs(
        [ImperfectWaveplate.from_cut_deviation(d, b) for d, b in combos]
    )
    coil = FaradayCoil.from_currents(
        float(constant("verdet_rad_per_amp_turn")), int(constant("coil_turns")), currents_a
    )
    err = detected_intensity(coil, (fwd[:, np.newaxis], ret[:, np.newaxis])).relative_error_pct
    ok = ~np.isnan(err).any(axis=0)  # fringe-null columns are NaN for every plate
    worst = np.max(np.abs(err[:, ok]), axis=1) if ok.any() else np.full(len(combos), np.nan)
    cells = tuple(ImperfectionCell(d, b, e) for (d, b), e in zip(combos, worst.tolist()))
    return ImperfectionScanResult(
        cells=cells,
        worst_err_pct=max(c.max_abs_err_pct for c in cells),
    )


@dataclass(frozen=True)
class XiSweepRow:
    xi_over_delta: float
    delta_eps_pp_settled: float
    rms_eps_settled: float
    mean_eps_settled: float
    delta_eps_pp_full: float
    conversion_length_m: float | None
    ripple_flagged: bool


def run_xi_sweep(
    base_medium: SpunMediumSpec,
    ratios: tuple[float, ...],
    n_segments: int,
) -> tuple[XiSweepRow, ...]:
    """Adiabaticity scan: one row per spin-rate-to-birefringence ratio."""

    def one(ratio: float):
        profile = replace(
            base_medium.profile, xi_max_rad_per_m=ratio * base_medium.delta_rad_per_m
        )
        medium = replace(base_medium, profile=profile)
        traj = propagate_trajectory(medium, grid_for(medium, n_segments))
        settled = stability_metrics(traj)
        return XiSweepRow(
            xi_over_delta=ratio,
            delta_eps_pp_settled=settled.delta_eps_pp,
            rms_eps_settled=settled.rms_eps,
            mean_eps_settled=settled.mean_eps,
            delta_eps_pp_full=float(np.nanmax(traj.epsilon) - np.nanmin(traj.epsilon)),
            conversion_length_m=conversion_length(traj),
            ripple_flagged=settled.delta_eps_pp > RIPPLE_FLAG_PP,
        )

    return tuple(one(r) for r in ratios)


@dataclass(frozen=True)
class PerturbationAxis:
    label: str
    low_value: float
    high_value: float
    pp_increase_pct: float
    rms_increase_pct: float


@dataclass(frozen=True)
class PerturbationResult:
    base_pp: float
    base_rms: float
    wavelength: PerturbationAxis
    temperature: PerturbationAxis


def delta_at_wavelength(delta0: float, wavelength0_m: float, wavelength_m: float) -> float:
    """Birefringence rescaled by inverse wavelength."""
    return delta0 * wavelength0_m / wavelength_m


def delta_at_temperature(delta0: float, temperature_c: float) -> float:
    """Birefringence with its linear temperature coefficient applied."""
    k = float(constant("temperature_coeff_per_c"))
    t0 = float(constant("reference_temperature_c"))
    return delta0 * (1.0 + k * (temperature_c - t0))


def run_perturbation_study(
    medium: SpunMediumSpec,
    n_segments: int,
    wavelength_drift_m: float,
    temperature_excursion_c: float,
) -> PerturbationResult:
    """Ripple sensitivity to wavelength and temperature drift.

    The spin profile is fabricated geometry and never moves; only the
    birefringence rate responds to the environment, so each drifted medium
    is the given one with delta_rad_per_m replaced. Each axis reports the
    worse of its two extremes, so an increase on one side is not masked by
    a decrease on the other. The drift and the excursion have no defaults
    here: PerturbationConfig turns the constants into the run's defaults.
    """
    lam0 = float(constant("wavelength_m"))
    dlam, dtemp = wavelength_drift_m, temperature_excursion_c
    t0 = float(constant("reference_temperature_c"))
    d0 = medium.delta_rad_per_m

    def metrics_at(delta: float) -> StabilityMetrics:
        m = replace(medium, delta_rad_per_m=delta)
        return stability_metrics(propagate_trajectory(m, grid_for(m, n_segments)))

    jobs = [
        d0,
        delta_at_wavelength(d0, lam0, lam0 - dlam),
        delta_at_wavelength(d0, lam0, lam0 + dlam),
        delta_at_temperature(d0, t0 - dtemp),
        delta_at_temperature(d0, t0 + dtemp),
    ]
    base, wl_lo, wl_hi, t_lo, t_hi = (metrics_at(d) for d in jobs)
    if base.delta_eps_pp == 0.0 or base.rms_eps == 0.0:
        raise NumericDomainError("relative ripple increase undefined: the base ripple is zero")

    def axis(label, lo_val, hi_val, lo_m, hi_m) -> PerturbationAxis:
        pp = 100.0 * (max(lo_m.delta_eps_pp, hi_m.delta_eps_pp) / base.delta_eps_pp - 1.0)
        rms = 100.0 * (max(lo_m.rms_eps, hi_m.rms_eps) / base.rms_eps - 1.0)
        return PerturbationAxis(label, lo_val, hi_val, pp, rms)

    return PerturbationResult(
        base_pp=base.delta_eps_pp,
        base_rms=base.rms_eps,
        wavelength=axis("wavelength_m", lam0 - dlam, lam0 + dlam, wl_lo, wl_hi),
        temperature=axis("temperature_c", t0 - dtemp, t0 + dtemp, t_lo, t_hi),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n_segments: int
    max_abs_dev: float


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]

    def ratios(self) -> tuple[float, ...]:
        """Each rung's deviation over the next one's."""
        for r in self.rows[1:]:
            if r.max_abs_dev == 0.0:
                raise NumericDomainError(
                    f"convergence ratio undefined: zero deviation at n_segments={r.n_segments}"
                )
        devs = [r.max_abs_dev for r in self.rows]
        return tuple(a / b for a, b in zip(devs, devs[1:]))


def run_convergence_ladder(
    medium: SpunMediumSpec,
    segment_counts: tuple[int, ...],
    reference_n: int,
) -> ConvergenceResult:
    """Max elementwise deviation of the total matrix versus a fine reference."""
    if any(n >= reference_n for n in segment_counts):
        raise ValueError("reference grid must be finer than every probe grid")
    ref = total_matrix(medium, grid_for(medium, reference_n))

    def one(n: int) -> ConvergenceRow:
        m = total_matrix(medium, grid_for(medium, n))
        return ConvergenceRow(n, float(np.max(np.abs(m - ref))))

    return ConvergenceResult(tuple(one(n) for n in segment_counts))
