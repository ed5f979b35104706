"""Deterministic Jones-calculus simulator for reflective fiber-optic
current sensors with spun-fiber polarization converters.

The package models the full reflective chain (polarizer, 45 degree splice,
quarter-wave converter, Faraday coil, mirror and the return pass), discrete
imperfect waveplates, and distributed spun birefringent media, plus the
measurement campaigns built on top: current sweeps, adiabaticity scans,
grid-refinement reports and environmental-drift studies. Everything is
closed-form or fixed-order numerics; no sampling, no hidden state.
"""

from .config import (
    default_demo_medium,
    default_high_order_front_end,
    default_spun_front_end,
    default_sweep_spec,
)
from .constants import (
    ASSUMED_CONSTANTS,
    SCHEMA_VERSION,
    constant,
    constants_fingerprint,
)
from .elements import (
    FaradayCoil,
    ImperfectWaveplate,
    IntensityResult,
    detected_intensity,
    mount_at_45deg,
    polarizer,
    qwp_ideal_in,
    qwp_ideal_out,
    qwp_imperfect,
    roundtrip_fields,
    splice45_in,
    splice45_out,
)
from .errors import (
    ConfigError,
    FocsimError,
    NumericDomainError,
)
from .experiments import (
    ConvergenceResult,
    CurrentSweepSpec,
    FrontEnd,
    PerturbationResult,
    SweepResult,
    device_delta,
    front_end_high_order,
    front_end_imperfect,
    front_end_spun,
    run_convergence_ladder,
    run_current_sweep,
    run_imperfection_scan,
    run_perturbation_study,
    run_xi_sweep,
)
from .jones import jones_vector, rotator
from .spun import (
    EllipticityTrajectory,
    PropagationGrid,
    SpinProfile,
    SpunMediumSpec,
    StabilityMetrics,
    conversion_length,
    estimate_segments,
    grid_for,
    propagate_trajectory,
    stability_metrics,
    total_matrix,
)
from .tables import ResultTable, render

__version__ = "0.1.0"

__all__ = [
    "ASSUMED_CONSTANTS",
    "SCHEMA_VERSION",
    "constant",
    "constants_fingerprint",
    "FaradayCoil",
    "ImperfectWaveplate",
    "IntensityResult",
    "detected_intensity",
    "mount_at_45deg",
    "polarizer",
    "qwp_ideal_in",
    "qwp_ideal_out",
    "qwp_imperfect",
    "roundtrip_fields",
    "splice45_in",
    "splice45_out",
    "ConfigError",
    "FocsimError",
    "NumericDomainError",
    "ConvergenceResult",
    "CurrentSweepSpec",
    "FrontEnd",
    "PerturbationResult",
    "SweepResult",
    "default_demo_medium",
    "default_high_order_front_end",
    "default_spun_front_end",
    "default_sweep_spec",
    "device_delta",
    "front_end_high_order",
    "front_end_imperfect",
    "front_end_spun",
    "run_convergence_ladder",
    "run_current_sweep",
    "run_imperfection_scan",
    "run_perturbation_study",
    "run_xi_sweep",
    "jones_vector",
    "rotator",
    "EllipticityTrajectory",
    "PropagationGrid",
    "SpinProfile",
    "SpunMediumSpec",
    "StabilityMetrics",
    "conversion_length",
    "estimate_segments",
    "grid_for",
    "propagate_trajectory",
    "stability_metrics",
    "total_matrix",
    "ResultTable",
    "render",
    "__version__",
]
