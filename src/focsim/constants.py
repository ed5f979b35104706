"""Central registry of every numeric assumption.

Each entry carries an origin tag. "given" marks externally fixed design
values, "assumed" marks gaps this implementation had to fill, "measured"
marks constants calibrated by a one-time refinement study on the default
medium, and "derived" marks values computed from other entries. Every
physical and device value lives here. config turns the device, medium,
coil and sweep values into objects, for the CLI and the library's default_*
builders alike; experiments.run_imperfection_scan alone builds its coil and
its default current grid from these values directly. The CLI's run-size
defaults (the simulated current, the trajectory stride and metric, the
xi-sweep ratios and profiles, the convergence ladder and its reference
grid) are set in config.default_config(), and numeric thresholds such as
elements.FRINGE_FLOOR sit beside the code that applies them. All tables
and reports embed a fingerprint of this block so a quoted number can
always be traced to the assumptions that produced it.
"""

from __future__ import annotations

import hashlib
import math
from types import MappingProxyType

SCHEMA_VERSION = "1"

# name -> (value, origin tag)
ASSUMED_CONSTANTS: MappingProxyType[str, tuple[float | int | str, str]] = MappingProxyType({
    # light and material
    "wavelength_m": (1.31e-6, "assumed"),
    "birefringence_delta_n": (5e-4, "assumed"),
    # discrete quarter-wave plate (cut for exact quarter-wave retardation)
    "plate_cut_length_m": (1.31e-6 / (4 * 5e-4), "derived"),
    "plate_cut_deviation_m": (5e-4, "given"),
    "plate_splice_deviation_rad": (math.radians(2.0), "given"),
    # sensing coil; chosen so the 0..2000 A sweep peaks inside the 2..4 pct
    # contrast-drop band with the plate deviations above
    "verdet_rad_per_amp_turn": (1.0e-6, "assumed"),
    "coil_turns": (355, "assumed"),
    "current_max_a": (2000.0, "given"),
    "current_points": (201, "assumed"),
    # default spun medium (desk-scale conversion experiments)
    "medium_total_length_m": (0.3, "assumed"),
    "medium_beat_length_m": (0.01, "assumed"),
    "medium_lead_in_m": (0.0, "assumed"),
    "medium_transition_m": (0.25, "assumed"),
    "medium_profile": ("cosine", "assumed"),
    "medium_xi_over_delta": (5.0, "assumed"),
    # spun front-end devices for the current-sweep comparison
    "ho_qwp_total_length_m": (0.10, "assumed"),
    "ho_qwp_transition_m": (0.08, "assumed"),
    "ho_qwp_xi_over_delta": (10.0, "assumed"),
    "spun_fiber_total_length_m": (0.03, "assumed"),
    "spun_fiber_xi_over_delta": (5.0, "assumed"),
    "front_end_segments": (200_000, "assumed"),
    # environmental drift models
    "wavelength_drift_m": (10e-9, "given"),
    "temperature_excursion_c": (20.0, "given"),
    "temperature_coeff_per_c": (5e-4, "assumed"),
    "reference_temperature_c": (25.0, "assumed"),
    # segment-count heuristic: asymptotic error constant measured at 570
    # on the default medium, stored with a 10 percent safety margin
    "segment_calibration_c": (630.0, "measured"),
    "default_tolerance": (1e-3, "assumed"),
    "sweep_segments": (1_000_000, "assumed"),
})


def constant(name: str) -> float | int | str:
    return ASSUMED_CONSTANTS[name][0]


def constants_fingerprint() -> str:
    """Short stable hash of the full assumption block."""
    lines = []
    for key in sorted(ASSUMED_CONSTANTS):
        value, source = ASSUMED_CONSTANTS[key]
        rendered = f"{value:.17g}" if isinstance(value, float) else str(value)
        lines.append(f"{key}={rendered}:{source}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]
