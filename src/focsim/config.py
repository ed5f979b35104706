"""Scenario configuration: one field-checked schema for files and CLI flags.

Files are JSON. Each section is a frozen dataclass, and each of its keys
declares its own check in ``field(metadata=...)``: a finite number, a
positive or non-negative length, an integer in a range, one of a set, or
a non-empty list of one of these. One generic reader applies those checks
over a default instance, so a missing key keeps the default's value at every
depth, and one generic writer serializes the fields in declaration order.
Unknown keys and values that fail their check raise ConfigError with the
full key path rather than being ignored. Numeric keys carry their unit as a
name suffix, and parsing then serializing is a fixed point.

CLI flags are a partial document read over the loaded config
(``parse_config(flags, base=cfg)``), so a flag passes exactly the checks of
the same key in a file. A front end's kind selects its default instance
(``FrontEndConfig.default``); keys the kind does not use are unknown there.

Checks that tie several keys of one medium together (a medium no shorter
than its lead-in plus transition, a ramped profile with a positive
transition, the profile kind a front end needs) run when a section is
built, and fail as ConfigError with the section path (``medium`` or
``front_end.medium``).

The library's default devices, medium and current sweep
(``default_demo_medium()`` and the rest) are these defaults built, so the
CLI and the library read the constants in one place.

Every file may carry an assumed-constants block; values that disagree with
this build are rejected, not silently reinterpreted.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .constants import ASSUMED_CONSTANTS, SCHEMA_VERSION, constant
from .errors import ConfigError
from .experiments import FRONT_END_KINDS, CurrentSweepSpec, FrontEnd
from .elements import ImperfectWaveplate
from .spun import METRIC_KINDS, PROFILE_KINDS, SpinProfile, SpunMediumSpec


# ------------------------------------------------------------------ checks
# Each check takes the raw JSON value and its key path, and returns the
# parsed value or raises ConfigError naming that path.


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("expected a number", path)
    try:
        v = float(v)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError("expected a finite number", path)
    return v


def _length(positive: bool):
    def check(v, path: str) -> float:
        v = _number(v, path)
        if v < 0.0 or (positive and v == 0.0):
            raise ConfigError("must be positive" if positive else "must not be negative", path)
        return v

    return check


# the largest int64: numpy indexes and float products take every count up
# to it, but numpy describes no array of more bytes than that
_INT_MAX = 2**63 - 1
# so a count that sizes an n-element array stops well below it: the chain's
# (n, 2, 2) complex128 stack takes 64 bytes per current, and no run past
# this count can complete on any machine
_COUNT_MAX = int(np.iinfo(np.intp).max) // 64


def _integer(least: int, most: int = _INT_MAX):
    def check(v, path: str) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("expected an integer", path)
        if v < least:
            raise ConfigError(f"must be at least {least}", path)
        if v > most:
            raise ConfigError(f"must be at most {most}", path)
        return v

    return check


def _one_of(choices: tuple[str, ...]):
    def check(v, path: str) -> str:
        if not isinstance(v, str) or v not in choices:
            raise ConfigError(f"must be one of {', '.join(choices)}", path)
        return v

    return check


def _list_of(item):
    def check(v, path: str) -> tuple:
        if not isinstance(v, list) or not v:
            raise ConfigError("expected a non-empty list", path)
        return tuple(item(x, path) for x in v)

    return check


def _wavelength_drift(v, path: str) -> float:
    v = _number(v, path)
    if abs(v) >= float(constant("wavelength_m")):
        raise ConfigError("must be smaller in magnitude than wavelength_m", path)
    return v


def _schema_version(v, path: str) -> str:
    if v != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema version {v!r}, this build reads {SCHEMA_VERSION!r}", path
        )
    return v


_positive = _length(True)
_non_negative = _length(False)
_front_end_kind = _one_of(FRONT_END_KINDS)


def _key(check, default=MISSING):
    """A config key: a dataclass field whose metadata holds its check."""
    return field(default=default, metadata={"check": check})


# ---------------------------------------------------------------- sections


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = _key(_one_of(PROFILE_KINDS))
    xi_over_delta: float = _key(_number)
    lead_in_l1_m: float = _key(_non_negative)
    transition_l2_m: float = _key(_non_negative)

    def build(self, delta_rad_per_m: float) -> SpinProfile:
        return SpinProfile(
            kind=self.kind,
            xi_max_rad_per_m=self.xi_over_delta * delta_rad_per_m,
            lead_in_l1_m=self.lead_in_l1_m,
            transition_l2_m=self.transition_l2_m,
        )


@dataclass(frozen=True)
class MediumConfig:
    total_length_m: float = _key(_positive)
    beat_length_m: float = _key(_positive)
    profile: ProfileConfig

    def build(self, path: str = "medium") -> SpunMediumSpec:
        delta = 2.0 * math.pi / self.beat_length_m
        try:
            return SpunMediumSpec(
                total_length_m=self.total_length_m,
                delta_rad_per_m=delta,
                profile=self.profile.build(delta),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), path) from exc


@dataclass(frozen=True)
class FrontEndConfig:
    """The converter front end; keys its kind does not use stay None."""

    kind: str = _key(_front_end_kind)
    cut_deviation_m: float | None = _key(_number, None)
    splice_angle_rad: float | None = _key(_number, None)
    medium: MediumConfig | None = None
    n_segments: int | None = _key(_integer(1), None)

    @classmethod
    def default(cls, kind: str) -> "FrontEndConfig":
        if kind == "ideal":
            return cls(kind)
        if kind == "imperfect_qwp":
            return cls(kind, cut_deviation_m=0.0, splice_angle_rad=0.0)
        if kind == "high_order_qwp":
            length = float(constant("ho_qwp_total_length_m"))
            profile = ProfileConfig(
                "cosine",
                float(constant("ho_qwp_xi_over_delta")),
                0.0,
                float(constant("ho_qwp_transition_m")),
            )
        else:
            length = float(constant("spun_fiber_total_length_m"))
            profile = ProfileConfig(
                "constant", float(constant("spun_fiber_xi_over_delta")), 0.0, 0.0
            )
        beat = float(constant("wavelength_m")) / float(constant("birefringence_delta_n"))
        medium = MediumConfig(length, beat, profile)
        return cls(kind, medium=medium, n_segments=int(constant("front_end_segments")))

    def build(self) -> FrontEnd:
        plate = medium = None
        if self.cut_deviation_m is not None:
            plate = ImperfectWaveplate.from_cut_deviation(
                self.cut_deviation_m, self.splice_angle_rad
            )
        if self.medium is not None:
            medium = self.medium.build("front_end.medium")
        try:
            return FrontEnd(self.kind, plate, medium, self.n_segments or 0)
        except ValueError as exc:
            raise ConfigError(str(exc), "front_end.medium") from exc


@dataclass(frozen=True)
class CoilConfig:
    verdet_rad_per_amp_turn: float = _key(_number)
    turns: int = _key(_integer(1))
    current_a: float = _key(_number)


@dataclass(frozen=True)
class TrajectoryConfig:
    n_segments: int = _key(_integer(1, _COUNT_MAX))
    metric_kind: str = _key(_one_of(METRIC_KINDS))
    stride: int = _key(_integer(1))


@dataclass(frozen=True)
class CurrentSweepConfig:
    max_a: float = _key(_number)
    points: int = _key(_integer(2, _COUNT_MAX))


@dataclass(frozen=True)
class XiSweepConfig:
    ratios: tuple[float, ...] = _key(_list_of(_number))
    profiles: tuple[str, ...] = _key(_list_of(_one_of(PROFILE_KINDS)))
    n_segments: int = _key(_integer(1, _COUNT_MAX))


@dataclass(frozen=True)
class PerturbationConfig:
    wavelength_drift_m: float = _key(_wavelength_drift)
    temperature_excursion_c: float = _key(_number)
    n_segments: int = _key(_integer(1, _COUNT_MAX))


@dataclass(frozen=True)
class ConvergenceConfig:
    segment_counts: tuple[int, ...] = _key(_list_of(_integer(1)))
    reference_n: int = _key(_integer(1))

    def __post_init__(self):
        if any(c >= self.reference_n for c in self.segment_counts):
            raise ConfigError(
                "reference_n must exceed every probe count", "convergence.reference_n"
            )


@dataclass(frozen=True)
class AppConfig:
    schema_version: str = _key(_schema_version)
    front_end: FrontEndConfig
    coil: CoilConfig
    medium: MediumConfig
    trajectory: TrajectoryConfig
    current_sweep: CurrentSweepConfig
    xi_sweep: XiSweepConfig
    perturbation: PerturbationConfig
    convergence: ConvergenceConfig

    def sweep_spec(self, currents=None) -> CurrentSweepSpec:
        """The front end and coil swept over currents (the current_sweep grid
        when None)."""
        if currents is None:
            currents = np.linspace(0.0, self.current_sweep.max_a, self.current_sweep.points)
        return CurrentSweepSpec(
            front_end=self.front_end.build(),
            currents_a=tuple(currents),
            verdet_rad_per_amp_turn=self.coil.verdet_rad_per_amp_turn,
            turns=self.coil.turns,
        )


def default_config() -> AppConfig:
    sweep_segments = int(constant("sweep_segments"))
    return AppConfig(
        schema_version=SCHEMA_VERSION,
        front_end=FrontEndConfig.default("ideal"),
        coil=CoilConfig(
            verdet_rad_per_amp_turn=float(constant("verdet_rad_per_amp_turn")),
            turns=int(constant("coil_turns")),
            current_a=1000.0,
        ),
        medium=MediumConfig(
            total_length_m=float(constant("medium_total_length_m")),
            beat_length_m=float(constant("medium_beat_length_m")),
            profile=ProfileConfig(
                kind=str(constant("medium_profile")),
                xi_over_delta=float(constant("medium_xi_over_delta")),
                lead_in_l1_m=float(constant("medium_lead_in_m")),
                transition_l2_m=float(constant("medium_transition_m")),
            ),
        ),
        trajectory=TrajectoryConfig(
            n_segments=sweep_segments, metric_kind="principal", stride=1000
        ),
        current_sweep=CurrentSweepConfig(
            max_a=float(constant("current_max_a")),
            points=int(constant("current_points")),
        ),
        xi_sweep=XiSweepConfig(
            ratios=(1.0, 3.0, 5.0, 10.0),
            profiles=("linear", "cosine"),
            n_segments=sweep_segments,
        ),
        perturbation=PerturbationConfig(
            wavelength_drift_m=float(constant("wavelength_drift_m")),
            temperature_excursion_c=float(constant("temperature_excursion_c")),
            n_segments=sweep_segments,
        ),
        convergence=ConvergenceConfig(
            segment_counts=(16384, 32768, 65536, 131072), reference_n=1 << 20
        ),
    )


# ------------------------------------------------- library default objects


def default_demo_medium() -> SpunMediumSpec:
    """The lab-bench medium used by default across campaigns."""
    return default_config().medium.build()


def default_high_order_front_end() -> FrontEnd:
    return FrontEndConfig.default("high_order_qwp").build()


def default_spun_front_end() -> FrontEnd:
    return FrontEndConfig.default("spun_fiber").build()


def default_sweep_spec(front_end: FrontEnd | None = None) -> CurrentSweepSpec:
    spec = default_config().sweep_spec()
    return spec if front_end is None else replace(spec, front_end=front_end)


# ------------------------------------------------------ reading and writing


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _parse(default, obj, path: str = ""):
    """`default` with every key of `obj` read over it through its check."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    if isinstance(default, FrontEndConfig) and obj.get("kind", default.kind) != default.kind:
        default = FrontEndConfig.default(_front_end_kind(obj["kind"], _join(path, "kind")))
    known = {f.name: f for f in fields(default) if getattr(default, f.name) is not None}
    changes = {}
    for key, value in obj.items():
        where = _join(path, key)
        if key not in known:
            raise ConfigError("unknown key", where)
        current = getattr(default, key)
        if is_dataclass(current):
            changes[key] = _parse(current, value, where)
        else:
            changes[key] = known[key].metadata["check"](value, where)
    return replace(default, **changes) if changes else default


def _to_obj(section) -> dict:
    """The section as a JSON object, keys in field order, unused keys left out."""
    out = {}
    for f in fields(section):
        v = getattr(section, f.name)
        if is_dataclass(v):
            out[f.name] = _to_obj(v)
        elif v is not None:
            out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _check_constants_block(obj, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    for name, entry in obj.items():
        where = f"{path}.{name}"
        if name not in ASSUMED_CONSTANTS:
            raise ConfigError("not an assumed constant of this build", where)
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", where)
        want = dict(zip(("value", "source"), ASSUMED_CONSTANTS[name]))
        for key, value in entry.items():
            if key not in want:
                raise ConfigError("unknown key", f"{where}.{key}")
            if value != want[key]:
                raise ConfigError(
                    f"{key} {value!r} disagrees with this build ({want[key]!r})",
                    f"{where}.{key}",
                )


def parse_config(obj: object, base: AppConfig | None = None) -> AppConfig:
    """Read a config document over `base` (the defaults when None)."""
    if isinstance(obj, dict) and "constants" in obj:
        _check_constants_block(obj["constants"], "constants")
        obj = {k: v for k, v in obj.items() if k != "constants"}
    return _parse(default_config() if base is None else base, obj)


def load_config(path: str) -> AppConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer of more digits than int() converts, or nesting deeper
        # than the decoder recurses
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(obj)


def serialize_config(cfg: AppConfig) -> str:
    obj = _to_obj(cfg)
    obj["constants"] = {
        name: {"value": value, "source": source}
        for name, (value, source) in sorted(ASSUMED_CONSTANTS.items())
    }
    return json.dumps(obj, indent=1) + "\n"
