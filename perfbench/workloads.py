"""The three campaign workloads, their correctness checks and their
reference summaries.

Each workload turns its drawn inputs into a list of operations, each one
call into focsim's public API. The run times the whole list (the campaign)
and checks every result afterwards. An operation fails when it raised,
exited non-zero or failed a check; ``failed_ops_frac`` counts those.

Why these three (see README.md for the per-layer map):

* ripple: the trajectory user's path through the CLI; the prefix scan in
  ``spun.propagate_trajectory`` does almost all the work, plus row building
  and rendering. The only workload that uses cli, config and tables.
* front-end: current sweeps behind distributed converters and a
  convergence ladder; ``spun.total_matrix`` products with no scan, single-
  and multi-chunk, plus per-row chain work.
* plate-scan: per-row ``elements``/``jones`` work only; never touches spun.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNITARY_TOL = 1e-9  # tests/test_spun.py: |U^H U - I| < 1e-9
ZERO_SPIN_TOL = 1e-10  # acceptance criterion 5
IDEAL_TOL = 1e-12  # i_ideal against (1 + cos 4F) / 2
ORACLE_TOL = 1e-12  # i_out against the benchmark's own chain


@dataclass
class Op:
    """One call into focsim and what became of it."""

    name: str
    value: object = None
    error: str | None = None
    taps: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


# ---- an oracle for the reflective chain, written from its documented form


def _rotators(angles):
    c, s = np.cos(angles), np.sin(angles)
    r = np.empty(np.shape(angles) + (2, 2))
    r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1] = c, -s, s, c
    return r


def chain_intensity(q_in, q_out, faraday_rad) -> np.ndarray:
    """Detected intensity of polarizer, 45 degree splice, converter, coil,
    mirror and the way back, for x-polarized unit input, at every F.

    The Faraday rotation is non-reciprocal, so the round trip rotates by 2F;
    both polarizer projections reduce the field to the (0, 0) element.
    """
    half = math.sqrt(0.5)
    splice_in = half * np.array([[1.0, 1.0], [-1.0, 1.0]])
    a = q_in @ splice_in  # after the inbound converter
    b = splice_in.T @ q_out  # before the outbound splice
    m00 = np.einsum("j,fjk,k->f", b[0], _rotators(2.0 * np.asarray(faraday_rad)), a[:, 0])
    return np.abs(m00) ** 2


def plate_converter(fs, cut_deviation_m: float, splice_angle_rad: float):
    """Forward and return matrices of a plate cut off length and spliced off angle."""
    rho = (
        2.0 * math.pi * float(fs.constant("birefringence_delta_n"))
        * (float(fs.constant("plate_cut_length_m")) + cut_deviation_m)
        / float(fs.constant("wavelength_m"))
    )
    c, s = math.cos(rho / 2), math.sin(rho / 2)
    c2b, s2b = math.cos(2 * splice_angle_rad), math.sin(2 * splice_angle_rad)
    plate = np.array([[c + 1j * s * c2b, 1j * s * s2b], [1j * s * s2b, c - 1j * s * c2b]])
    mount = _rotators(math.pi / 4)
    fwd = mount @ plate @ mount.T
    return fwd, np.conj(fwd)


def _unitarity_error(m) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


# ---- workloads


class Workload:
    name = ""

    def __init__(self, fs, inputs: dict, work_dir: Path):
        self.fs = fs
        self.inputs = inputs
        self.size = inputs["sizes"]
        self.work_dir = work_dir

    def ops(self) -> list:
        """(name, callable) pairs of one campaign, in order."""
        raise NotImplementedError

    def collect(self, ops: list) -> None:
        """Runs right after each campaign, outside its timing."""

    def check(self, op: Op) -> dict:
        """Append problems to op; return the op's values for the reference."""
        raise NotImplementedError


def _currents(size) -> tuple:
    return tuple(np.linspace(0.0, size["max_current_a"], size["currents"]))


class Ripple(Workload):
    name = "ripple"

    def __init__(self, fs, inputs, work_dir):
        super().__init__(fs, inputs, work_dir)
        self.first_sha256: dict[str, str] = {}  # op name -> digest of its first output
        self.parsed: dict[str, tuple[list, dict]] = {}  # digest -> (problems, values)

    def _cli(self, *args):
        config = str(self.work_dir / "focsim_config.json")
        out = str(self.work_dir / f"{args[0]}.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.fs.cli.main([*args, "--config", config, "--out", out])
        return {"exit": code, "stderr": err.getvalue(), "path": out}

    def ops(self):
        return [
            ("sweep-xi", lambda: self._cli("sweep-xi")),
            ("trajectory", lambda: self._cli("trajectory", "--stride", "1")),
        ]

    def collect(self, ops):
        # the next campaign overwrites the files, so digest them now
        for op in ops:
            if op.value is not None and op.value["exit"] == 0:
                op.value["sha256"] = hashlib.sha256(Path(op.value["path"]).read_bytes()).hexdigest()

    def _eps_taps(self, op: Op, want: int) -> None:
        trajs = [t for name, t in op.taps if name == "spun.propagate_trajectory"]
        if len(trajs) != want:
            op.problems.append(f"{len(trajs)} trajectories, expected {want}")
        for n, lo, hi in trajs:
            if not (0.0 <= lo <= hi <= 1.0):
                op.problems.append(f"epsilon outside [0, 1] on a {n - 1}-segment trajectory")

    def check(self, op):
        v = op.value
        if v["exit"] != 0:
            op.problems.append(f"exit {v['exit']}: {v['stderr'].strip()}")
            return {}
        sha = v["sha256"]
        if sha != self.first_sha256.setdefault(op.name, sha):
            op.problems.append("output bytes differ from an earlier campaign with the same inputs")
        profiles, ratios = self.size["xi_profiles"], self.inputs["xi_ratios"]
        self._eps_taps(op, len(profiles) * len(ratios) if op.name == "sweep-xi" else 1)
        # identical bytes check identically; the file is the last campaign's
        if sha not in self.parsed:
            text = Path(v["path"]).read_text(encoding="utf-8")
            problems: list[str] = []
            if op.name == "sweep-xi":
                values = self._check_xi(text, problems)
            else:
                values = self._check_trajectory(text, problems)
            self.parsed[sha] = (problems, values)
        problems, values = self.parsed[sha]
        op.problems.extend(problems)
        return values

    def _header_ok(self, line: str, problems: list) -> None:
        want = f"# schema={self.fs.SCHEMA_VERSION}, constants={self.fs.constants_fingerprint()}"
        if not line.startswith(want):
            problems.append(f"header {line!r} does not start with {want!r}")

    def _check_xi(self, text: str, problems: list) -> dict:
        profiles, ratios = self.size["xi_profiles"], self.inputs["xi_ratios"]
        lines = text.splitlines()
        self._header_ok(lines[0], problems)
        rows = [line.split(",") for line in lines[2:]]
        want = [(p, r) for p in profiles for r in ratios]
        if [(row[0], float(row[1])) for row in rows] != want:
            problems.append("sweep-xi rows are not the configured profile x ratio grid")
            return {}
        values = {}
        for row, (profile, ratio) in zip(rows, want):
            key = f"{profile}_{ratios.index(ratio)}"
            pp, rms, mean, pp_full = (float(x) for x in row[2:6])
            if not all(0.0 <= x <= 1.0 for x in (pp, rms, mean, pp_full)):
                problems.append(f"{key}: ellipticity metric outside [0, 1]")
            values.update(
                {
                    f"{key}.pp_settled": pp,
                    f"{key}.rms_settled": rms,
                    f"{key}.mean_settled": mean,
                    f"{key}.pp_full": pp_full,
                    f"{key}.conv": float(row[6]) if row[6] else None,
                    f"{key}.flag": row[7] == "true",
                }
            )
        return values

    def _check_trajectory(self, text: str, problems: list) -> dict:
        n = self.size["trajectory_segments"]
        head, _, body = text.partition("\n")
        self._header_ok(head, problems)
        columns, _, body = body.partition("\n")
        data = np.fromstring(body.strip().replace("\n", ","), sep=",")
        if columns != "z_m,epsilon" or data.size != 2 * (n + 1):
            problems.append(f"trajectory table is not {n + 1} (z, epsilon) rows")
            return {}
        z, eps = data[0::2], data[1::2]
        if not np.all(np.diff(z) > 0.0):
            problems.append("z samples do not strictly increase")
        if not (np.all(eps >= 0.0) and np.all(eps <= 1.0)):
            problems.append("epsilon outside [0, 1] in the exported table")
        picks = np.unique(np.linspace(0, n, 201).astype(int))
        values = {f"eps[{i}]": float(eps[i]) for i in picks}
        values["pp_full"] = float(eps.max() - eps.min())
        values["peak"] = float(eps.max())
        return values


class FrontEnd(Workload):
    name = "front-end"

    def _sweep(self, front_end):
        fs, size = self.fs, self.size
        spec = fs.CurrentSweepSpec(
            front_end=front_end,
            currents_a=_currents(size),
            verdet_rad_per_amp_turn=float(fs.constant("verdet_rad_per_amp_turn")),
            turns=int(fs.constant("coil_turns")),
        )
        return fs.run_current_sweep(spec)

    def _high_order(self, d):
        fs = self.fs
        delta = fs.device_delta()
        profile = fs.SpinProfile("cosine", d["xi_over_delta"] * delta, 0.0, d["transition_l2_m"])
        medium = fs.SpunMediumSpec(d["total_length_m"], delta, profile)
        return fs.front_end_high_order(medium, self.size["front_end_segments"])

    def _spun(self, d):
        fs = self.fs
        delta = fs.device_delta()
        profile = fs.SpinProfile("constant", d["xi_over_delta"] * delta)
        medium = fs.SpunMediumSpec(d["total_length_m"], delta, profile)
        return fs.front_end_spun(medium, self.size["front_end_segments"])

    def _ladder(self):
        fs = self.fs
        return fs.run_convergence_ladder(
            fs.default_demo_medium(),
            tuple(self.size["ladder_counts"]),
            self.size["ladder_reference_n"],
        )

    def _zero_spin(self, n):
        fs = self.fs
        length = self.inputs["zero_spin_length_m"]
        medium = fs.SpunMediumSpec(length, math.pi / (2.0 * length), fs.SpinProfile("constant", 0.0))
        return fs.total_matrix(medium, fs.grid_for(medium, n))

    def ops(self):
        ops = []
        for i, d in enumerate(self.inputs["high_order"]):
            ops.append((f"sweep-ho{i}", lambda d=d: self._sweep(self._high_order(d))))
        for i, d in enumerate(self.inputs["spun_fiber"]):
            ops.append((f"sweep-spun{i}", lambda d=d: self._sweep(self._spun(d))))
        ops.append(("ladder", self._ladder))
        for n in self.size["zero_spin_segments"]:
            ops.append((f"zero-spin-{n}", lambda n=n: self._zero_spin(n)))
        return ops

    def _unitary_taps(self, op: Op, want: int) -> list:
        mats = [m for name, m in op.taps if name == "spun.total_matrix"]
        if len(mats) != want:
            op.problems.append(f"{len(mats)} total_matrix results, expected {want}")
        for m in mats:
            err = _unitarity_error(m)
            if not err <= UNITARY_TOL:
                op.problems.append(f"total_matrix result not unitary: |U^H U - I| = {err:.2e}")
        return mats

    def check(self, op):
        v = op.value
        if op.name.startswith("sweep"):
            mats = self._unitary_taps(op, 1)
            ideal = 0.5 * (1.0 + np.cos(4.0 * v.faraday_rad))
            worst = float(np.max(np.abs(v.i_ideal - ideal)))
            if not worst <= IDEAL_TOL:
                op.problems.append(f"i_ideal off (1 + cos 4F) / 2 by {worst:.2e}")
            if mats:
                want = chain_intensity(mats[0], mats[0].T, v.faraday_rad)
                worst = float(np.max(np.abs(v.i_out - want)))
                if not worst <= ORACLE_TOL:
                    op.problems.append(f"i_out off the chain oracle by {worst:.2e}")
            return {"max_abs_err_pct": v.max_abs_err_pct, "mean_abs_err_pct": v.mean_abs_err_pct}
        if op.name == "ladder":
            self._unitary_taps(op, len(self.size["ladder_counts"]) + 1)
            devs = [r.max_abs_dev for r in v.rows]
            if not all(math.isfinite(d) and d > 0.0 for d in devs):
                op.problems.append(f"ladder deviations not finite and positive: {devs}")
            return {f"dev[{r.n_segments}]": r.max_abs_dev for r in v.rows}
        self._unitary_taps(op, 1)
        want = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
        worst = float(np.max(np.abs(v - want)))
        if not worst <= ZERO_SPIN_TOL:
            op.problems.append(f"zero-spin medium off diag(e^(i pi/4), e^(-i pi/4)) by {worst:.2e}")
        return {}


class PlateScan(Workload):
    name = "plate-scan"

    def ops(self):
        fs, inputs = self.fs, self.inputs
        return [
            (
                "scan",
                lambda: fs.run_imperfection_scan(
                    tuple(inputs["cut_deviations_m"]),
                    tuple(inputs["splice_angles_rad"]),
                    _currents(self.size),
                ),
            )
        ]

    def check(self, op):
        fs, v = self.fs, op.value
        grid = [(d, b) for d in self.inputs["cut_deviations_m"] for b in self.inputs["splice_angles_rad"]]
        if [(c.cut_deviation_m, c.splice_angle_rad) for c in v.cells] != grid:
            op.problems.append("scan cells are not the drawn grid")
            return {}
        f = (
            float(fs.constant("verdet_rad_per_amp_turn"))
            * int(fs.constant("coil_turns"))
            * np.asarray(_currents(self.size))
        )
        ideal = 0.5 * (1.0 + np.cos(4.0 * f))
        values = {}
        for i, cell in enumerate(v.cells):
            i_out = chain_intensity(*plate_converter(fs, cell.cut_deviation_m, cell.splice_angle_rad), f)
            want = float(np.max(np.abs((i_out - ideal) / ideal * 100.0)))
            if not abs(cell.max_abs_err_pct - want) <= 1e-9 * want + 1e-10:
                op.problems.append(
                    f"cell {i}: max |error| {cell.max_abs_err_pct!r} pct, oracle {want!r} pct"
                )
            values[f"cell[{i}]"] = cell.max_abs_err_pct
        if v.worst_err_pct != max(c.max_abs_err_pct for c in v.cells):
            op.problems.append("worst_err_pct is not the largest cell error")
        values["worst"] = v.worst_err_pct
        return values


WORKLOADS = {w.name: w for w in (Ripple, FrontEnd, PlateScan)}


# ---- reference values recorded from a known-good commit on the default seed

# the test suite's tolerances for the same quantities
_TOLERANCES = (
    (".rms_settled", "rel", 1e-8),
    (".conv", "abs", 1e-9),
    (".flag", "exact", 0.0),
    ("eps[", "abs", 1e-10),
)


def _tolerance(key: str):
    for marker, kind, tol in _TOLERANCES:
        if marker in key:
            return kind, tol
    return "rel", 1e-9


def compare(reference: dict, values: dict) -> list[str]:
    """Problems of one op's values against its recorded reference."""
    problems = []
    for key, want in reference.items():
        if key not in values:
            problems.append(f"{key}: missing, reference {want!r}")
            continue
        got = values[key]
        kind, tol = _tolerance(key)
        if want is None or got is None or kind == "exact":
            ok = got == want
        elif kind == "abs":
            ok = abs(got - want) <= tol
        else:
            ok = abs(got - want) <= tol * abs(want)
        if not ok:
            problems.append(f"{key}: {got!r}, reference {want!r} ({kind} {tol:g})")
    return problems
