"""Seeded inputs of the benchmark workloads, and the set-up step.

Run as a script, this is the set-up whose time the benchmark reports as
``setup_s``: in a fresh interpreter it imports focsim from the checkout's
``src``, draws the inputs of one workload from the seed, writes them to
``inputs.json`` and, for ``ripple``, writes the scenario file the CLI reads
with ``--config`` and reads it back through ``focsim.config.load_config``.
It prints one JSON line with its timings and a digest of the files.

    python3 perfbench/prepare.py WORKLOAD SEED MODE WORK_DIR

The work per run depends only on the sizes below; the seed moves parameter
values, never segment counts or grid sizes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# input sizes per mode; "tiny" is for the benchmark's own tests and warm-up
SIZES = {
    "full": {
        "xi_profiles": ["linear", "cosine"],
        "xi_ratios": 4,
        "xi_segments": 20_000,
        "trajectory_segments": 540_000,  # > 2**19, so the scan runs two chunks
        "designs_per_kind": 4,
        "front_end_segments": 200_000,
        "ladder_counts": [16384, 32768, 65536, 131072],
        "ladder_reference_n": 1 << 20,
        "zero_spin_segments": [64, 4096],
        "currents": 201,
        "max_current_a": 2000.0,
        "plate_grid": 8,
    },
    "tiny": {
        "xi_profiles": ["linear", "cosine"],
        "xi_ratios": 2,
        "xi_segments": 1000,
        "trajectory_segments": 3000,
        "designs_per_kind": 1,
        "front_end_segments": 2000,
        "ladder_counts": [256, 512],
        "ladder_reference_n": 4096,
        "zero_spin_segments": [64, 4096],
        "currents": 21,
        "max_current_a": 2000.0,
        "plate_grid": 2,
    },
}


def import_focsim():
    """Import focsim from the checkout's src, never from anywhere else."""
    if not (SRC / "focsim" / "__init__.py").is_file():
        raise ImportError(f"no focsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import focsim

    if Path(focsim.__file__).resolve().parent != SRC / "focsim":
        raise ImportError(f"focsim resolved to {focsim.__file__}, not the checkout")
    import focsim.cli  # noqa: F401  (the ripple workload calls focsim.cli.main)

    return focsim


def draw(fs, workload: str, seed: int, mode: str) -> dict:
    """Parameter values of one workload, a pure function of (seed, mode)."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[mode]
    out = {"workload": workload, "seed": seed, "mode": mode, "sizes": size}
    if workload == "ripple":
        out["xi_ratios"] = sorted(rng.uniform(1.0, 10.0) for _ in range(size["xi_ratios"]))
        out["xi_over_delta"] = rng.uniform(3.0, 8.0)
        out["transition_l2_m"] = rng.uniform(0.15, 0.25)
    elif workload == "front-end":
        out["high_order"] = [
            {
                "total_length_m": (length := rng.uniform(0.08, 0.12)),
                "transition_l2_m": rng.uniform(0.6, 0.9) * length,
                "xi_over_delta": rng.uniform(8.0, 12.0),
            }
            for _ in range(size["designs_per_kind"])
        ]
        out["spun_fiber"] = [
            {"total_length_m": rng.uniform(0.02, 0.04), "xi_over_delta": rng.uniform(3.0, 7.0)}
            for _ in range(size["designs_per_kind"])
        ]
        out["zero_spin_length_m"] = rng.uniform(0.05, 0.2)
    elif workload == "plate-scan":
        cut_tol = float(fs.constant("plate_cut_deviation_m"))
        splice_tol = float(fs.constant("plate_splice_deviation_rad"))
        n = size["plate_grid"]
        out["cut_deviations_m"] = sorted(rng.uniform(-cut_tol, cut_tol) for _ in range(n))
        out["splice_angles_rad"] = sorted(rng.uniform(-splice_tol, splice_tol) for _ in range(n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def ripple_config(fs, inputs: dict) -> str:
    """Canonical focsim scenario file for the ripple CLI calls."""
    from focsim.config import parse_config, serialize_config

    size = inputs["sizes"]
    return serialize_config(
        parse_config(
            {
                "medium": {
                    "profile": {
                        "kind": "cosine",
                        "xi_over_delta": inputs["xi_over_delta"],
                        "transition_l2_m": inputs["transition_l2_m"],
                    }
                },
                "xi_sweep": {
                    "ratios": inputs["xi_ratios"],
                    "profiles": size["xi_profiles"],
                    "n_segments": size["xi_segments"],
                },
                "trajectory": {"n_segments": size["trajectory_segments"]},
            }
        )
    )


def write_inputs(fs, workload: str, seed: int, mode: str, work_dir: Path) -> str:
    """Draw and write one workload's input files; returns their digest."""
    work_dir.mkdir(parents=True, exist_ok=True)
    inputs = draw(fs, workload, seed, mode)
    digest = hashlib.sha256()
    files = {"inputs.json": json.dumps(inputs, indent=1, sort_keys=True) + "\n"}
    if workload == "ripple":
        files["focsim_config.json"] = ripple_config(fs, inputs)
    for name, text in files.items():
        (work_dir / name).write_text(text, encoding="utf-8")
        digest.update(text.encode("utf-8"))
    if workload == "ripple":
        from focsim.config import load_config

        load_config(str(work_dir / "focsim_config.json"))
    return digest.hexdigest()


def main(argv) -> int:
    start = time.perf_counter()
    workload, seed, mode, work_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    fs = import_focsim()
    imported = time.perf_counter()
    digest = write_inputs(fs, workload, seed, mode, work_dir)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start, "digest": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
