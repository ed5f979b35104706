"""Regenerate the committed golden outputs under tests/golden/.

Run from the repository root after any intentional change to output
formatting or to the default scenario, then review the diff before
committing; the CLI tests compare emitted bytes against these files.
"""

import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    jobs = {
        "default_sweep.csv": ["sweep-current", "--format", "csv"],
        "default_sweep.json": ["sweep-current", "--format", "json"],
        "default_simulate.csv": ["simulate", "--format", "csv"],
        "default_trajectory.csv": ["trajectory", "--format", "csv"],
        "default_trajectory.json": ["trajectory", "--format", "json"],
        "default_config.json": ["print-config"],
    }
    for name, args in jobs.items():
        out = GOLDEN / name
        proc = subprocess.run(
            [sys.executable, "-m", "focsim.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(f"wrote {out} ({out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
