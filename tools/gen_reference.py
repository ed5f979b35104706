"""Regenerate the committed golden outputs under tests/golden/.

Run from the repository root after any intentional change to output
formatting or to the default scenario, then review the diff before
committing; the CLI tests compare emitted bytes against these files. The
CLI runs from this checkout's src, whatever focsim is installed.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SRC = ROOT / "src"


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
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(f"wrote {out} ({out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
