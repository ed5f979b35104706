"""Public surface: every exported name resolves, a star import works, and
the README's library example runs."""

import os
import pathlib
import re
import subprocess
import sys

import focsim as fs

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_star_imports():
    assert len(fs.__all__) == len(set(fs.__all__))
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []
    namespace: dict = {}
    exec("from focsim import *", namespace)
    assert set(fs.__all__) <= set(namespace)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
