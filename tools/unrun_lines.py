"""Statements of ``src/focsim`` that a test run never reaches, as ``file:line``.

Runs pytest in this process under ``sys.settrace``, with a line tracer on
frames whose code lives in ``src/focsim`` only, and then prints, one
``src/focsim/<module>.py:<line>`` per line on stdout, every executable
statement of the package that no test ran. pytest's own report goes to
stderr. Run it from anywhere; the arguments, if any, replace the default
``-q --continue-on-collection-errors`` and go to pytest as they are:

    python tools/unrun_lines.py > unrun.txt
    python tools/unrun_lines.py -q tests/test_config.py

A statement is executable when its first line carries bytecode in the
compiled module (a function's docstring carries none). The tracer is set
before pytest imports focsim, so import-time lines count as run.

Blind spots: the tracer records lines in this process only. A line that
runs only in a forked worker (``focsim._fork._serve`` and the sub-block or
piece functions it calls there) and every line of a CLI run in a
subprocess (``tests/test_cli.py``'s ``run_cli``, the criterion runs, the
README example) print as unrun though the suite runs them. Read each
reported line against those before calling it a gap. A test that sets its
own trace function (hypothesis does, when it explains a failure) hides the
lines run while it holds it; a warning on stderr says when the tracer was
replaced. It needs pytest, as the tests do, and otherwise the standard
library only. The full suite takes a few times its untraced time.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "focsim"


def executable_lines(path: Path) -> set[int]:
    """First lines of the statements in path that carry bytecode."""
    source = path.read_text(encoding="utf-8")
    starts = {n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt)}
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # this tree's package, in process and in the suite's subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest

    # file name -> the lines run there, or None for a file outside the package
    hit: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hit:
            inside = Path(os.path.realpath(name)).parent == PACKAGE
            hit[name] = set() if inside else None
        lines = hit[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    finally:
        replaced = sys.gettrace() is not on_call
        sys.settrace(None)
        threading.settrace(None)
    if replaced:
        print("unrun_lines: the tracer was replaced during the run", file=sys.stderr)

    ran: dict[Path, set[int]] = {}
    for name, lines in hit.items():
        if lines is not None:
            ran.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}")
    # a failing test still ran its lines; only a run that stopped short fails
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main())
