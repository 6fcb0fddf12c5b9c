#!/usr/bin/env python3
"""List the lines of ``src/p2g`` that the tier-1 tests never run.

    python3 scripts/untested_lines.py

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
then prints, as ``path:line``, every executable line of ``src/p2g/*.py``
that no test ran. It exits 1 when it prints any, 0 when every line ran, and
2, printing no lines, when a test fails. A line is executable when a code
object of the module (``co_lines``) holds an instruction on it; the body of
``if __name__ == "__main__":`` is left out. It uses the standard library
only, and takes about 1.7 times as long as the untraced suite.

The tracer is set before pytest is imported, so the lines that run when a
module is imported count. Two parts of tier-1 are left out, and still run,
untraced, in the suite itself:

- ``tests/test_bench.py``: its runs are subprocesses, which the tracer does
  not see;
- ``tests/test_cli.py::test_commands_make_no_reference_cycles``: it counts
  the objects a full collection frees, and the tracer's own frames change
  that count.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "p2g"
PREFIX = str(PACKAGE) + "/"
LEFT_OUT = ("--ignore", str(ROOT / "tests" / "test_bench.py"),
            "--deselect", "tests/test_cli.py::test_commands_make_no_reference_cycles")

ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    """Global tracer: a frame of the package gets a local tracer that records
    every line it runs; any other frame runs untraced."""
    path = frame.f_code.co_filename
    if not path.startswith(PREFIX):
        return None
    lines = ran.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """Lines holding an instruction of some code object of the module,
    except the body of ``if __name__ == "__main__":``."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_trace)
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                          *LEFT_OUT, str(ROOT / "tests")])
    sys.settrace(None)
    if status != 0:
        print(f"untested_lines: the tests failed (pytest exit {int(status)})",
              file=sys.stderr)
        return 2
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
