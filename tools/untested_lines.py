#!/usr/bin/env python3
"""List the lines of ``src/kgvec`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` hook that records the
lines executed in ``src/kgvec`` (and nothing else), then prints
``file:line: source`` for every executable line that never ran, and a
count.  A line is executable when the compiler attributes bytecode to it;
docstrings and comments are not.  Only the standard library and pytest are
needed.  Tracing roughly doubles the test suite's run time.

Python processes that the tests start (``python -m kgvec.cli``, the demos)
are traced too: the pytest run gets a ``PYTHONPATH`` whose first entry is a
temporary directory holding a ``sitecustomize.py``, which installs the same
hook in each child and writes the child's lines to that directory at exit.
A child keeps that entry as long as it extends ``PYTHONPATH`` rather than
replacing it, and a child that does not exit normally reports nothing.

Run from the repository root; arguments after ``--`` go to pytest:

    python3 tools/untested_lines.py
    python3 tools/untested_lines.py -- tests/test_cli.py -k Usage
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kgvec"


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that some code object of it executes."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


# Installs the tracer of this file in a child; formatted with two paths.
CHILD_HOOK = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_untested_lines", {tool!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.trace_into({out!r})
"""


def line_tracer(ran: dict[str, set[int]]):
    """A ``sys.settrace`` hook adding the ``src/kgvec`` lines run to ``ran``."""
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return calls


def trace_into(out_dir: str) -> None:
    """Trace this process; at exit, write its lines as JSON into ``out_dir``."""
    ran: dict[str, set[int]] = {}

    def save() -> None:
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump({name: sorted(lines) for name, lines in ran.items()}, fh)

    atexit.register(save)
    sys.settrace(line_tracer(ran))


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the line tracer, its Python children too; (pytest
    status, lines run per file)."""
    import pytest

    ran: dict[str, set[int]] = {}
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as out:
        Path(out, "sitecustomize.py").write_text(
            CHILD_HOOK.format(tool=str(Path(__file__).resolve()), out=out), encoding="utf-8"
        )
        path = os.pathsep.join(filter(None, [out, os.environ.get("PYTHONPATH")]))
        with mock.patch.dict(os.environ, PYTHONPATH=path):
            sys.settrace(line_tracer(ran))
            try:
                status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
            finally:
                sys.settrace(None)
        for child in Path(out).glob("*.json"):
            for name, lines in json.loads(child.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    return int(status), ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments passed to pytest")
    args = parser.parse_args(argv)
    status, ran = run_traced(args.pytest_args or [str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        seen = ran.get(str(path), set())
        for line in sorted(executable_lines(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines in src/kgvec never ran (pytest status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main())
