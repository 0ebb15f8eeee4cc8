"""Report the `raise` statements in src/loopforms that Tier-1 never reaches.

Run from anywhere, with the Python that runs the tests:

    python tests/tools/trace_raises.py [extra pytest arguments]

It runs Tier-1 (`python -m pytest -q --continue-on-collection-errors`, in
the repository root) with a trace hook installed in the test process and in
every Python subprocess the tests start: `sitecustomize.py`, next to this
file, installs it in any interpreter whose PYTHONPATH holds this directory
while LOOPFORMS_TRACE_DIR is set.  Each process writes the (file, line)
pairs at which a frame of src/loopforms raised an exception to its own JSON
file there.  A `raise` counts as reached when one of them falls inside the
statement's lines, so a multi-line `raise` is reached wherever its
exception was raised.  The report lists every unreached site as
`path:line: mark: key`, the mark saying whether tests/test_shape.py's
allowlist holds it, and ends with the counts by module.  It exits 1 if an unreached site is not on
the allowlist or a test failed.

The hook follows only frames whose code lives under src/loopforms, and
only their exception events (no line events), so a traced Tier-1 costs a
few times an untraced one.  PYTHONPATH is set to the absolute src
directory: a relative `src` would name the package by a path that a
subprocess started in another directory does not resolve, and its raises
would go uncounted.
"""

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "loopforms"
OUT_VAR = "LOOPFORMS_TRACE_DIR"


def install():
    """Record the exception events of src/loopforms frames in this process,
    and write them to LOOPFORMS_TRACE_DIR at exit."""
    out = Path(os.environ[OUT_VAR])
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "exception":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        frame.f_trace_lines = False
        return local

    def dump():
        sys.settrace(None)
        handle, path = tempfile.mkstemp(suffix=".json", dir=out)
        with os.fdopen(handle, "w", encoding="utf-8") as file:
            json.dump(sorted(hits), file)

    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)


def report(hits):
    """The unreached raise sites as printable lines, and whether any is
    off the allowlist."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    from test_shape import UNTESTED_REFUSALS, raise_sites

    lines, off_list = [], False
    unreached, total = Counter(), Counter()
    for site in raise_sites():
        path = str(ROOT / site.path)
        module = Path(site.path).stem
        total[module] += 1
        if any((path, line) in hits for line in range(site.line, site.end + 1)):
            continue
        unreached[module] += 1
        allowed = site.key in UNTESTED_REFUSALS
        off_list = off_list or not allowed
        mark = "allowlisted" if allowed else "UNREACHED"
        lines.append(f"{site.path}:{site.line}: {mark}: {site.key!r}")
    lines.append(
        f"{sum(unreached.values())} of {sum(total.values())} raise statements unreached: "
        + ", ".join(f"{m} {unreached[m]}/{total[m]}" for m in sorted(total, key=lambda m: -unreached[m]))
    )
    return lines, off_list


def main(argv):
    with tempfile.TemporaryDirectory(prefix="trace-raises-") as out:
        env = dict(os.environ)
        env[OUT_VAR] = out
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TOOLS), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv]
        tests = subprocess.run(command, cwd=ROOT, env=env)
        hits = set()
        for path in Path(out).glob("*.json"):
            hits.update(map(tuple, json.loads(path.read_text(encoding="utf-8"))))
    lines, off_list = report(hits)
    print("\n".join(lines))
    return 1 if off_list or tests.returncode else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
