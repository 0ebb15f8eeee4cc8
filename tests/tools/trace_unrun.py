"""List the functions and methods of src/loopforms that no pinned request runs.

Run from anywhere, with the Python that runs the tests:

    python tests/tools/trace_unrun.py

It writes the pooled --algebra tables with the recorder's `write_tables`
(tests/tools/record_stdout.py) under a temporary directory, then replays
every argv of tests/golden/stdout.json in-process through `cli.main`, in
that directory, and checks each run's exit code and stdout against its
ledger entry.  The replay runs under a `sys.settrace` hook that follows only
frames whose code lives under src/loopforms and notes each one that starts:
a body has run once its frame has started, so no line event is needed.
The package is imported afresh under the hook, after the tables are
written, so what its import runs counts too.  verify-all's determinism
rerun is a child process, which the hook does not follow; it reruns
requests that the replay also runs.

It prints every `def` in src/loopforms whose body no request ran, as
`path:line: qualname`, marked `perfbench` when a file of perfbench/
imports it, wraps it (`SPANS` in perfbench/tracer.py), calls it as an
attribute, or applies it as an operator to a class it imports.  A mark goes
by name, so a method that shares its name with an attribute perfbench reads
off another class is marked too (`GradedDecomposition.dim` beside
`MultTableAlgebra.dim`).  The last line gives the counts.  It exits 1 if a
replay does not match its entry.
"""

import ast
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "loopforms"
PERFBENCH = ROOT / "perfbench"

# the operators whose methods a class that perfbench imports can run
_OPERATORS = {
    ast.Add: "__add__",
    ast.Sub: "__sub__",
    ast.Mult: "__mul__",
    ast.Div: "__truediv__",
    ast.Pow: "__pow__",
    ast.USub: "__neg__",
}


def load_recorder():
    spec = importlib.util.spec_from_file_location("record_stdout", TOOLS / "record_stdout.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def definitions():
    """(path, first line, name, qualname) of every def in src/loopforms.  The
    first line is that of the first decorator, as in the def's code object."""
    found = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((str(path), first, child.name, prefix + child.name))
                visit(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            else:
                visit(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def perfbench_names():
    """What perfbench/ names of the package: the names it imports from it,
    the attributes and operator methods it reaches, and the
    `module.qualname` of each entry of the tracer's SPANS."""
    imported, attributes, operators, spans = set(), set(), set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("loopforms"):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPERATORS:
                operators.add(_OPERATORS[type(node.op)])
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "SPANS" for target in node.targets
            ):
                spans.update(f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value))
    return imported, attributes, operators, spans


def named_by_perfbench(module, qualname, names):
    imported, attributes, operators, spans = names
    owner, _, name = qualname.rpartition(".")
    if f"{module}.{qualname}" in spans:
        return True
    if not owner:
        return name in imported
    if "<locals>" in owner:
        return False
    return name in attributes or (owner in imported and name in operators)


def replay(recorder, ledger):
    """Replay every ledger entry in-process, in the current directory, under
    the hook; the (path, first line, name) of every src code that started,
    and the mismatches."""
    prefix = str(PACKAGE) + os.sep
    ran = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    failures = []
    sys.settrace(on_call)
    try:
        from loopforms import cli

        for argv_key, recorded in ledger.items():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(json.loads(argv_key))
            failure = recorder.mismatch(argv_key, recorded, code, out.getvalue())
            if failure:
                failures.append(failure)
    finally:
        sys.settrace(None)
    return ran, failures


def main(argv):
    if argv:
        print("usage: python tests/tools/trace_unrun.py  (it takes no arguments)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    recorder = load_recorder()
    ledger = recorder.load()
    started = time.perf_counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="trace-unrun-") as tmp:
        recorder.write_tables(Path(tmp))
        # import the package again under the hook, as a cold request does
        for name in [name for name in sys.modules if name.split(".")[0] == "loopforms"]:
            del sys.modules[name]
        os.chdir(tmp)
        try:
            ran, failures = replay(recorder, ledger)
        finally:
            os.chdir(cwd)
    seconds = time.perf_counter() - started
    names = perfbench_names()
    unrun = marked = 0
    defs = definitions()
    for path, first, name, qualname in defs:
        if (path, first, name) in ran:
            continue
        unrun += 1
        module = Path(path).stem
        mark = ""
        if named_by_perfbench(module, qualname, names):
            marked += 1
            mark = "  perfbench"
        print(f"{Path(path).relative_to(ROOT)}:{first}: {qualname}{mark}")
    print(
        f"{unrun} of {len(defs)} functions and methods ran in no request, "
        f"{marked} of them named by perfbench/; {len(ledger)} requests replayed, "
        f"{len(failures)} mismatched, in {seconds:.1f} s"
    )
    if failures:
        print(failures[0], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
