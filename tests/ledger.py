"""The ledger of recorded stdout, tests/golden/stdout.json, for the tests
that replay it.

`recorder` is tests/tools/record_stdout.py, loaded as a module: it lists the
pinned requests, reads the ledger and compares a run with its entry.
`assert_replays` runs requests in-process through `cli.main` and fails with
the changed argvs and a unified diff of the first lines that differ;
`assert_recorded` checks one cold run.  Each entry is replayed in-process
once: the named tests replay `named_requests()`, and the full replay in
tests/test_stdout_ledger.py the rest.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from loopforms import cli

_spec = importlib.util.spec_from_file_location(
    "record_stdout", Path(__file__).resolve().parent / "tools" / "record_stdout.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

# the first request of each stratum of the twist and identify pools, and
# build --type D4: tests/test_recorded_stdout.py replays one case each
STRATUM_REQUESTS = [
    # twist
    ["grade", "--type", "A2", "--auto", '{"pi":[2,1],"s":[1,1],"m":3}'],
    ["grade", "--type", "D4", "--auto", '{"pi":[3,2,4,1]}'],
    ["grade", "--matrix-algebra", "4", "--auto", '{"exponents":[0,1,2,3],"m":4}'],
    ["grade", "--type", "C3", "--auto", '{"s":[0,1,0],"m":4}'],
    ["descent-verify", "--type", "B3", "--auto", '{"s":[1,0,0],"m":3}'],
    ["descent-verify", "--type", "G2", "--auto", '{"s":[1,0],"m":6}'],
    ["descent-verify", "--matrix-algebra", "4", "--auto", '{"exponents":[0,1,2,3],"m":6}'],
    ["untwist", "--type", "A2", "--auto", '{"s":[1,1],"m":6}'],
    ["untwist", "--matrix-algebra", "2", "--auto", '{"exponents":[0,1],"m":3}'],
    ["centroid", "--type", "A3", "--auto", '{"pi":[3,2,1]}'],
    ["centroid", "--matrix-algebra", "4", "--auto", '{"exponents":[0,1,2,3],"m":4}'],
    # identify
    ["extract-gcm", "--type", "A2", "--auto", '{"pi":[2,1]}'],
    ["extract-gcm", "--type", "D4", "--auto", '{"pi":[4,2,1,3]}'],
    ["classify", "--type", "A2"],
    # construct
    ["build", "--type", "D4"],
]


def named_requests():
    """The requests that a test of their own replays: the strata above, the
    extract-gcm digests of tests/test_affine.py and the centroid and
    classify digests of tests/test_classify.py."""
    return [*STRATUM_REQUESTS, *recorder.extract_requests(), *recorder.centroid_requests()]


def _mismatch(ledger, argv, code, stdout):
    argv_key = recorder.key(list(argv))
    return recorder.mismatch(argv_key, ledger[argv_key], code, stdout)


def assert_replays(pinned):
    """Each argv in pinned, run in the current directory, exits with the
    ledger's code and prints the ledger's stdout."""
    ledger = recorder.load()
    failures = []
    for argv in pinned:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        failure = _mismatch(ledger, argv, code, out.getvalue())
        if failure:
            failures.append(failure)
    if failures:
        changed = "\n".join(failure.partition("\n")[0] for failure in failures)
        summary = f"{len(failures)} of {len(pinned)} requests changed:\n{changed}"
        pytest.fail(f"{summary}\n\n{failures[0]}", pytrace=False)


def assert_recorded(argv, result):
    """A cold run, a finished subprocess, printed the ledger's exit code and
    stdout for argv."""
    failure = _mismatch(recorder.load(), argv, result.returncode, result.stdout)
    if failure:
        pytest.fail(failure, pytrace=False)
