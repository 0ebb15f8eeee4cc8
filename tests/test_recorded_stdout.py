"""Requests of the benchmark pools print the bytes recorded in
perfbench/expected.json.

One request per stratum of the `twist` and `identify` workloads (the first of
each stratum in perfbench/pool.py) plus `build --type D4` runs in-process
through `cli.main`, and the sha256 of its stdout must equal the recorded
digest.  The file is only read here; a refactor that changes any of these
bytes fails this test rather than the benchmark's correctness gate alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from loopforms import cli

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"

REQUESTS = [
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


def _recorded() -> dict:
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("argv", REQUESTS, ids=[" ".join(argv[:3]) for argv in REQUESTS])
def test_stdout_matches_recorded_digest(argv, capsys):
    key = json.dumps(argv, separators=(",", ":"))
    recorded = _recorded()
    assert key in recorded, f"{key} is not in {EXPECTED.name}"
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded[key]
