"""Every pinned request prints the bytes recorded in tests/golden/stdout.json.

The ledger holds, per argv, the exit code and the stdout lines of a cold run;
`python tests/tools/record_stdout.py` writes it.  Every entry is replayed
in-process through `cli.main` once: here, unless a test of its own replays
it (tests/ledger.py lists those), and a mismatch fails with a unified diff
of the first lines that differ.  perfbench/expected.json, the
benchmark's own gate, is only read: each of its digests must be the sha256
of the ledger's bytes for the same argv.
"""

import hashlib
import json
from pathlib import Path

from ledger import assert_replays, named_requests, recorder
from loopforms.chevalley import algebra_over

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def test_every_entry_replays_its_recorded_stdout(tmp_path, monkeypatch):
    ledger = recorder.load()
    named = {recorder.key(argv) for argv in named_requests()}
    # 15 strata, 48 extract-gcm and 84 centroid or classify requests, less 4
    # that two lists share
    assert len(named) == 143 and named <= set(ledger)
    recorder.write_tables(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert_replays([json.loads(argv_key) for argv_key in ledger if argv_key not in named])


def test_a_changed_field_fails_with_a_diff_that_shows_it():
    argv_key = recorder.key(["build", "--type", "D4"])
    recorded = recorder.load()[argv_key]
    stdout = recorder.stdout_of(recorded)
    assert '    "dim": 28,\n' in stdout
    failure = recorder.mismatch(argv_key, recorded, 0, stdout.replace('"dim": 28', '"dim": 29', 1))
    assert failure.startswith(f"{argv_key}: exit 0, recorded exit 0\n")
    assert '\n-    "dim": 28,\n' in failure
    assert '\n+    "dim": 29,\n' in failure
    failure = recorder.mismatch(argv_key, recorded, 1, stdout)
    assert failure == f"{argv_key}: exit 1, recorded exit 0"
    assert recorder.mismatch(argv_key, recorded, 0, stdout) == ""


def test_ledger_holds_every_pinned_request_as_the_recorder_writes_it():
    ledger = recorder.load()
    assert sorted(ledger) == sorted(recorder.key(argv) for argv in recorder.requests())
    # 112 pooled, 48 extract-gcm and 84 centroid or classify requests, three
    # classify of M_N, verify-all, the D4 untwist, grade and centroid with
    # empty residues, the --text extraction and --help, less 17 that two
    # lists share
    assert len(ledger) == 236
    assert recorder.LEDGER.read_text(encoding="utf-8") == recorder.dump(ledger)


def test_benchmark_digests_are_the_ledgers_bytes():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert len(expected) == 112
    ledger = recorder.load()
    produced = {
        argv_key: hashlib.sha256(recorder.stdout_of(ledger[argv_key]).encode("utf-8")).hexdigest()
        for argv_key in expected
        if argv_key in ledger
    }
    assert produced == expected


def test_recorder_takes_no_option_and_writes_nothing_when_a_request_fails(tmp_path):
    assert recorder.main(["--help"]) == 2
    # sl_2 with [h, e] = 3e: the Jacobi identity fails, so build exits 1
    obj = algebra_over("A1", 1)[1].to_obj()
    assert obj["constants"][0][:2] == [0, 1] and obj["constants"][2][:2] == [1, 0]
    obj["constants"][0] = [0, 1, [[1, {"order": 1, "coeffs": ["3"]}]]]
    obj["constants"][2] = [1, 0, [[1, {"order": 1, "coeffs": ["-3"]}]]]
    table = tmp_path / "jacobi.json"
    table.write_text(json.dumps(obj), encoding="utf-8")
    path = tmp_path / "stdout.json"
    assert recorder.record([["build", "--type", "A1"], ["build", "--algebra", str(table)]], path) == 1
    assert not path.exists()
    assert recorder.record([["build", "--type", "A1"], ["build", "--type", "Q9"]], path) == 0
    ledger = recorder.load(path)
    assert [entry["exit"] for entry in ledger.values()] == [0, 2]
    assert ledger[recorder.key(["build", "--type", "Q9"])]["stdout"] == [""]
