"""`verify-all`: each request of `_VERIFY_TABLE` runs through `cli._request`,
the path `main` runs, and its report must hold the row's fields; the table
then reruns in a fresh interpreter under another hash seed
(`python -m loopforms.verify`), and the serialized reports of every request
must match byte for byte.  Only verify-all's row of `cli._COMMANDS` imports
this module, so no other request compiles the table.
"""

import json
import os
import subprocess
import sys

from .cli import _request
from .record import read_int

__all__ = ["run"]

# (a request's argv, joined by spaces, and the payload fields its report
# must hold), each row a known answer on a small fixture, certified by the
# command that prints it
_VERIFY_TABLE = (
    # construction: dim = roots + rank, every table certified by its fold
    ("build --type A1", {"dim": 3, "roots": 2, "rank": 1}),
    ("build --type A2", {"dim": 8, "roots": 6, "rank": 2}),
    ("build --type A3", {"dim": 15, "roots": 12, "rank": 3}),
    ("build --type B2", {"dim": 10, "roots": 8, "rank": 2}),
    ("build --type C3", {"dim": 21, "roots": 18, "rank": 3}),
    ("build --type D4", {"dim": 28, "roots": 24, "rank": 4}),
    ("build --type G2", {"dim": 14, "roots": 12, "rank": 2}),
    # gradings: the eigenspace dimensions of a twist, which sum to dim A
    ('grade --type A1 --auto {"s":[1],"m":2}', {"period": 2, "dims": [1, 2]}),
    ('grade --type A2 --auto {"pi":[2,1]}', {"period": 2, "dims": [3, 5]}),
    ('grade --type D4 --auto {"pi":[3,2,4,1]}', {"period": 3, "dims": [14, 7, 7]}),
    ('grade --type A2 --auto {"pi":[2,1],"s":[1,1],"m":2}', {"period": 2, "dim_total": 8}),
    ('grade --matrix-algebra 3 --auto {"exponents":[0,1,2],"m":3}', {"period": 3, "dim_total": 9}),
    # descent: the cocycle identity and the twisted fixed points of the same
    # twists
    ('descent-verify --type A1 --auto {"s":[1],"m":2}', {"period": 2}),
    ('descent-verify --type A2 --auto {"pi":[2,1]}', {"period": 2}),
    ('descent-verify --type D4 --auto {"pi":[3,2,4,1]}', {"period": 3}),
    ('descent-verify --type A2 --auto {"pi":[2,1],"s":[1,1],"m":2}', {"period": 2}),
    ('descent-verify --matrix-algebra 3 --auto {"exponents":[0,1,2],"m":3}', {"period": 3}),
    # triviality: a toral twist of a type label or of M_n untwists onto
    # L(id), and a composed twist onto L(pi)
    ('untwist --type A1 --auto {"s":[1],"m":2}', {"period": 2}),
    ('untwist --type A2 --auto {"s":[1,0],"m":3}', {"period": 3}),
    ('untwist --type A2 --auto {"s":[1,1],"m":2}', {"period": 2}),
    ('untwist --type D4 --auto {"s":[1,0,0,0],"m":2}', {"period": 2}),
    ('untwist --matrix-algebra 2 --auto {"exponents":[0,1],"m":2}', {"period": 2}),
    ('untwist --matrix-algebra 3 --auto {"exponents":[0,1,2],"m":3}', {"period": 3}),
    ('untwist --type A2 --auto {"pi":[2,1],"s":[1,1],"m":2}', {"period": 2}),
    ('untwist --type D4 --auto {"pi":[3,2,4,1],"s":[1,0,1,1],"m":3}', {"period": 3}),
    # affine labels: L(pi o tau_s) has the label of L(pi)
    ("extract-gcm --type A1", {"label": "A1^(1)", "gcm": [[2, -2], [-2, 2]]}),
    ('extract-gcm --type A2 --auto {"pi":[2,1]}', {"label": "A2^(2)"}),
    ('extract-gcm --type A2 --auto {"pi":[2,1],"s":[1,1],"m":2}', {"label": "A2^(2)"}),
    ('extract-gcm --type D4 --auto {"pi":[3,2,4,1]}', {"label": "D4^(3)"}),
    ('extract-gcm --type D4 --auto {"pi":[3,2,4,1],"s":[1,0,1,1],"m":3}', {"label": "D4^(3)"}),
    # classification: as many classes over R as over k
    ("classify --type A1", {"r_classes": 1, "k_classes": 1}),
    ("classify --type A2", {"r_classes": 2, "k_classes": 2}),
    ("classify --type A3", {"r_classes": 2, "k_classes": 2}),
    ("classify --type B2", {"r_classes": 1, "k_classes": 1}),
    ("classify --type D4", {"r_classes": 3, "k_classes": 3}),
    ("classify --type G2", {"r_classes": 1, "k_classes": 1}),
)


def run() -> dict:
    """verify-all's payload: the table's rows, and whether a fresh
    interpreter serialized the same reports."""
    rows, serialized = _run_table()
    identical = serialized == _fresh_rerun()
    passed = all("report" not in row for row in rows)
    return {
        "rows": rows,
        "determinism": {"identical_bytes": identical, "bytes": len(serialized)},
        "status": "pass" if passed and identical else "fail",
    }


def _run_table() -> tuple[list[dict], bytes]:
    """One row per request of `_VERIFY_TABLE`: its argv, the command's own
    status, and whether each expected field equals the payload's.  A row
    that fails, by its status or by a field, also holds the command's
    report.  Then the reports of every request, serialized: the bytes the
    determinism check compares, every payload field included."""
    rows, reports = [], []
    for line, expected in _VERIFY_TABLE:
        argv = line.split()
        code, report, _ = _request(argv)
        payload = report.get("payload", {})
        matches = {
            name: name in payload and payload[name] == want for name, want in expected.items()
        }
        row = {"argv": argv, "status": report["status"], "matches": matches}
        if code != 0 or not all(matches.values()):
            row["report"] = report
        rows.append(row)
        reports.append(report)
    return rows, json.dumps(reports, sort_keys=True).encode()


def _fresh_rerun() -> bytes:
    """The serialized reports of the table from a new interpreter, which shares
    no cache with this one, under a hash seed other than this process's."""
    seed = read_int(os.environ.get("PYTHONHASHSEED", ""))
    env = dict(os.environ)
    # 0 when this process hashes at random, else the next seed
    env["PYTHONHASHSEED"] = "0" if seed is None else str((seed + 1) % 2**32)
    # the directory holding this package, so the child imports this same code
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.run([sys.executable, "-m", "loopforms.verify"], capture_output=True, env=env)
    return child.stdout if child.returncode == 0 else b""


if __name__ == "__main__":
    sys.stdout.buffer.write(_run_table()[1])
