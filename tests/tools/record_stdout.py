"""Record the stdout of every pinned request in tests/golden/stdout.json.

Run from anywhere, with any Python the package supports:

    python tests/tools/record_stdout.py

The ledger holds, for each pinned argv, the exit code and the full stdout of
a cold `python -m loopforms ARGV` run under PYTHONHASHSEED=0.  Stdout is
stored as its list of lines, so a changed field shows as one changed line in
`git diff`.  The pinned requests are the ones `requests()` lists: every
request the benchmark pools in perfbench/pool.py, extract-gcm and centroid of
every diagram class, the centroid of M_6 twisted and untwisted, classify
of every type and of M_1, M_2 and M_3, `verify-all`, one composed D4
untwist, `grade` and `centroid` of a grading with empty residues, one
`--text` report and the `--help` text.

The pooled `--algebra` requests name tables under pool.TABLE_DIR, a path
relative to the working directory.  The recorder writes those tables under a
temporary directory, as perfbench/tables.py writes them under the checkout,
and runs every request there, so the printed paths are the pooled ones.

If a request exits 1 (a failed check or a crash) or is killed, the recorder
names it, writes nothing and exits 1.  Otherwise it rewrites the ledger,
sorted by argv.  Tier-1 replays the ledger in-process
(tests/test_stdout_ledger.py); this script is the cold check of the same
bytes.
"""

from __future__ import annotations

import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "tests" / "golden" / "stdout.json"
POOL = ROOT / "perfbench" / "pool.py"

# one D4 triality composed with a toral charge, with its untwisting map
UNTWIST_D4 = ["untwist", "--type", "D4", "--auto", '{"pi":[3,2,4,1],"s":[0,1,0,0],"m":3}']

# A1 graded by the zero charge at m = 3: every vector lies in residue 0, so
# residues 1 and 2 are empty (dims [3, 0, 0])
EMPTY_RESIDUES = [
    [command, "--type", "A1", "--auto", '{"s":[0],"m":3}'] for command in ("grade", "centroid")
]

# the A2 flip's GCM as text: the one pinned report that the renderer prints
# as a list of lists, in nested bullets
EXTRACT_TEXT = ["extract-gcm", "--type", "A2", "--auto", '{"pi":[2,1]}', "--text"]

# the M_n centroid past the pool's M_4, twisted and untwisted
CENTROID_M6 = [
    ["centroid", "--matrix-algebra", "6", "--auto", '{"exponents":[0,1,2,3,4,5],"m":6}'],
    ["centroid", "--matrix-algebra", "6"],
]

# toral and composed twists whose simple roots sit at several degrees; G2 at
# order 6 has one at degree 4
_EXTRACT_TWISTS = (
    ("A2", '{"pi":[2,1],"s":[1,1],"m":2}'),
    ("D4", '{"pi":[3,2,4,1],"s":[1,0,1,1],"m":3}'),
    ("A2", '{"s":[1,0],"m":3}'),
    ("G2", '{"s":[1,0],"m":6}'),
)


def key(argv: list[str]) -> str:
    """The ledger's key for argv, as perfbench/expected.json writes it."""
    return json.dumps(argv, separators=(",", ":"))


def load_pool():
    """perfbench/pool.py, which only stdlib code imports."""
    spec = importlib.util.spec_from_file_location("perfbench_pool", POOL)
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return pool


def _class_requests(command: str, labels) -> list[list[str]]:
    """command on every diagram-class representative of every label."""
    from loopforms.classify import dynkin_automorphism_group
    from loopforms.chevalley import cartan_matrix

    requests = []
    for label in labels:
        for rep, _ in dynkin_automorphism_group(cartan_matrix(label)).classes:
            argv = [command, "--type", label]
            if rep.order() > 1:
                argv += ["--auto", key({"pi": [i + 1 for i in rep.images]})]
            requests.append(argv)
    return requests


def extract_requests() -> list[list[str]]:
    """extract-gcm of every diagram class of every type but E8, then the
    twists above.  test_affine checks E8's label."""
    from loopforms.chevalley import TYPE_LABELS

    extract = _class_requests("extract-gcm", [label for label in TYPE_LABELS if label != "E8"])
    return extract + [["extract-gcm", "--type", label, "--auto", auto] for label, auto in _EXTRACT_TWISTS]


def centroid_requests() -> list[list[str]]:
    """centroid of every diagram class and classify of every type but E7 and
    E8, then the benchmark's centroid variants and M_6 at m = 6 and m = 1.
    test_classify checks the class counts of E7 and E8."""
    from loopforms.chevalley import TYPE_LABELS

    small = [label for label in TYPE_LABELS if label not in ("E7", "E8")]
    requests = _class_requests("centroid", small) + [["classify", "--type", label] for label in small]
    variants = [
        argv
        for name, stratum in load_pool().strata("twist")
        if name in ("centroid A3", "centroid M4")
        for argv in stratum
    ]
    # the pool's first A3 variant is a diagram class above
    return requests + [argv for argv in variants if argv not in requests] + CENTROID_M6


def requests() -> list[list[str]]:
    """Every pinned argv, each once."""
    pool = load_pool()
    pooled = [argv for workload in pool.WORKLOADS for argv in pool.pool(workload)]
    pinned = [
        *pooled,
        *extract_requests(),
        *centroid_requests(),
        *(["classify", "--matrix-algebra", str(n)] for n in (1, 2, 3)),
        ["verify-all"],
        UNTWIST_D4,
        *EMPTY_RESIDUES,
        EXTRACT_TEXT,
        ["--help"],
    ]
    unique = {key(argv): argv for argv in pinned}
    return list(unique.values())


def write_tables(root: Path) -> None:
    """Write every pooled --algebra table under root, at the relative path
    the pooled requests name."""
    from loopforms.chevalley import algebra_over
    from loopforms.descent import build_matrix_algebra

    pool = load_pool()
    out = root / pool.TABLE_DIR
    out.mkdir(parents=True, exist_ok=True)
    for name, (kind, what, order) in pool.TABLES.items():
        if kind == "lie":
            _, alg = algebra_over(what, order)
        else:
            alg, _ = build_matrix_algebra(what, [0] * what, order)
        (out / f"{name}.json").write_text(json.dumps(alg.to_obj()), encoding="utf-8")


def entry(code: int, stdout: str) -> dict:
    return {"exit": code, "stdout": stdout.split("\n")}


def stdout_of(recorded: dict) -> str:
    return "\n".join(recorded["stdout"])


def load(path: Path = LEDGER) -> dict[str, dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def dump(ledger: dict[str, dict]) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def mismatch(argv_key: str, recorded: dict, code: int, stdout: str) -> str:
    """Empty when code and stdout are the recorded ones; otherwise the argv,
    both exit codes and a unified diff of the first lines that differ."""
    produced = entry(code, stdout)
    if produced == recorded:
        return ""
    lines = [f"{argv_key}: exit {code}, recorded exit {recorded['exit']}"]
    hunks = 0
    for line in difflib.unified_diff(
        recorded["stdout"], produced["stdout"], "recorded", "produced", lineterm=""
    ):
        hunks += line.startswith("@@")
        if hunks > 1:
            break
        lines.append(line)
    return "\n".join(lines)


def run_cold(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `python -m loopforms ARGV` in a fresh
    process under PYTHONHASHSEED=0."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    result = subprocess.run(
        [sys.executable, "-m", "loopforms", *argv],
        cwd=cwd,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
    )
    return result.returncode, result.stdout.decode("utf-8"), result.stderr.decode("utf-8", "replace")


def record(pinned: list[list[str]], path: Path) -> int:
    """Run every request cold and write their ledger to path; write nothing
    and return 1 if one exits 1 or is killed.  Exit 2, a refused input, is
    recorded like exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp))
        with ThreadPoolExecutor(max_workers=2) as workers:
            results = list(workers.map(lambda argv: run_cold(argv, Path(tmp)), pinned))
    ledger, failed = {}, 0
    for argv, (code, stdout, stderr) in zip(pinned, results):
        if code not in (0, 2):
            failed += 1
            print(f"exit {code}: {' '.join(argv)}\n{stderr[-2000:]}", file=sys.stderr)
        ledger[key(argv)] = entry(code, stdout)
    if failed:
        print(f"{failed} of {len(pinned)} requests failed; {path} is unchanged", file=sys.stderr)
        return 1
    path.write_text(dump(ledger), encoding="utf-8")
    print(f"recorded {len(ledger)} requests in {path}", file=sys.stderr)
    return 0


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tests/tools/record_stdout.py  (it takes no arguments)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return record(requests(), LEDGER)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
