#!/usr/bin/env python3
"""Cold-CLI benchmark of loopforms.

Usage (from the root of a checkout that holds ``src/loopforms``):

    python3 perfbench/run.py --workload {construct,twist,identify} \\
        --seed N --seconds S --trace {0,1}

The end-to-end unit is one cold ``python -m loopforms <command>`` process.
The load is a closed loop with one client: the next request process starts
when the previous one has exited.  A round is the request list that
``pool.sample`` draws from the seed, in an order drawn anew for each round;
a run makes ``pool.rounds(workload, --seconds)`` rounds, a number fixed by
``--seconds`` alone, so every commit runs the same requests.  Every request
is checked: exit code 0, status ``pass`` and stdout bytes equal to the sha256
recorded in ``expected.json``.  Each request process gets its own
``PYTHONHASHSEED`` drawn from the seed, so the byte check also covers
determinism across processes and hash seeds.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s, cpu_s and
peak_rss_mb.  Each request is timed once per round and taken at its median
over the rounds, so a slow spell that hits a minority of a request's rounds
does not move the result.  The median and slowest request wall times are
printed for reading but are not metrics: an ``identify`` run holds three
requests, of three different commands.
``--trace 1`` runs one round untraced and the same round traced through
``tracer.py``, and reports the per-layer metrics, ``trace.overhead_frac``
and the microbenchmarks of ``micro.py``.

``--workload defects`` runs the requests in ``pool.DEFECTS`` once and
reports their fail_frac; it is not a timed workload.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it name every metric with its
unit and record the machine.  Exit code 2, with no result line, means the
benchmark could not run (no ``src/loopforms`` beside it, or no recorded
digests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pool
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 3
# a run must end within 180 s: past this point of a run, a request is killed
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
MICRO_UNITS = {
    "cyclo.mul_us.o1": "us",
    "cyclo.mul_us.o3": "us",
    "cyclo.mul_us.o6": "us",
    "cyclo.add_us.o3": "us",
    "cyclo.inv_us.o3": "us",
    "cyclo.zero_us": "us",
    "linalg.nullspace_ms.d4_triality": "ms",
}
PER_LAYER_UNITS = {**tracer.UNITS, "trace.overhead_frac": "ratio", **MICRO_UNITS}


class BenchError(Exception):
    """The benchmark cannot run here: exit 2 without a result."""


@dataclass
class Result:
    argv: list[str]
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def request_env(hashseed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


class Runner:
    """Starts request processes one at a time and measures each with wait4."""

    def __init__(self, seed: int, stop_at: float) -> None:
        self.hashseeds = random.Random(f"hashseed:{seed}")
        self.stop_at = stop_at  # perf_counter time past which requests are killed

    def run(self, argv: list[str], prefix: list[str] | None = None, hashseed: int | None = None) -> Result:
        """Run ``python -m loopforms ARGV``, or ``python PREFIX ARGV`` when given."""
        command = [sys.executable, *(prefix or ["-m", "loopforms"]), *argv]
        remaining = self.stop_at - time.perf_counter()
        if remaining <= 0:
            return Result(argv, -1, b"", 0.0, 0.0, 0.0)
        if hashseed is None:
            hashseed = self.hashseeds.randrange(1, 2**32)
        env = request_env(hashseed)
        started = time.perf_counter()
        with open(WORK / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            argv,
            proc.returncode,
            out,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
        )


def passed(result: Result, expected: dict[str, str]) -> bool:
    """Exit 0, status pass (JSON output) and the recorded stdout digest."""
    if result.returncode != 0:
        return False
    if expected.get(pool.key(result.argv)) != hashlib.sha256(result.stdout).hexdigest():
        return False
    if result.stdout.startswith(b"{"):
        try:
            return json.loads(result.stdout).get("status") == "pass"
        except ValueError:
            return False
    return True


def labels_in(obj) -> list[str]:
    if isinstance(obj, dict):
        found = [v for k, v in obj.items() if k in ("label", "affine_label") and isinstance(v, str)]
        return found + [x for v in obj.values() for x in labels_in(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in labels_in(v)]
    return []


def write_tables(requests: list[list[str]]) -> None:
    """Import loopforms once, cold, in a fresh process that writes the tables."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "tables.py"), str(ROOT), *pool.tables_for(requests)],
        cwd=ROOT,
        env=request_env(0),
        stdin=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise BenchError("set-up failed")


def setup(workload: str, seed: int) -> tuple[list[list[str]], float]:
    """Draw the requests, write their tables and import loopforms once, cold."""
    started = time.perf_counter()
    requests = pool.sample(workload, seed)
    write_tables(requests)
    return requests, time.perf_counter() - started


def load_expected() -> dict[str, str]:
    try:
        return json.loads(EXPECTED.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {EXPECTED}: {exc}") from exc


def end_to_end(per_request: list[list[Result]], setup_times: list[float]) -> dict[str, float]:
    """PER_REQUEST[i] holds the results of request i, one per round.  A round
    costs the sum of its requests, each at its median over the rounds."""
    wall = [statistics.median(r.wall_s for r in results) for results in per_request]
    cpu = [statistics.median(r.cpu_s for r in results) for results in per_request]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(r.rss_mb for results in per_request for r in results),
    }


def timed_rounds(runner: Runner, requests: list[list[str]], count: int, seed: int) -> list[list[Result]]:
    """COUNT rounds of REQUESTS, each in its own seeded order; the results of
    requests[i] are at index i, in round order."""
    orders = random.Random(f"order:{seed}")
    per_request: list[list[Result]] = [[] for _ in requests]
    for _ in range(count):
        order = list(range(len(requests)))
        orders.shuffle(order)
        for i in order:
            per_request[i].append(runner.run(requests[i]))
    return per_request


def traced_round(runner: Runner, requests: list[list[str]], seed: int) -> tuple[list[Result], list[dict]]:
    results, dumps = [], []
    for index, argv in enumerate(requests):
        dump_path = WORK / "dump.json"
        dump_path.unlink(missing_ok=True)
        request_id = f"{seed}-{index}"
        result = runner.run(argv, [str(HERE / "tracer.py"), str(dump_path), request_id, "--"])
        results.append(result)
        try:
            dumps.append(json.loads(dump_path.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            print(f"perfbench: no trace for request {request_id}", file=sys.stderr)
            result.returncode = -1  # a traced request without its trace fails
    return results, dumps


def micro() -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "micro.py")],
        cwd=ROOT,
        env=request_env(0),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise BenchError("microbenchmarks failed")
    return json.loads(proc.stdout)


def machine_facts(workload: str, seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    facts = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "src_sha256": source.hexdigest(),
    }
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if head.returncode == 0:
            facts["commit"] = head.stdout.strip()
    return facts


def report(results: list[Result], ok: list[bool], metrics: dict[str, float], units: dict[str, str]) -> dict:
    failed = ok.count(False)
    for result, good in zip(results, ok):
        if not good:
            print(f"FAILED exit={result.returncode} {' '.join(result.argv)}")
    print(f"fail_frac {failed / len(results):.4f} ratio ({failed} of {len(results)} requests)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_defects(runner: Runner) -> dict:
    results = [runner.run(argv) for argv, _ in pool.DEFECTS]
    ok = []
    for result, (_, labels) in zip(results, pool.DEFECTS):
        try:
            got = labels_in(json.loads(result.stdout))
        except ValueError:
            got = []
        ok.append(result.returncode == 0 and sorted(got) == sorted(labels))
        print(f"expected {labels}, got {got}: {' '.join(result.argv)}")
    failed = ok.count(False)
    return report(results, ok, {"fail_frac": failed / len(results)}, {"fail_frac": "ratio"})


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if not (ROOT / "src" / "loopforms" / "__init__.py").is_file():
        raise BenchError(f"no loopforms sources under {ROOT / 'src'}")
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner(seed, started + RUN_LIMIT_S)
    if workload == "defects":
        return run_defects(runner)
    expected = load_expected()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        requests, elapsed = setup(workload, seed)
        setup_times.append(elapsed)
    print(f"# machine {json.dumps(machine_facts(workload, seed))}")
    if not trace:
        count = pool.rounds(workload, seconds)
        per_request = timed_rounds(runner, requests, count, seed)
        results = [r for rs in per_request for r in rs]
        print(f"# {count} round(s) of {len(requests)} requests, one client, closed loop")
        walls = [r.wall_s for r in results]
        print(
            f"# request wall time over {len(walls)} requests: "
            f"median {statistics.median(walls):.4g} s, slowest {max(walls):.4g} s"
        )
        return report(
            results,
            [passed(r, expected) for r in results],
            end_to_end(per_request, setup_times),
            END_TO_END_UNITS,
        )
    plain = [runner.run(argv) for argv in requests]
    traced, dumps = traced_round(runner, requests, seed)
    spans = [span for dump in dumps for span in dump["spans"]]
    (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    for name in sorted({m for dump in dumps for m in dump["missing"]}):
        print(f"perfbench: {name} not found; its layer reads 0", file=sys.stderr)
    metrics = tracer.layer_metrics(dumps) if dumps else {}
    metrics["trace.overhead_frac"] = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1
    metrics.update(micro())
    results = plain + traced
    print(f"# one untraced and one traced round of {len(requests)} requests; {len(spans)} spans")
    return report(results, [passed(r, expected) for r in results], metrics, PER_LAYER_UNITS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS + ("defects",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
