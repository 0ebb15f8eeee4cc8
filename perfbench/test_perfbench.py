"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import time

import pytest

import pool
import run

SEEDS = range(50)


def _auto(argv: list[str]) -> dict:
    return json.loads(argv[argv.index("--auto") + 1]) if "--auto" in argv else {}


def test_same_seed_gives_same_requests():
    for workload in pool.WORKLOADS:
        assert pool.sample(workload, 11) == pool.sample(workload, 11)
    assert any(pool.sample("twist", 1) != pool.sample("twist", seed) for seed in range(2, 6))


def test_every_round_takes_one_request_from_every_stratum():
    for workload in pool.WORKLOADS:
        strata = pool.strata(workload)
        for seed in SEEDS:
            keys = [pool.key(argv) for argv in pool.sample(workload, seed)]
            assert len(keys) == len(strata)
            for _, choices in strata:
                assert sum(pool.key(argv) in keys for argv in choices) == 1


def test_every_generated_request_is_in_the_recorded_pool():
    expected = run.load_expected()
    for workload in pool.WORKLOADS:
        pooled = {pool.key(argv) for argv in pool.pool(workload)}
        assert pooled <= set(expected)
        for seed in SEEDS:
            assert {pool.key(argv) for argv in pool.sample(workload, seed)} <= pooled


def test_charges_are_pi_invariant():
    requests = [argv for w in pool.WORKLOADS for argv in pool.pool(w)]
    requests += [argv for argv, _ in pool.DEFECTS]
    checked = 0
    for argv in requests:
        auto = _auto(argv)
        m = auto.get("m", 1)
        assert isinstance(m, int) and not isinstance(m, bool) and m >= 1
        if "--matrix-algebra" in argv:
            n = int(argv[argv.index("--matrix-algebra") + 1])
            assert len(auto["exponents"]) == n
            continue
        if not auto:
            continue
        rank = pool.RANK[argv[argv.index("--type") + 1]]
        pi = auto.get("pi") or list(range(1, rank + 1))
        s = auto.get("s") or [0] * rank
        assert sorted(pi) == list(range(1, rank + 1)) and len(s) == rank
        assert all(s[i] == s[pi[i] - 1] for i in range(rank)), argv
        checked += 1
    assert checked > 50


def test_tampered_digest_counts_as_failure():
    if not (run.ROOT / "src" / "loopforms").is_dir():
        pytest.skip("needs the loopforms sources beside the benchmark")
    run.WORK.mkdir(parents=True, exist_ok=True)
    argv = pool.strata("twist")[0][1][0]
    result = run.Runner(5, time.perf_counter() + 60).run(argv)
    expected = run.load_expected()
    assert run.passed(result, expected)
    tampered = dict(expected)
    tampered[pool.key(argv)] = "0" * 64
    assert not run.passed(result, tampered)


def test_round_count_depends_on_seconds_only():
    assert [pool.rounds(w, 36) for w in pool.WORKLOADS] == [4, 3, 1]
    assert all(pool.rounds(w, 1) == 1 for w in pool.WORKLOADS)


def test_each_request_counts_at_its_median_over_rounds():
    def result(wall: float) -> run.Result:
        return run.Result(["x"], 0, b"", wall, wall / 2, 10.0)

    per_request = [[result(1.0), result(9.0), result(1.2)], [result(2.0), result(2.2), result(2.1)]]
    metrics = run.end_to_end(per_request, [0.3, 0.1, 0.2])
    assert metrics["wall_s"] == 1.2 + 2.1
    assert metrics["cpu_s"] == (1.2 + 2.1) / 2
    assert metrics["setup_s"] == 0.2
    assert set(metrics) == set(run.END_TO_END_UNITS)
