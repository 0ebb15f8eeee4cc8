"""One request per stratum of the benchmark pools prints its recorded bytes.

The first request of each stratum of the `twist` and `identify` workloads in
perfbench/pool.py, plus `build --type D4`, runs in-process through
`cli.main` and must print its entry of tests/golden/stdout.json.  The full
replay in tests/test_stdout_ledger.py leaves these out; one case each names
the stratum a change touched.
"""

import pytest

from ledger import STRATUM_REQUESTS, assert_replays, recorder


@pytest.mark.parametrize("argv", STRATUM_REQUESTS, ids=[" ".join(argv[:3]) for argv in STRATUM_REQUESTS])
def test_stdout_matches_recorded_digest(argv):
    pooled = recorder.load_pool()
    assert argv in [request for workload in pooled.WORKLOADS for request in pooled.pool(workload)]
    assert recorder.load()[recorder.key(argv)]["exit"] == 0
    assert_replays([argv])
