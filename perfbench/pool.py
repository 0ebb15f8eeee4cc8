"""Request pools of the benchmark workloads and the seeded sampler.

A workload is a list of strata.  A stratum holds requests of one command on
one type (or one family of types) that cost about the same: the variants are
the same twist written differently (a Galois conjugate k*s mod m, a charge
shifted by m on a whole pi-orbit, an image under a diagram symmetry, a
permuted or shifted exponent list, or JSON versus text output).  One round of
a workload draws one request from every stratum and shuffles their order, so
every seed does the same amount of each kind of work while the program sees
different argv and prints different bytes.

A run repeats the same request list in ``rounds(workload, seconds)`` rounds,
so every request is timed several times and its median over the run is used.

Requests are argv lists for ``python -m loopforms``.  Only requests that pass
at the commit that recorded ``expected.json`` are pooled; requests that fail
there are listed in ``DEFECTS`` with the label Kac's tables give for them.
"""

from __future__ import annotations

import json
import random
from math import gcd

WORKLOADS = ("construct", "twist", "identify")

# About the wall time of one round at the recording commit, on a 2-vCPU
# Intel Xeon VM with Python 3.11.  A run of S seconds makes S // ROUND_S rounds (at least
# one), so the number of rounds, and with it the work, depends only on
# --seconds: a faster or slower commit runs the same requests.
ROUND_S = {"construct": 9.0, "twist": 12.0, "identify": 36.0}

TABLE_DIR = "perfbench/.work/tables"

# table name -> (kind, type label or matrix size, scalar order)
TABLES = {
    "lie-B3-o3": ("lie", "B3", 3),
    "mat-6-o3": ("matrix", 6, 3),
}

RANK = {"A2": 2, "A3": 3, "A4": 4, "B3": 3, "C3": 3, "D4": 4, "G2": 2}

# diagram symmetry groups, one-based node images, identity first
_SYMMETRIES = {
    "A2": ([1, 2], [2, 1]),
    "A3": ([1, 2, 3], [3, 2, 1]),
    "B3": ([1, 2, 3],),
    "C3": ([1, 2, 3],),
    "D4": ([1, 2, 3, 4], [1, 2, 4, 3], [3, 2, 1, 4], [4, 2, 3, 1], [3, 2, 4, 1], [4, 2, 1, 3]),
    "G2": ([1, 2],),
}

_A2_FLIP = [2, 1]
_A3_FLIP = [3, 2, 1]
_D4_TRIALITY = ([3, 2, 4, 1], [4, 2, 1, 3])
# D4 diagram twists whose extraction the affine catalog does not already
# cache in-process (its fixtures use [3, 2, 4, 1] and [1, 2, 4, 3]), so every
# variant does the same work
_D4_UNCACHED = ([4, 2, 1, 3], [3, 2, 1, 4], [4, 2, 3, 1])


def _auto(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _units(m: int) -> list[int]:
    return [k for k in range(1, max(m, 2)) if gcd(k, m) == 1]


def _orbits(pi: list[int]) -> list[list[int]]:
    """Zero-based orbits of a one-based node permutation."""
    seen: set[int] = set()
    out = []
    for start in range(len(pi)):
        if start in seen:
            continue
        orbit, i = [], start
        while i not in seen:
            seen.add(i)
            orbit.append(i)
            i = pi[i] - 1
        out.append(orbit)
    return out


def _charges(s: list[int], m: int, pi: list[int]) -> list[list[int]]:
    """Galois conjugates of s mod m, each also lifted by m on the first pi-orbit."""
    first = _orbits(pi)[0]
    out = []
    for k in _units(m):
        base = [(k * x) % m for x in s]
        out.append(base)
        out.append([x + m if i in first else x for i, x in enumerate(base)])
    return out


def toral(label: str, s: list[int], m: int) -> list[dict]:
    """tau_s and its images under the diagram symmetries of the type."""
    seen, out = set(), []
    identity = list(range(1, RANK[label] + 1))
    for tau in _SYMMETRIES[label]:
        image = [0] * len(s)
        for i, x in enumerate(s):
            image[tau[i] - 1] = x
        for charge in _charges(image, m, identity):
            key = (tuple(charge), m)
            if key not in seen:
                seen.add(key)
                out.append({"s": charge, "m": m})
    return out


def composed(pis: tuple[list[int], ...], s: list[int], m: int) -> list[dict]:
    """pi o tau_s for each pi; s must be constant on the orbits of every pi."""
    return [{"pi": pi, "s": charge, "m": m} for pi in pis for charge in _charges(s, m, pi)]


def diagram(pis: tuple[list[int], ...]) -> list[dict]:
    return [{"pi": pi} for pi in pis]


def exponents(base: list[int], m: int) -> list[dict]:
    """Ad(diag(zeta^a)) for a = base, reversed and rotated, Galois conjugates,
    and each with every exponent raised by 1 (the same automorphism)."""
    orders = (base, base[::-1], base[1:] + base[:1])
    out, seen = [], set()
    for order in orders:
        for k in _units(m):
            for lift in (0, 1):
                a = [(k * x) % m + lift for x in order]
                if tuple(a) not in seen:
                    seen.add(tuple(a))
                    out.append({"exponents": a, "m": m})
    return out


def _on_type(command: str, label: str, autos: list[dict]) -> list[list[str]]:
    return [[command, "--type", label, "--auto", _auto(a)] for a in autos]


def _on_matrix(command: str, n: int, autos: list[dict]) -> list[list[str]]:
    return [[command, "--matrix-algebra", str(n), "--auto", _auto(a)] for a in autos]


def _formats(argv: list[str]) -> list[list[str]]:
    return [argv, argv + ["--text"]]


def table_path(name: str) -> str:
    return f"{TABLE_DIR}/{name}.json"


def _construct() -> list[tuple[str, list[list[str]]]]:
    strata = [
        (f"build {label}", _formats(["build", "--type", label]))
        for label in ("D4", "B4", "C4")
    ]
    strata += [
        (f"build table {name}", _formats(["build", "--algebra", table_path(name)]))
        for name in TABLES
    ]
    return strata


def _twist() -> list[tuple[str, list[list[str]]]]:
    # At the recording commit four strata cost 0.3-0.7 s a request, four
    # about 1.0 s and three 1.5-3 s, so the run's printed median request (the
    # 17th of 33) falls inside the 1.0 s cluster, not at the edge of a gap.
    return [
        ("grade A2", _on_type("grade", "A2", composed((_A2_FLIP,), [1, 1], 3))),
        (
            "grade D4",
            _on_type(
                "grade",
                "D4",
                diagram(_D4_TRIALITY)
                + composed(_D4_TRIALITY, [0, 1, 0, 0], 3)
                + toral("D4", [1, 0, 0, 0], 3),
            ),
        ),
        ("grade M4", _on_matrix("grade", 4, exponents([0, 1, 2, 3], 4))),
        ("grade C3", _on_type("grade", "C3", toral("C3", [0, 1, 0], 4))),
        ("descent-verify B3", _on_type("descent-verify", "B3", toral("B3", [1, 0, 0], 3))),
        ("descent-verify G2", _on_type("descent-verify", "G2", toral("G2", [1, 0], 6))),
        ("descent-verify M4", _on_matrix("descent-verify", 4, exponents([0, 1, 2, 3], 6))),
        ("untwist A2", _on_type("untwist", "A2", toral("A2", [1, 1], 6) + composed((_A2_FLIP,), [1, 1], 3))),
        ("untwist M2", _on_matrix("untwist", 2, exponents([0, 1], 3))),
        ("centroid A3", _on_type("centroid", "A3", diagram((_A3_FLIP,)) + composed((_A3_FLIP,), [1, 0, 1], 2))),
        ("centroid M4", _on_matrix("centroid", 4, exponents([0, 1, 2, 3], 4))),
    ]


def _identify() -> list[tuple[str, list[list[str]]]]:
    return [
        (
            "extract-gcm A2/A3 twisted",
            _on_type(
                "extract-gcm",
                "A2",
                diagram((_A2_FLIP,)) + composed((_A2_FLIP,), [1, 1], 2) + composed((_A2_FLIP,), [1, 1], 4),
            )
            + _on_type("extract-gcm", "A3", diagram((_A3_FLIP,))),
        ),
        ("extract-gcm D4", _on_type("extract-gcm", "D4", diagram(_D4_UNCACHED))),
        (
            "classify",
            [argv for label in ("A2", "A3", "B2") for argv in _formats(["classify", "--type", label])],
        ),
    ]


_STRATA = {"construct": _construct, "twist": _twist, "identify": _identify}

# Advertised requests that fail at the recording commit, with the label
# expected from Kac, Infinite-Dimensional Lie Algebras, Tables Aff 1-3:
# B3 has no diagram symmetry, so its only class is untwisted B3^(1); the
# flip of A4 gives A_4^(2).  Not pooled: a benchmark workload must pass.
DEFECTS = (
    (["classify", "--type", "B3"], ["B3^(1)"]),
    (["extract-gcm", "--type", "A4", "--auto", _auto({"pi": [4, 3, 2, 1]})], ["A4^(2)"]),
)


def strata(workload: str) -> list[tuple[str, list[list[str]]]]:
    return _STRATA[workload]()


def pool(workload: str) -> list[list[str]]:
    return [argv for _, requests in strata(workload) for argv in requests]


def sample(workload: str, seed: int) -> list[list[str]]:
    """One request from every stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = [rng.choice(choices) for _, choices in strata(workload)]
    rng.shuffle(requests)
    return requests


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_S[workload]))


def key(argv: list[str]) -> str:
    return json.dumps(argv, separators=(",", ":"))


def tables_for(requests: list[list[str]]) -> list[str]:
    prefix = f"{TABLE_DIR}/"
    names = {
        argv[i + 1][len(prefix):-len(".json")]
        for argv in requests
        for i, arg in enumerate(argv)
        if arg == "--algebra"
    }
    return sorted(names)
