"""Microbenchmarks of public scalar and elimination APIs, inputs built with
public constructors.  Prints one JSON object of metric -> value.

Usage: python3 perfbench/micro.py

Each figure is the median of REPEATS timings.  The nullspace result is
checked: the zeta-eigenspace of D4 triality has dimension 7.
"""

import json
import statistics
import sys
import time
from fractions import Fraction

REPEATS = 5


def _per_call(fn, number: int) -> float:
    """Median seconds per call of fn over REPEATS batches of `number` calls."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - started) / number)
    return statistics.median(times)


def main() -> int:
    from loopforms.chevalley import DiagramPermutation, algebra_over, diagram_automorphism
    from loopforms.cyclo import CycloNum, zeta_power
    from loopforms.linalg import nullspace

    def element(order: int, *coeffs: Fraction) -> CycloNum:
        return CycloNum.from_poly(order, coeffs)

    o1 = (element(1, Fraction(3, 7)), element(1, Fraction(-5, 11)))
    o3 = (element(3, Fraction(2, 3), Fraction(-5, 7)), element(3, Fraction(1, 4), Fraction(9, 5)))
    o6 = (element(6, Fraction(2, 3), Fraction(-5, 7)), element(6, Fraction(1, 4), Fraction(9, 5)))
    metrics = {
        "cyclo.mul_us.o1": _per_call(lambda: o1[0] * o1[1], 10000) * 1e6,
        "cyclo.mul_us.o3": _per_call(lambda: o3[0] * o3[1], 2500) * 1e6,
        "cyclo.mul_us.o6": _per_call(lambda: o6[0] * o6[1], 2500) * 1e6,
        "cyclo.add_us.o3": _per_call(lambda: o3[0] + o3[1], 5000) * 1e6,
        "cyclo.inv_us.o3": _per_call(o3[0].inverse, 1000) * 1e6,
        "cyclo.zero_us": _per_call(lambda: CycloNum.zero(3), 10000) * 1e6,
    }

    rs, alg = algebra_over("D4", 3)
    sigma = diagram_automorphism(alg, rs, DiagramPermutation((2, 1, 3, 0)))
    zeta = zeta_power(3, 1)
    zero = CycloNum.zero(3)
    n = alg.dim
    rows = [[sigma.matrix[r][c] - (zeta if r == c else zero) for c in range(n)] for r in range(n)]
    kernels = []
    metrics["linalg.nullspace_ms.d4_triality"] = (
        _per_call(lambda: kernels.append(nullspace(rows, n, 3)), 1) * 1e3
    )
    if n != 28 or any(len(k) != 7 for k in kernels):
        print(f"micro: D4 triality eigenspace has dims {[len(k) for k in kernels]}, expected 7", file=sys.stderr)
        return 1
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
