"""Set-up step run in a fresh process: one cold ``import loopforms``, then the
input tables named on the command line are written under ``pool.TABLE_DIR``.

Usage: python3 perfbench/tables.py ROOT [TABLE_NAME ...]

Exits 2 if ``loopforms`` is missing or is not the copy under ROOT/src.
"""

import json
import sys
from pathlib import Path

import pool


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve()
    try:
        import loopforms
    except ImportError as exc:
        print(f"perfbench: cannot import loopforms from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(loopforms.__file__).resolve().parent != root / "src" / "loopforms":
        print(f"perfbench: loopforms resolves to {loopforms.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    from loopforms.chevalley import algebra_over
    from loopforms.descent import build_matrix_algebra

    out_dir = root / pool.TABLE_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in argv[1:]:
        kind, what, order = pool.TABLES[name]
        if kind == "lie":
            _, alg = algebra_over(what, order)
        else:
            alg, _ = build_matrix_algebra(what, [0] * what, order)
        (out_dir / f"{name}.json").write_text(json.dumps(alg.to_obj()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
