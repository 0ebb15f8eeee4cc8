"""Batch command-line surface over construction, grading, descent checks,
classification, and GCM extraction.

Every command runs one module pipeline, and `main` prints the report it
builds, a JSON object of the command, its status and its payload; the
human-readable rendering is generated from the same object, so the two
formats cannot drift.  Exit codes: 0 all checks passed,
1 a verification failed, 2 the request was malformed.  Timing goes to
stderr, never into the payload, so identical requests give identical bytes.

The argument grammar is `loopforms COMMAND [FLAG VALUE | FLAG=VALUE]...`,
read by one table-driven parser: the eight commands share one flag set, and
each row of `_COMMANDS` names the input flags its command reads, which
`main` alone resolves and checks.  Flags are spelled out in full; an
abbreviation is an unknown flag.

The CLI checks only the shape of the argv and of `--auto`, and the limits
`MAX_PERIOD` and `MAX_MATRIX_SIZE`; `chevalley.check_twist` and
`descent.check_matrix_twist` decide the twist and raise `RequestError`.
"""

from __future__ import annotations

import json
import sys
import time
from math import lcm
from typing import TYPE_CHECKING, Optional

from .algebra import MultTableAlgebra

# chevalley is imported by the paths that read a type label, and grading,
# centroid, acceptance, affine, classify and descent inside the handlers that
# use them, so a request loads, and compiles, only the modules its command
# needs
if TYPE_CHECKING:
    from .chevalley import DiagramPermutation, FiniteCartanMatrix, ToralCharge

__all__ = ["main"]


class RequestError(Exception):
    """Malformed input: maps to exit code 2."""


# Resource limits at the request boundary.  The cost of Q(zeta_m) grows with
# phi(m), and M_n has n^2 basis elements; a request past a limit exits 2.
MAX_PERIOD = 24  # m, and the twist period lcm(|pi|, m)
MAX_MATRIX_SIZE = 8


# -- automorphism specs ----------------------------------------------------------


def _parse_auto_json(raw: Optional[str]) -> dict:
    if raw is None:
        return {}
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise RequestError(f"--auto is not valid JSON: {exc}") from exc
    except RecursionError:
        raise RequestError("--auto nests too deeply to read") from None
    if not isinstance(obj, dict):
        raise RequestError("--auto must be a JSON object")
    return obj


def _is_int(x) -> bool:
    """A JSON integer; true and false decode to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _type_auto(obj: dict, cartan: FiniteCartanMatrix) -> tuple[DiagramPermutation, ToralCharge]:
    """{"pi": [one-based images] | null, "s": [ints] | null, "m": int}, read
    for `chevalley.check_twist` to decide."""
    from .chevalley import DiagramPermutation, ToralCharge, check_twist

    unknown = set(obj) - {"pi", "s", "m"}
    if unknown:
        raise RequestError(f"unsupported --auto keys for a type label: {sorted(unknown)}")
    m = _modulus(obj)
    try:
        perm = DiagramPermutation.from_one_based(_int_list(obj, "pi", range(1, cartan.rank + 1)))
    except ValueError as exc:
        raise RequestError(f"pi is not a permutation: {exc}") from exc
    charge = ToralCharge(s=_int_list(obj, "s", [0] * cartan.rank), modulus=m)
    check_twist(cartan, perm, charge, RequestError)
    period = lcm(perm.order(), m)
    if period > MAX_PERIOD:
        raise RequestError(
            f"the twist period lcm({perm.order()}, {m}) = {period} exceeds the limit {MAX_PERIOD}"
        )
    return perm, charge


def _modulus(obj: dict) -> int:
    m = obj.get("m", 1)
    if not _is_int(m) or m < 1:
        raise RequestError("m must be a positive integer")
    if m > MAX_PERIOD:
        raise RequestError(f"m = {m} exceeds the period limit {MAX_PERIOD}")
    return m


def _matrix_auto(obj: dict, n: int) -> tuple[tuple[int, ...], int]:
    """{"exponents": [ints], "m": int} for the inner twist of M_n."""
    from .descent import check_matrix_twist

    unknown = set(obj) - {"exponents", "m"}
    if unknown:
        raise RequestError(f"unsupported --auto keys for a matrix algebra: {sorted(unknown)}")
    exponents, m = _int_list(obj, "exponents", [0] * n), _modulus(obj)
    check_matrix_twist(n, exponents, m, RequestError)
    return exponents, m


def _int_list(obj: dict, key: str, default) -> tuple[int, ...]:
    """obj[key], a JSON list of integers, or default when absent or null."""
    value = obj.get(key)
    if value is not None and (not isinstance(value, list) or not all(map(_is_int, value))):
        raise RequestError(f"{key} must be a list of integers")
    return tuple(default if value is None else value)


def _auto_echo(perm: DiagramPermutation, charge: ToralCharge) -> dict:
    return {"pi": list(perm.to_one_based()), "s": list(charge.s), "m": charge.modulus}


# -- input resolution ------------------------------------------------------------


def _one_source(args: _Args, allowed: tuple[str, ...]) -> str:
    given = {"type": args.type, "algebra": args.algebra, "matrix-algebra": args.matrix_algebra}
    present = [name for name, value in given.items() if value is not None]
    if len(present) != 1:
        raise RequestError(f"exactly one input source required; got {present or 'none'}")
    source = present[0]
    if source not in allowed:
        raise RequestError(f"--{source} is not supported by this command")
    if source == "type":
        from .chevalley import TYPE_LABELS

        if args.type not in TYPE_LABELS:
            raise RequestError(
                f"--type {args.type!r} is not a type label; "
                f"choose one of {', '.join(TYPE_LABELS)}"
            )
    if source == "matrix-algebra" and args.matrix_algebra > MAX_MATRIX_SIZE:
        raise RequestError(
            f"--matrix-algebra {args.matrix_algebra} exceeds the size limit {MAX_MATRIX_SIZE}"
        )
    return source


def _load_algebra(path: str) -> MultTableAlgebra:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise RequestError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise RequestError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise RequestError(f"{path} nests too deeply to read") from None
    try:
        return MultTableAlgebra.from_obj(obj)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{path} is not a serialized algebra: {exc}") from exc


def _build_sigma(args: _Args, source: str, spec: dict):
    """Shared resolver for grade / untwist / descent-verify / centroid: the
    table, the factors (outer, exponents, m) of its twist as
    `grading.twist` takes them, and the echo of the request."""
    if source == "type":
        from .chevalley import cartan_matrix, type_twist_factors

        label = args.type
        perm, charge = _type_auto(spec, cartan_matrix(label))
        _, alg, *factors = type_twist_factors(label, perm, charge)
        return (alg, *factors, {"type": label, "auto": _auto_echo(perm, charge)})
    from .descent import matrix_twist_factors

    n = args.matrix_algebra
    exponents, m = _matrix_auto(spec, n)
    alg, outer, shifts = matrix_twist_factors(n, exponents, m)
    echo = {"matrix_algebra": n, "auto": {"exponents": list(exponents), "m": m}}
    return alg, outer, shifts, m, echo


# -- commands --------------------------------------------------------------------


def _cmd_build(args: _Args, source: str, spec: dict) -> dict:
    if source == "type":
        from .chevalley import standard_algebra

        rs, alg = standard_algebra(args.type)
        report = alg.validation
        payload = {
            "type": args.type,
            "dim": alg.dim,
            "roots": len(rs.roots),
            "rank": rs.rank,
            "validation": report.to_obj(),
        }
    else:
        alg = _load_algebra(args.algebra)
        report = alg.validation
        payload = {
            "algebra": args.algebra,
            "dim": alg.dim,
            "kind": alg.kind,
            "validation": report.to_obj(),
        }
    payload["status"] = "pass" if report.ok else "fail"
    return payload


def _cmd_grade(args: _Args, source: str, spec: dict) -> dict:
    from .grading import eigengrading, twist

    alg, *factors, echo = _build_sigma(args, source, spec)
    grading = eigengrading(alg, twist(alg, *factors))
    return {
        **echo,
        "period": grading.period,
        "dims": list(grading.dims),
        "dim_total": sum(grading.dims),
        "status": "pass",
    }


def _cmd_classify(args: _Args, source: str, spec: dict) -> dict:
    if source == "type":
        from .classify import classify_type

        result = classify_type(args.type)
        return {
            "type": args.type,
            "classes": [row.to_obj() for row in result.rows],
            "r_classes": result.r_classes,
            "k_classes": result.k_classes,
            "inverse_conjugacy": result.inverse_conjugacy_ok,
            "centroid_trivial": result.centroid_ok,
            "status": "pass" if result.hypotheses_hold else "fail",
        }
    from .descent import check_matrix_twist, matrix_twist_factors, untwist_iso

    n = args.matrix_algebra
    # Out(M_n) is trivial (all automorphisms inner), so a single class; the
    # witness untwists one twist, Ad(diag(zeta_n^0, ..., zeta_n^(n-1)))
    exponents = list(range(n))
    check_matrix_twist(n, exponents, n, RequestError)
    alg, identity, shifts = matrix_twist_factors(n, exponents, n)
    iso = untwist_iso(alg, identity, shifts, n)
    return {
        "matrix_algebra": n,
        "classes": 1,
        "auto": {"exponents": exponents, "m": n},
        "witness_checks": iso.witness_checks,
        "status": "pass",
    }


def _cmd_extract_gcm(args: _Args, source: str, spec: dict) -> dict:
    from .affine import affine_certificate
    from .chevalley import cartan_matrix

    perm, charge = _type_auto(spec, cartan_matrix(args.type))
    report = affine_certificate(args.type, perm=perm, charge=charge)
    return {
        "type": args.type,
        "auto": _auto_echo(perm, charge),
        **report.to_obj(),
        "grading_dims": list(report.grading_dims),
        "status": "pass",
    }


def _cmd_untwist(args: _Args, source: str, spec: dict) -> dict:
    from .descent import untwist_iso

    alg, *factors, echo = _build_sigma(args, source, spec)
    return {**echo, **untwist_iso(alg, *factors).to_obj(), "status": "pass"}


def _cmd_descent_verify(args: _Args, source: str, spec: dict) -> dict:
    from .descent import fixed_point_report
    from .grading import twist

    alg, *factors, echo = _build_sigma(args, source, spec)
    sigma = twist(alg, *factors)
    checks, fixed_dims = fixed_point_report(alg, sigma)
    return {
        **echo,
        "period": sigma.period,
        "checks": checks,
        "fixed_dims": fixed_dims,
        "status": "pass",
    }


def _cmd_centroid(args: _Args, source: str, spec: dict) -> dict:
    from .centroid import centroid_graded
    from .grading import eigengrading, twist

    alg, *factors, echo = _build_sigma(args, source, spec)
    grading = eigengrading(alg, twist(alg, *factors))
    shifts = [
        {
            "shift": report.shift_residue,
            "solution_dim": report.solution_dim,
            "contains_identity": report.contains_identity(),
        }
        for report in centroid_graded(alg, grading)
    ]
    return {**echo, "period": grading.period, "by_shift": shifts, "status": "pass"}


def _cmd_verify_all(args: _Args, source: None, spec: dict) -> dict:
    from .acceptance import verify_all

    report = verify_all()
    return {
        "criteria": [
            {"id": row["id"], "name": row["name"], "status": row["status"]}
            for row in report["criteria"]
        ],
        "detail": report["criteria"],
        "status": report["status"],
    }


_TYPE_OR_MATRIX = ("type", "matrix-algebra")

# command -> (handler, the input sources it reads, whether it reads --auto,
# help); main refuses every input flag that a row leaves out
_COMMANDS = {
    "build": (
        _cmd_build,
        ("type", "algebra"),
        False,
        "construct a split simple Lie algebra (or validate an external table)",
    ),
    "grade": (
        _cmd_grade, _TYPE_OR_MATRIX, True, "eigenspace decomposition for a finite-order automorphism"
    ),
    "classify": (
        _cmd_classify, _TYPE_OR_MATRIX, False, "isomorphism classes of loop algebras of one type"
    ),
    "extract-gcm": (
        _cmd_extract_gcm, ("type",), True, "affine GCM and label of a twisted loop algebra"
    ),
    "untwist": (
        _cmd_untwist, _TYPE_OR_MATRIX, True, "explicit trivialization of a toral (or composed) twist"
    ),
    "descent-verify": (
        _cmd_descent_verify, _TYPE_OR_MATRIX, True, "cocycle identity and twisted fixed points"
    ),
    "centroid": (_cmd_centroid, _TYPE_OR_MATRIX, True, "graded centroid dimensions by shift"),
    "verify-all": (_cmd_verify_all, (), False, "run the full acceptance suite"),
}


# -- rendering -------------------------------------------------------------------


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (str, int, float, bool))


def _render_table(rows: list, indent: str) -> list[str]:
    keys = list(rows[0].keys())
    cells = [[_fmt_scalar(r[k]) for k in keys] for r in rows]
    widths = [max(len(k), *(len(row[i]) for row in cells)) for i, k in enumerate(keys)]
    out = [indent + "  ".join(k.ljust(widths[i]) for i, k in enumerate(keys))]
    for row in cells:
        out.append(indent + "  ".join(row[i].ljust(widths[i]) for i in range(len(keys))))
    return out


def _fmt_scalar(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if x is None:
        return "-"
    if isinstance(x, list) and all(_is_scalar(v) for v in x):
        return "[" + ", ".join(_fmt_scalar(v) for v in x) + "]"
    return str(x)


def _render_text(obj, indent: str = "") -> list[str]:
    """Human table view generated from the JSON payload, one source of truth."""
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if _is_scalar(value) or (
                isinstance(value, list) and all(_is_scalar(v) for v in value)
            ):
                lines.append(f"{indent}{key}: {_fmt_scalar(value)}")
            elif (
                isinstance(value, list)
                and value
                and all(
                    isinstance(v, dict)
                    and all(_is_scalar(x) or isinstance(x, list) for x in v.values())
                    and list(v.keys()) == list(value[0].keys())
                    for v in value
                )
            ):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(value, indent + "  "))
    elif isinstance(obj, list):
        for value in obj:
            if _is_scalar(value):
                lines.append(f"{indent}- {_fmt_scalar(value)}")
            else:
                lines.append(f"{indent}-")
                lines.extend(_render_text(value, indent + "  "))
    else:
        lines.append(f"{indent}{_fmt_scalar(obj)}")
    return lines


def _emit(report: dict, args: _Args) -> None:
    if args.text:
        rendered = "\n".join(_render_text(report)) + "\n"
    else:
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise RequestError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(rendered)


# -- entry point -----------------------------------------------------------------

# flag -> (attribute, value type or None for a switch, metavar, help)
_FLAGS = {
    "--type": (
        "type", str, "T", "built-in type label (A1..A8, B2..B8, C3..C8, D4..D8, E6..E8, F4, G2)"
    ),
    "--algebra": ("algebra", str, "FILE", "path to a serialized multiplication table (JSON)"),
    "--matrix-algebra": ("matrix_algebra", int, "N", "use the matrix algebra M_N"),
    "--auto": (
        "auto",
        str,
        "SPEC",
        'automorphism spec: {"pi": [..1-based] | null, "s": [..] | null, "m": int};'
        ' for --matrix-algebra: {"exponents": [..], "m": int}',
    ),
    "--json": ("json", None, "", "JSON output (default)"),
    "--text": ("text", None, "", "human-readable tables"),
    "--out": ("out", str, "FILE", "write the report to a file instead of stdout"),
}

_HELP = ("-h", "--help")


class _Args:
    """A parsed request: the command, and one attribute per flag, None when
    the flag is absent (False for a switch)."""

    def __init__(self, command: str):
        self.command = command
        for attr, kind, _, _ in _FLAGS.values():
            setattr(self, attr, False if kind is None else None)


def _usage() -> str:
    lines = [
        "usage: loopforms COMMAND [--type T | --algebra FILE | --matrix-algebra N]",
        "                 [--auto SPEC] [--json | --text] [--out FILE]",
        "",
        "Twisted loop algebras over the punctured line: construction, grading, descent checks,",
        "classification, GCM extraction.",
        "",
        "commands:",
    ]
    lines += [f"  {name:<16}{text}" for name, (*_, text) in _COMMANDS.items()]
    lines += ["", "flags (FLAG VALUE or FLAG=VALUE):"]
    for flag, (_, _, metavar, text) in _FLAGS.items():
        lines.append(f"  {(flag + ' ' + metavar).strip():<20}{text}")
    lines.append(f"  {'-h, --help':<20}show this message and exit")
    return "\n".join(lines) + "\n"


def _flag_integer(flag: str, text: str) -> int:
    """The value of an integer flag: -?[0-9]+ in ASCII digits, the grammar
    of a table coefficient; no sign but a leading minus, space, underscore
    or other script's digit is read."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise RequestError(f"{flag} needs an integer, got {text!r}")


def _parse_args(argv: list[str]) -> Optional[_Args]:
    """Read COMMAND and its flags; a malformed argv raises RequestError, and
    -h or --help in place of the command or of a flag gives None."""
    if not argv:
        raise RequestError(f"a command is required; choose one of {', '.join(_COMMANDS)}")
    if argv[0] in _HELP:
        return None
    if argv[0] not in _COMMANDS:
        raise RequestError(
            f"unknown command {argv[0]!r}; choose one of {', '.join(_COMMANDS)}"
        )
    args = _Args(argv[0])
    given: set[str] = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return None
        if not token.startswith("--"):
            raise RequestError(f"unexpected argument {token!r}")
        flag, has_value, value = token.partition("=")
        spec = _FLAGS.get(flag)
        if spec is None:
            raise RequestError(f"unknown flag {flag!r}; flags are not abbreviated")
        if flag in given:
            raise RequestError(f"flag {flag} given twice")
        given.add(flag)
        attr, kind = spec[0], spec[1]
        if kind is None:
            if has_value:
                raise RequestError(f"{flag} takes no value")
            setattr(args, attr, True)
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise RequestError(f"{flag} needs a value")
        if kind is int:
            value = _flag_integer(flag, value)
        setattr(args, attr, value)
    if args.json and args.text:
        raise RequestError("--json and --text exclude each other")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_usage())
        return 0
    started = time.monotonic()
    handler, sources, reads_auto, _ = _COMMANDS[args.command]
    try:
        inputs = (args.type, args.algebra, args.matrix_algebra, args.auto)
        if not sources and any(x is not None for x in inputs):
            raise RequestError(f"{args.command} takes no input flags")
        if args.auto is not None and not reads_auto:
            raise RequestError(f"{args.command} takes no --auto")
        source = _one_source(args, sources) if sources else None
        payload = handler(args, source, _parse_auto_json(args.auto))
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # module verification errors carry their own message
        report = {
            "command": args.command,
            "status": "fail",
            "error": f"{type(exc).__name__}: {exc}",
        }
    else:
        status = payload.pop("status")
        report = {"command": args.command, "status": status, "payload": payload}
    try:
        _emit(report, args)
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
