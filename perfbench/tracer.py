"""Traced request process and the per-layer metrics computed from its spans.

Child side (run as a script, one fresh process per request):

    python3 perfbench/tracer.py DUMP_PATH REQUEST_ID -- ARGV...

times a cold ``import loopforms.cli``, wraps the public functions of each
module named in ``SPANS``, runs ``loopforms.cli.main(ARGV)`` and writes the
spans and counters to DUMP_PATH once, when the request ends.  Callers import
names with ``from .x import f``, so every ``loopforms`` module attribute that
holds a wrapped function is rebound, not only the defining one.  Scalar
operations are counted, not spanned: there are millions of them.

Parent side: ``layer_metrics(dumps)`` turns the dumps of one round into the
per-layer metrics.  A layer's ``_s`` metric is the self time of its spans
(duration minus the time covered by child spans), except ``affine.catalog_s``,
which is inclusive: it is everything ``affine_catalog()`` costs.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (module, attribute or Class.method, layer)
SPANS = (
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "nullspace", "linalg.elim"),
    ("linalg", "rank", "linalg.elim"),
    ("linalg", "mat_inverse", "linalg.elim"),
    ("linalg", "SpanSolver.__init__", "linalg.elim"),
    ("linalg", "SpanSolver.coords", "linalg.elim"),
    ("chevalley", "root_system", "chevalley.construct"),
    ("chevalley", "chevalley_algebra", "chevalley.construct"),
    ("chevalley", "standard_algebra", "chevalley.construct"),
    ("chevalley", "algebra_over", "chevalley.construct"),
    ("chevalley", "diagram_automorphism", "chevalley.automorphism"),
    ("chevalley", "toral_automorphism", "chevalley.automorphism"),
    ("chevalley", "compose_pi_toral", "chevalley.automorphism"),
    ("algebra", "validate_algebra", "algebra.validate"),
    ("algebra", "check_automorphism", "algebra.check_auto"),
    ("algebra", "eigengrading", "algebra.eigengrading"),
    ("algebra", "centroid_graded", "algebra.centroid"),
    ("descent", "build_cocycle", "descent.cocycle"),
    ("descent", "twisted_fixed_points", "descent.cocycle"),
    ("descent", "untwist_iso", "descent.untwist"),
    ("descent", "untwist_matrix_iso", "descent.untwist"),
    ("descent", "coboundary_witness", "descent.untwist"),
    ("descent", "coboundary_witness_matrix", "descent.untwist"),
    ("affine", "affine_catalog", "affine.catalog"),
    ("affine", "fixed_cartan", "affine.extract"),
    ("affine", "affine_roots", "affine.extract"),
    ("affine", "simple_affine_roots", "affine.extract"),
    ("affine", "extract_gcm", "affine.extract"),
    ("affine", "affine_certificate", "affine.extract"),
    ("affine", "match_affine_label", "affine.match"),
    ("classify", "classification_table", "classify"),
    ("classify", "k_vs_r_classes", "classify"),
    ("classify", "k_vs_r_counts", "classify"),
    ("classify", "conjugacy_classes", "classify"),
    ("classify", "dynkin_automorphism_group", "classify"),
    ("classify", "h1_of_group", "classify"),
    ("classify", "h1_out", "classify"),
    ("classify", "inverse_conjugacy_check", "classify"),
)

LAYER = {f"{module}.{attr}": layer for module, attr, layer in SPANS}

_MATCH = "affine.match_affine_label"

# per-layer metric -> unit; run.py adds trace.overhead_frac and the micro ones
UNITS = {
    "cli.import_s": "s",
    "cyclo.mul_calls": "count",
    "cyclo.is_zero_calls": "count",
    "linalg.elim_s": "s",
    "linalg.elim_calls": "count",
    "chevalley.construct_s": "s",
    "chevalley.automorphism_s": "s",
    "algebra.validate_s": "s",
    "algebra.validate_triples": "count",
    "algebra.check_auto_s": "s",
    "algebra.eigengrading_s": "s",
    "algebra.eigengrading_calls": "count",
    "algebra.eigengrading_repeat_frac": "ratio",
    "algebra.centroid_s": "s",
    "descent.cocycle_s": "s",
    "descent.untwist_s": "s",
    "affine.catalog_s": "s",
    "affine.catalog_builds": "count",
    "affine.extract_s": "s",
    "affine.match_s": "s",
    "affine.match_tries_per_hit": "count/hit",
    "classify.self_s": "s",
}


class Tracer:
    """Spans and counters of one request process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, returned]
        self.stack: list[int] = []
        self.mul_calls = [0]
        self.is_zero_calls = [0]
        self.match_tries = 0
        self.validate_triples = 0
        self.eigengrading_seen: set[int] = set()
        self.eigengrading_repeats = 0
        self.catalog = None
        self.missing: list[str] = []

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            record = [name, 0, 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = True
            if after is not None:
                after(result)
            return result

        return wrapper

    @staticmethod
    def _counter(cell: list, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _count_validate(self, report) -> None:
        self.validate_triples += report.triples_checked

    def _note_eigengrading(self, *args, **kwargs) -> None:
        # the algebra and automorphism types are frozen dataclasses, so the
        # hash is of their content: a rebuilt but equal input is a repeat
        try:
            key = hash((args, tuple(sorted(kwargs.items()))))
        except TypeError:
            return
        if key in self.eigengrading_seen:
            self.eigengrading_repeats += 1
        self.eigengrading_seen.add(key)

    def _gcm_equivalent(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if self.stack and self.spans[self.stack[-1]][0] == _MATCH:
                self.match_tries += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("loopforms")]
        rebind: dict[int, object] = {}
        hooks = {
            "algebra.validate_algebra": (None, self._count_validate),
            "algebra.eigengrading": (self._note_eigengrading, None),
        }
        for module_name, attr, _ in SPANS:
            name = f"{module_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            try:
                module = importlib.import_module(f"loopforms.{module_name}")
            except ImportError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, method, None)
            if fn is None:
                self.missing.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = self._span(name, fn, before, after)
            if owner_name:
                setattr(owner, method, wrapped)
            else:
                rebind[id(fn)] = wrapped
                if name == "affine.affine_catalog":
                    self.catalog = fn
        affine = importlib.import_module("loopforms.affine")
        gcm_equivalent = getattr(affine, "gcm_equivalent", None)
        if gcm_equivalent is None:
            self.missing.append("affine.gcm_equivalent")
        else:
            rebind[id(gcm_equivalent)] = self._gcm_equivalent(gcm_equivalent)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in rebind:
                    setattr(module, attr, rebind[id(value)])
        cyclo = getattr(sys.modules.get("loopforms.cyclo"), "CycloNum", None)
        if cyclo is None:
            self.missing.append("cyclo.CycloNum")
            return
        mul = self._counter(self.mul_calls, cyclo.__mul__)
        cyclo.__mul__ = mul
        cyclo.__rmul__ = mul
        cyclo.is_zero = self._counter(self.is_zero_calls, cyclo.is_zero)

    def catalog_builds(self) -> int:
        info = getattr(self.catalog, "cache_info", None)
        if info is not None:
            return info().misses
        return sum(1 for s in self.spans if s[0] == "affine.affine_catalog")

    def dump(self, request_id: str, import_s: float) -> dict:
        return {
            "request": request_id,
            "import_s": import_s,
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p, "returned": ok, "request": request_id}
                for n, a, b, p, ok in self.spans
            ],
            "mul_calls": self.mul_calls[0],
            "is_zero_calls": self.is_zero_calls[0],
            "match_tries": self.match_tries,
            "validate_triples": self.validate_triples,
            "eigengrading_repeats": self.eigengrading_repeats,
            "catalog_builds": self.catalog_builds(),
            "missing": self.missing,
        }


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round: sums over its requests, except the
    import time, which is the median over request processes."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    catalog_ns = 0
    match_hits = 0
    for dump in dumps:
        spans = dump["spans"]
        covered = [0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                covered[span["parent"]] += span["end"] - span["start"]
        for span, child_ns in zip(spans, covered):
            layer = LAYER[span["name"]]
            duration = span["end"] - span["start"]
            self_ns[layer] = self_ns.get(layer, 0) + duration - child_ns
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "affine.catalog":
                catalog_ns += duration
            if span["name"] == _MATCH and span["returned"]:
                match_hits += 1

    def seconds(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9

    def total(field: str) -> int:
        return sum(d[field] for d in dumps)

    eig_calls = calls.get("algebra.eigengrading", 0)
    return {
        "cli.import_s": statistics.median(d["import_s"] for d in dumps),
        "cyclo.mul_calls": total("mul_calls"),
        "cyclo.is_zero_calls": total("is_zero_calls"),
        "linalg.elim_s": seconds("linalg.elim"),
        "linalg.elim_calls": calls.get("linalg.elim", 0),
        "chevalley.construct_s": seconds("chevalley.construct"),
        "chevalley.automorphism_s": seconds("chevalley.automorphism"),
        "algebra.validate_s": seconds("algebra.validate"),
        "algebra.validate_triples": total("validate_triples"),
        "algebra.check_auto_s": seconds("algebra.check_auto"),
        "algebra.eigengrading_s": seconds("algebra.eigengrading"),
        "algebra.eigengrading_calls": eig_calls,
        "algebra.eigengrading_repeat_frac": total("eigengrading_repeats") / eig_calls if eig_calls else 0.0,
        "algebra.centroid_s": seconds("algebra.centroid"),
        "descent.cocycle_s": seconds("descent.cocycle"),
        "descent.untwist_s": seconds("descent.untwist"),
        "affine.catalog_s": catalog_ns / 1e9,
        "affine.catalog_builds": total("catalog_builds"),
        "affine.extract_s": seconds("affine.extract"),
        "affine.match_s": seconds("affine.match"),
        "affine.match_tries_per_hit": total("match_tries") / match_hits if match_hits else 0.0,
        "classify.self_s": seconds("classify"),
    }


def main(argv: list[str]) -> int:
    dump_path, request_id, sep, *cli_argv = argv
    if sep != "--":
        print("usage: tracer.py DUMP_PATH REQUEST_ID -- ARGV...", file=sys.stderr)
        return 2
    started = time.perf_counter()
    import loopforms.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        return loopforms.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(request_id, import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
