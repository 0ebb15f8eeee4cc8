"""The shape of the source and of the CI workflow.

Names that a simplification deleted from `src` stay deleted, every `raise`
in `src` has a message of its own that a test matches, `src` holds no
`assert`, and the CI workflow runs nothing but the tests, the cold re-record
of the stdout ledger and the benchmark gate, so every other check is a test
that `pytest` runs.  The source is read as text with pathlib, re and ast, so
no git checkout is needed.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import shlex
import sys
import textwrap
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from loopforms.affine import AffineRootData, ExtractionReport, affine_certificate, fixed_cartan
from loopforms.algebra import ValidationReport
from loopforms.centroid import CentroidReport, centroid_graded
from loopforms.classify import ClassificationRow
from loopforms.grading import FiniteOrderAutomorphism, GradedDecomposition

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted(SRC.rglob("*.py"))
TESTS = sorted(path for path in (ROOT / "tests").glob("*.py") if path.name != "test_shape.py")
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _matches(pattern, paths=SOURCES):
    """`file:line: text` for every line of the files matching pattern."""
    regex = re.compile(pattern)
    found = []
    for path in paths:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if regex.search(line):
                found.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    return found


def _words(*names):
    """A pattern matching any of names as a whole word."""
    return r"\b(?:" + "|".join(names) + r")\b"


@pytest.mark.parametrize(
    "pattern",
    [
        # vectors are sparse {index: scalar} mappings; dense tuples appear
        # only where a report is serialized
        pytest.param(r"\bVector\b|zero_vector|vec_add|vec_scale|densify", id="dense vector"),
        # span membership is read off closed forms, off pivot rows already
        # eliminated, or is the closure echelon of the centroid's generating
        # set, and affine weights are read off the grading: no pivot-limited
        # elimination and no candidate weights
        pytest.param(r"pivot_limit|candidates", id="span solver"),
        # every twist, of a type label or of M_n, is grading.twist of the
        # factors of chevalley.type_twist_factors or
        # descent.matrix_twist_factors: no separate toral, composed or
        # matrix-unit path
        pytest.param(
            _words(
                "untwist_matrix_iso",
                "coboundary_witness_matrix",
                "diagram_and_composition",
                "toral_automorphism",
                "compose_pi_toral",
            ),
            id="second twist path",
        ),
        # Dynkin symmetries and GCM equivalence are both
        # chevalley.node_isomorphisms: no invariant index over the catalog,
        # no relabelled conjugacy table, no switch that skips the centroid
        pytest.param(
            _words(
                "gcm_invariant",
                "AffineCatalog",
                "by_invariant",
                "row_multiset",
                "H1Table",
                "h1_of_group",
                "h1_out",
                "check_centroid",
            ),
            id="second node search",
        ),
        # every check covers all degrees, and a report reads the window it
        # shows off its period: no flag, limit or command list names a window
        pytest.param(r"MAX_WINDOW|_WINDOWED|--window", id="degree window"),
        # the loop algebra repeats with its period: affine root data is
        # stored once per residue, with no per-degree copies, and no
        # centroid cache sits on the grading
        pytest.param(
            r"\.reals\b|\.imaginary\b|\b_generators\b|_signatures|multiplicity=",
            id="per-degree data",
        ),
        # scalars are ints over a common denominator: src imports fractions
        # only inside the functions that build a Fraction
        pytest.param(r"^(?:from|import) fractions", id="module-level fractions"),
        # value types are Records, which generate no code at import
        pytest.param(r"dataclass", id="dataclass"),
        # the CLI parses its argv without argparse
        pytest.param(r"argparse", id="argparse"),
        # a law is evaluated only on the triples where one of its terms has
        # a path through the table (algebra._left_paths): no other triple
        # enumerator and no loop over every ordered triple
        pytest.param(
            _words("_increasing_triples", "_live_triples") + r"|repeat=3",
            id="triple enumerator",
        ),
        # a type is classified by classify.classify_type alone, which builds
        # Out and its class table once, and a label is matched against the
        # requested type's own rows only: no second report, no catalog scan
        pytest.param(
            _words(
                "classification_table",
                "k_vs_r_classes",
                "k_vs_r_counts",
                "KvsRReport",
                "match_affine_label",
            ),
            id="second classification path",
        ),
        # untwisting is certified from the twist's own factors on the basis:
        # no loop element moves between degrees, and none is multiplied
        pytest.param(
            _words(
                "LoopElement",
                "loop_element",
                "check_loop_element",
                "ts_product",
                "loop_bracket",
                "_shift_element",
            ),
            id="loop-element API",
        ),
        # type-label tables are folded from the Frenkel-Kac table of the
        # simply-laced cover (chevalley._fold): no constants from root
        # strings, which tests/dense.root_string_algebra keeps as the oracle
        pytest.param(_words("_Constants", "_integral"), id="root-string constants"),
        # diagram signs come in closed form from the sign form
        # (chevalley.diagram_automorphism): no propagation from the simple
        # roots, which tests/dense.propagated_diagram_map keeps as the oracle
        pytest.param(_words("_propagate"), id="sign propagation"),
        # the cocycle identity and the twisted fixed points are read off the
        # twist's certificate (descent.fixed_point_report), and the
        # coboundary identity off the diagonal one: no recomputation, which
        # tests/dense.build_cocycle and twisted_fixed_points keep as the
        # oracle, and no period lift beside grading.twist
        pytest.param(
            _words(
                "LoopCocycle",
                "build_cocycle",
                "twisted_fixed_points",
                "_verify_coboundary",
                "with_period",
            ),
            id="cocycle recomputation",
        ),
        # untwist_iso is the one descent certificate, read off grading.twist:
        # the coboundary row is read off it (descent.UntwistIso.witness_checks),
        # the twist's factors are how grading.twist composed it, and a report
        # row is a dict
        pytest.param(
            _words("coboundary_witness", "CheckReport", "_off_factor"), id="descent rows"
        ),
        # grading.twist's integer clauses certify the diagonal factor, the
        # commuting and the untwisting map at once, in the same pass that
        # certifies the outer map: no second pass over the table, which
        # tests/dense.check_diagonal_automorphism and _verify_untwist keep as
        # the oracles, and no error class that nothing raises
        pytest.param(
            _words("check_diagonal_automorphism", "_verify_untwist", "DescentError"),
            id="second twist certificate",
        ),
        # grading.twist certifies the outer map of every twist too, the
        # identity with no table pass: no separate pair check, which
        # tests/dense.check_automorphism keeps as the oracle, no certified
        # identity, and no helper that marks a map certified
        pytest.param(
            _words("check_automorphism", "identity_automorphism", "_certified"),
            id="second automorphism certifier",
        ),
        # inverse conjugacy and the k-count are read off the class table's
        # inverse column (classify.OutGroup.inverses): no witness search, which
        # tests/dense.inverse_witnesses keeps as the oracle, no class lookup,
        # and no root set beside RootSystem.roots
        pytest.param(
            _words(
                "inverse_conjugacy_check",
                "InverseConjugacyReport",
                "k_class_count",
                "class_of",
                "root_set",
            ),
            id="inverse classes",
        ),
        # a residue's root of unity is zeta_power(order, (order // period) * i)
        # where a test needs it: the grading stores no scalar per residue
        pytest.param(_words("residue_zeta"), id="residue scalar"),
        # descent.matrix_twist_factors decides an M_n twist itself, as
        # chevalley.check_twist does a type label's: no second check
        pytest.param(_words("check_matrix_twist"), id="matrix twist check"),
        # verify-all is a table of CLI requests (cli._VERIFY_TABLE), each
        # certified by the command that prints it: no acceptance module, no
        # criterion runners and no second request path
        pytest.param(
            r"\.acceptance\b|[\"']acceptance[\"']|\bverify_all\b|criterion_|CRITERION_NAMES",
            id="acceptance criteria",
        ),
        # a request builds each object once and passes it on: no result
        # cache that a cold request never hits, and no second lookup of a
        # twist's grading (affine.ExtractionReport carries it)
        pytest.param(
            _words("_extract_inner", "_algebra_over_cached", "_chevalley_cached", "graded_twist"),
            id="result caches",
        ),
        # a type's table is written once, over the field its twist needs,
        # from the fold: no table over Q to embed, and no second constructor
        pytest.param(
            _words("standard_algebra", "embed_algebra"),
            id="embedded tables",
        ),
        # affine reads h0 off grading component 0: no record built from pi
        pytest.param(_words("FixedCartan"), id="fixed cartan record"),
        # a table carries its weights, and every twist's exponents are
        # MultTableAlgebra.pairing of a coweight: no private rule per basis
        # layout, which tests/dense.charge_pairings and matrix_unit_shifts
        # keep as the oracles
        pytest.param(_words("charge_pairings", "matrix_unit_shifts"), id="layout exponents"),
        # two size limits, MAX_DIM and MAX_PERIOD, in place of the closure's
        # root count, the CLI's matrix size and the automorphism group's rank
        pytest.param(_words("_CLOSURE_BOUND", "MAX_MATRIX_SIZE") + "|brute-force", id="size limits"),
        # a table stores each product once, as a sparse vector in
        # MultTableAlgebra.products: no list form of it and no private lookup
        # rebuilt from one
        pytest.param(_words("make_table", "TableEntry") + r"|\._table\b", id="table lists"),
        # a type-label twist is (pi, s, m) in plain values, as M_n's is, and
        # chevalley.check_twist reads the modulus: no record wraps (s, m)
        pytest.param(_words("ToralCharge"), id="toral charge record"),
        # an extraction is one report: affine.ExtractionReport holds the GCM
        # and its base, and the catalog maps each label to its GCM
        pytest.param(_words("GCMCertificate", "CatalogEntry"), id="extraction records"),
        # Out is one record: classify.OutGroup carries its own class table,
        # read off the orbit walk beside the closure checks it rests on
        pytest.param(_words("ConjClassTable", "conjugacy_classes"), id="class table record"),
        # a record stores only what its step decided: the centroid numbers
        # its unknowns in one place and reads the identity off the pivot rows
        # it eliminated, with no second numbering and no second elimination,
        # which tests/dense.all_pairs_centroid keeps as the oracle, and a
        # type's table has one builder, chevalley.algebra_over
        pytest.param(
            _words("entry_index", "_identity_in_span", "chevalley_algebra"),
            id="restated centroid and table builder",
        ),
    ],
)
def test_deleted_names_stay_out_of_src(pattern):
    assert _matches(pattern) == []


def test_twist_alone_marks_a_map_certified():
    # the certificate is written by grading.twist alone, and a map has no
    # composition of its own, which tests/dense.compose keeps as the oracle
    writers = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(target, ast.Subscript)
            and isinstance(target.slice, ast.Constant)
            and target.slice.value == "_certified_table"
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
        )
    ]
    assert writers == [("grading.py", "twist")]
    assert "compose" not in vars(FiniteOrderAutomorphism)


def test_only_linalg_names_the_span_solver():
    # linalg keeps the elimination-based SpanSolver as the tests' reference,
    # and perfbench/tracer.py wraps it by name, but nothing in src calls it
    others = [path for path in SOURCES if path != SRC / "loopforms" / "linalg.py"]
    assert _matches(r"SpanSolver", others) == []


def test_tracer_methods_name_classes_in_src(monkeypatch):
    # the benchmark's tracer wraps each Class.method of its SPANS by
    # setattr on the class, so a class that left src would crash a traced
    # run; a plain function that left src is only reported as not found
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    methods = [(module, attr) for module, attr, _ in tracer.SPANS if "." in attr]
    assert methods
    for module, attr in methods:
        owner, method = attr.split(".")
        cls = getattr(importlib.import_module(f"loopforms.{module}"), owner, None)
        assert inspect.isclass(cls) and method in vars(cls), f"{module}.{attr}"


def test_only_centroid_imports_the_elimination_kernel():
    # linalg holds elimination alone, and the centroid system is its one
    # caller in src, so no other request compiles it
    found = _matches(r"^\s*(from|import)\b.*\blinalg\b")
    assert [line.split(":")[0] for line in found] == ["src/loopforms/centroid.py"]


def test_only_chevalley_builds_type_twist_factors():
    # a type-label twist is built by chevalley.type_twist_factors alone
    others = [path for path in SOURCES if path != SRC / "loopforms" / "chevalley.py"]
    assert _matches(r"\bdiagram_automorphism\(", others) == []


def test_affine_reads_the_certified_twist_it_is_handed():
    # affine takes (type_label, alg, sigma): it names no pi or charge, runs
    # no twist check, builds no twist, and reports only what it read
    affine = SRC / "loopforms" / "affine.py"
    names = _words("DiagramPermutation", "check_twist", "type_twist_factors")
    assert _matches(names, [affine]) == []
    signature = inspect.signature(affine_certificate).parameters
    assert tuple(signature) == ("type_label", "alg", "sigma")
    assert all(p.default is inspect.Parameter.empty for p in signature.values())
    assert ExtractionReport._fields == ("grading", "gcm", "base", "label")


def test_affine_reads_h0_off_the_weights():
    # fixed_cartan takes the table and its grading, and h0 is supported on
    # the indices of weight zero: affine reads no rank and no basis layout
    affine = SRC / "loopforms" / "affine.py"
    assert tuple(inspect.signature(fixed_cartan).parameters) == ("alg", "grading")
    assert _matches(r"\.rank\b", [affine]) == []


def test_descent_names_no_chevalley_import():
    # not even inside a function: test_lazy_import checks the module load
    assert _matches(r"^\s*(from|import)\b.*\bchevalley\b", [SRC / "loopforms" / "descent.py"]) == []


def test_refusals_are_classified_by_kind():
    # a malformed input raises record.RequestError wherever it is checked, so
    # no check takes the class to raise; _cartan_axioms alone takes one, since
    # its two callers certify a matrix and raise their own certificate errors
    takes_error = [
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "error" in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    ]
    assert takes_error == ["_cartan_axioms"]


def test_the_cli_runs_no_library_check():
    # the library refuses a malformed or oversized twist itself; the CLI
    # checks only the shape of its argv and --auto
    cli = SRC / "loopforms" / "cli.py"
    names = _words("check_twist", "check_matrix_twist", "MAX_DIM", "MAX_PERIOD", "TYPE_LABELS")
    assert _matches(names, [cli]) == []


# each size limit, and the library functions that read the input it bounds
SIZE_LIMITS = {
    "MAX_DIM": {"algebra.from_obj", "chevalley.cartan_matrix", "descent.matrix_twist_factors"},
    "MAX_PERIOD": {"chevalley.check_twist", "descent.matrix_twist_factors"},
}


def test_each_size_limit_is_defined_once_and_read_where_its_input_is():
    defined, read = [], {name: set() for name in SIZE_LIMITS}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node inside a function -> that function
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                owner.update((node, f"{path.stem}.{function.name}") for node in ast.walk(function))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in SIZE_LIMITS:
                if isinstance(node.ctx, ast.Store):
                    defined.append(f"{path.stem}.{node.id}")
                else:
                    read[node.id].add(owner.get(node, path.stem))
    assert sorted(defined) == ["record.MAX_DIM", "record.MAX_PERIOD"]
    assert read == SIZE_LIMITS


def test_one_backtracking_search():
    # node_isomorphisms' generator is the one backtracking search in src
    assert len(_matches(r"def extend")) <= 1


def test_grading_derived_data_is_per_residue():
    # one centroid call solves every shift; the grading and the root data
    # store one entry per residue and read their period off them (below)
    assert tuple(inspect.signature(centroid_graded).parameters) == ("alg", "grading")


@pytest.mark.parametrize(
    "record, fields, derived",
    [
        pytest.param(*case, id=case[0].__name__)
        for case in (
            (GradedDecomposition, ("component_bases",), ("period", "dims", "dim")),
            (ValidationReport, ("kind", "dim", "violations"), ("triples_checked", "ok")),
            (AffineRootData, ("h0", "spaces"), ("period",)),
            (
                ClassificationRow,
                ("class_rep", "class_size", "affine_label", "grading_dims", "centroid_dims"),
                ("twist_order", "centroid_ok"),
            ),
            (CentroidReport, ("shift_residue", "contains_identity", "basis"), ("solution_dim",)),
        )
    ],
)
def test_a_record_stores_only_what_its_step_decided(record, fields, derived):
    # what a record can read off its own fields is a property, not a
    # second copy that could contradict them
    assert record._fields == fields
    assert all(isinstance(getattr(record, name), property) for name in derived)


# -- the workflow runs only the gate ---------------------------------------------

# what a workflow step may run: pip, pytest, the raise tracer, the stdout
# recorder with the git diff that checks it left the ledger unchanged, and
# perfbench/run.py, with the tee and tail that keep and read run.py's last line
_PROGRAMS = (
    ("python", "-m", "pip"),
    ("python", "-m", "pytest"),
    ("python3", "-m", "pytest"),
    ("python", "tests/tools/trace_raises.py"),
    ("python", "tests/tools/record_stdout.py"),
    ("git", "diff", "--exit-code", "--", "tests/golden/stdout.json"),
    ("python3", "perfbench/run.py"),
    ("tee",),
    ("tail",),
)

# the workload gate's verdict on that line: run.py exits 0 whatever it
# measured, so the gate reads its "correct" field; no other inline Python
_VERDICT = [
    "python3",
    "-c",
    'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)',
]

_ACTIONS = ("actions/checkout@", "actions/setup-python@")


def _run_scripts(text):
    """The script of each `run:` key of a workflow, a block or one line."""
    lines = text.splitlines()
    scripts = []
    for i, line in enumerate(lines):
        key, _, value = line.strip().removeprefix("- ").partition(":")
        if key != "run":
            continue
        value = value.strip()
        if not value.startswith(("|", ">")):
            scripts.append(value)
            continue
        indent = len(line) - len(line.lstrip())
        body = []
        for inner in lines[i + 1:]:
            if inner.strip() and len(inner) - len(inner.lstrip()) <= indent:
                break
            body.append(inner)
        scripts.append(textwrap.dedent("\n".join(body)))
    return scripts


def _commands(script):
    """The simple commands of a shell script, each as its words less any
    leading variable assignments, and the functions the script defines.  A
    `for` header and the words that delimit a loop or a function body run
    nothing and are dropped; comments are dropped by the lexer."""
    commands, functions = [], set()
    pending = ""
    for line in script.splitlines():
        pending += line + "\n"
        lexer = shlex.shlex(pending, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        try:
            tokens = list(lexer)
        except ValueError:  # a quote or an escaped newline runs on
            continue
        pending = ""
        words = []
        for token in [*tokens, ";"]:
            if not token.strip("();<>|&"):
                if token == "()" and len(words) == 1:
                    functions.add(words[0])
                elif words and words[0] != "for":
                    commands.append(words)
                words = []
            elif words or not (re.match(r"\w+=", token) or token in ("do", "done", "{", "}")):
                words.append(token)
    if pending:
        raise ValueError(f"unterminated shell text: {pending!r}")
    return commands, functions


def test_workflow_runs_only_pip_pytest_and_the_benchmark():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert len(text.splitlines()) < 60
    uses = re.findall(r"^\s*(?:- )?uses:\s*(\S+)", text, re.MULTILINE)
    assert [action for action in uses if not action.startswith(_ACTIONS)] == []
    ran, refused = [], []
    for script in _run_scripts(text):
        commands, functions = _commands(script)
        for words in commands:
            allowed = (
                words == _VERDICT
                or words[0] in functions
                or any(tuple(words[: len(program)]) == program for program in _PROGRAMS)
            )
            (ran if allowed else refused).append(" ".join(words))
    assert refused == []
    assert "python -m pytest -q --continue-on-collection-errors" in ran


# -- every refusal is tested --------------------------------------------------

RaiseSite = namedtuple("RaiseSite", "path line end key")

# the refusals that no test makes, each with the reason it stays; every other
# raise in src has its message in a test (tests/tools/trace_raises.py checks
# that Tier-1 reaches them)
UNTESTED_REFUSALS = {}


def raise_sites():
    """Every `raise` in src, with its key: the longest literal fragment of
    its message, the part a test can match whatever the placeholders hold."""
    sites = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            message = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else None
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            fragments = [p.value.strip() for p in parts if isinstance(p, ast.Constant)]
            key = max(fragments, key=len, default="")
            path_name = path.relative_to(ROOT).as_posix()
            sites.append(RaiseSite(path_name, node.lineno, node.end_lineno, key))
    return sites


def _tested_keys(keys):
    """The keys that a string literal of the tests, this file aside, holds,
    once its regex escapes are read (`\\(` as `(`).  A string that holds a
    longer key holding this one is read as a test of the longer key only."""
    strings = {
        re.sub(r"\\(.)", r"\1", node.value)
        for path in TESTS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    tested = set()
    for key in keys:
        longer = [other for other in keys if key in other and key != other]
        if any(key in s and not any(o in s for o in longer) for s in strings):
            tested.add(key)
    return tested


def test_every_refusal_has_its_own_message():
    sites = raise_sites()
    shared = Counter(site.key for site in sites)
    assert [site for site in sites if not site.key or shared[site.key] > 1] == []


def test_every_refusal_is_matched_by_a_test():
    sites = raise_sites()
    tested = _tested_keys({site.key for site in sites})
    assert [s for s in sites if s.key not in tested and s.key not in UNTESTED_REFUSALS] == []


def test_the_allowlist_is_short_and_current():
    keys = {site.key for site in raise_sites()}
    assert len(UNTESTED_REFUSALS) <= 10
    assert [key for key in UNTESTED_REFUSALS if key not in keys or key in _tested_keys(keys)] == []


def test_src_holds_no_assert():
    # python -O strips assert statements, so no check may depend on one
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
