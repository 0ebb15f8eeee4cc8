"""The shape of the source and of the CI workflow.

Names that a simplification deleted from `src` stay deleted, every `raise`
in `src` has a message of its own that a test matches, `src` holds no
`assert`, and the CI workflow runs nothing but the tests, the cold re-record
of the stdout ledger and the benchmark gate, so every other check is a test
that `pytest` runs.  The source is read as text with pathlib, re and ast, so
no git checkout is needed.
"""

import ast
import inspect
import re
import shlex
import textwrap
from collections import Counter, namedtuple
from pathlib import Path

import pytest

from loopforms.affine import AffineRootData
from loopforms.centroid import centroid_graded

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
        # span membership is read off closed forms, is a rank test, or is the
        # closure echelon of the centroid's generating set, and affine
        # weights are read off the grading: no pivot-limited elimination and
        # no candidate weights
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
        # untwist_iso is the one descent certificate: the coboundary row is
        # read off it (descent.UntwistIso.witness_checks), the twist's factors
        # are how grading.twist composed it, and a report row is a dict
        pytest.param(
            _words("coboundary_witness", "CheckReport", "_off_factor"), id="descent rows"
        ),
        # inverse conjugacy and the k-count are read off the class table's
        # inverse column (classify.ConjClassTable): no witness search, which
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
    ],
)
def test_deleted_names_stay_out_of_src(pattern):
    assert _matches(pattern) == []


def test_only_linalg_names_the_span_solver():
    # linalg keeps the elimination-based SpanSolver as the tests' reference,
    # and perfbench/tracer.py wraps it by name, but nothing in src calls it
    others = [path for path in SOURCES if path != SRC / "loopforms" / "linalg.py"]
    assert _matches(r"SpanSolver", others) == []


def test_only_centroid_imports_the_elimination_kernel():
    # linalg holds elimination alone, and the centroid system is its one
    # caller in src, so no other request compiles it
    found = _matches(r"^\s*(from|import)\b.*\blinalg\b")
    assert [line.split(":")[0] for line in found] == ["src/loopforms/centroid.py"]


def test_only_chevalley_builds_type_twist_factors():
    # a type-label twist is built by chevalley.type_twist_factors alone
    others = [path for path in SOURCES if path != SRC / "loopforms" / "chevalley.py"]
    assert _matches(r"\b(?:diagram_automorphism|charge_pairings)\(", others) == []


def test_descent_names_no_chevalley_import():
    # not even inside a function: test_lazy_import checks the module load
    assert _matches(r"^\s*(from|import)\b.*\bchevalley\b", [SRC / "loopforms" / "descent.py"]) == []


def test_one_backtracking_search():
    # node_isomorphisms' generator is the one backtracking search in src
    assert len(_matches(r"def extend")) <= 1


def test_grading_derived_data_is_per_residue():
    # one centroid call solves every shift, and root data is by residue
    assert tuple(inspect.signature(centroid_graded).parameters) == ("alg", "grading")
    assert AffineRootData._fields == ("h0", "period", "spaces")


# -- the workflow runs only the gate ---------------------------------------------

# what a workflow step may run: pip, pytest, the stdout recorder with the
# git diff that checks it left the ledger unchanged, and perfbench/run.py,
# with the tee and tail that keep and read run.py's last line
_PROGRAMS = (
    ("python", "-m", "pip"),
    ("python", "-m", "pytest"),
    ("python3", "-m", "pytest"),
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
