"""Exact tools for twisted loop algebras over the punctured line.

Everything is computed over cyclotomic extensions of Q with exact
arithmetic; every constructor verifies the laws it claims, so a returned
object is itself the certificate.

`import loopforms` loads no submodule.  Each public name is imported from
its submodule on first access (PEP 562), so a command pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "affine": (
        "AffineLabel",
        "ExtractionReport",
        "GCM",
        "affine_catalog",
        "affine_certificate",
        "affine_roots",
        "extract_gcm",
        "fixed_cartan",
        "gcm_equivalent",
        "simple_affine_roots",
    ),
    "algebra": ("MultTableAlgebra", "validate_algebra"),
    "centroid": ("centroid_graded",),
    "chevalley": (
        "DiagramPermutation",
        "FiniteCartanMatrix",
        "RootSystem",
        "TYPE_LABELS",
        "algebra_over",
        "cartan_matrix",
        "diagram_automorphism",
        "root_system",
        "type_twist_factors",
    ),
    "classify": (
        "OutGroup",
        "classify_type",
        "dynkin_automorphism_group",
    ),
    "cyclo": ("CycloNum",),
    "descent": (
        "UntwistIso",
        "build_matrix_algebra",
        "matrix_twist_factors",
        "untwist_iso",
    ),
    "grading": (
        "FiniteOrderAutomorphism",
        "GradedDecomposition",
        "eigengrading",
        "twist",
    ),
}

# public name -> the submodule that defines it
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
