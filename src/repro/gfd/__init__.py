"""GFD model, semantics, closure, implication and satisfiability."""

from .closure import LiteralClosure, chase, embedded_rules, enforced
from .gfd import GFD, Violation, is_trivial
from .implication import ImplicationChecker, implies
from .literals import (
    FALSE,
    ConstantLiteral,
    FalseLiteral,
    Literal,
    VariableLiteral,
    format_literal_set,
    literal_variables,
    make_variable_literal,
    rename_literal,
)
from .parser import (
    GFDSyntaxError,
    dumps_sigma,
    format_gfd,
    loads_sigma,
    parse_gfd,
)
from .satisfiability import build_model, is_satisfiable, satisfiable_patterns

#: Names of :mod:`repro.oracle` this package re-exports.
_ORACLE_EXPORTS = {
    "satisfies_literal",
    "satisfies_all",
    "satisfies_gfd",
    "graph_satisfies",
    "find_violations",
    "validate_set",
}

__all__ = [
    "GFD",
    "FALSE",
    "ConstantLiteral",
    "VariableLiteral",
    "FalseLiteral",
    "Literal",
    "LiteralClosure",
    "ImplicationChecker",
    "Violation",
    "GFDSyntaxError",
    "is_trivial",
    "make_variable_literal",
    "rename_literal",
    "literal_variables",
    "format_literal_set",
    "chase",
    "enforced",
    "embedded_rules",
    "implies",
    "is_satisfiable",
    "satisfiable_patterns",
    "build_model",
    "satisfies_literal",
    "satisfies_all",
    "satisfies_gfd",
    "graph_satisfies",
    "find_violations",
    "validate_set",
    "parse_gfd",
    "format_gfd",
    "dumps_sigma",
    "loads_sigma",
]


def __getattr__(name: str):
    """The oracle's public names, re-exported from :mod:`repro.oracle` on
    first use (the oracle is built on this package's modules)."""
    if name in _ORACLE_EXPORTS:
        from .. import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
