"""Exception hierarchy shared across the package.

Every domain error derives from DdliteError so callers (and the CLI) can
distinguish "the input is bad" (exit 1) from genuine I/O or usage problems
(exit 2).  Errors raised while reading source text carry a SourceSpan.
"""

from __future__ import annotations


class DdliteError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


# ---------------------------------------------------------------- syntax ---

class ParseError(DdliteError):
    """Malformed rule text, SWRL abstract syntax, or goal/template text."""


class XmlParseError(DdliteError):
    """Malformed XML input."""


class UnsupportedConstruct(DdliteError):
    """Well-formed input using a construct outside the supported subset."""


class EmptyConsequent(DdliteError):
    """A rule with no consequent atoms cannot be split into clauses."""


class TranslationError(DdliteError):
    """A rule that cannot be mapped onto plain clauses (e.g. variable
    names that collide once capitalized)."""


# ---------------------------------------------------------------- graphs ---

class GraphKindError(DdliteError):
    """Operation applied to a graph of the wrong kind."""


class NodeNotFound(DdliteError):
    """A named node does not occur in the graph or program."""


class NotUnifiableError(DdliteError):
    """unfold: the selected body literal does not unify with the helper head."""


class NegatedLiteralError(DdliteError):
    """unfold: the selected body literal is negated."""


class BuiltinLiteralError(DdliteError):
    """unfold: the selected body literal is a builtin call."""


# ---------------------------------------------------------------- engine ---

class SafetyError(DdliteError):
    """Program rejected by the range-restriction check."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"unsafe program: {lines}")


class CycleError(DdliteError):
    """Negation through a dependency cycle; no stratification exists."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        names = " -> ".join(f"{k.name}/{k.arity}" for k in self.cycle)
        super().__init__(f"negation on a cycle: {names}")


class InstantiationError(DdliteError):
    """A builtin was called with a required argument still unbound."""


class EvalTypeError(DdliteError):
    """A builtin was called with an argument of the wrong shape (e.g.
    arithmetic over a non-number), or arithmetic, in a builtin or an
    aggregate, left the numbers ddlite reads."""


class UnknownBuiltin(DdliteError):
    """A prolog-prefixed goal that names no registered builtin."""


class ResourceLimitExceeded(DdliteError):
    """Evaluation hit the iteration or fact ceiling before the fixpoint."""

    def __init__(self, message, stratum=None, delta_sample=()):
        super().__init__(message)
        self.stratum = stratum
        self.delta_sample = tuple(delta_sample)


# ---------------------------------------------------------------- hybrid ---

class RaggedRowError(DdliteError):
    """CSV row with a different column count than the first row."""


class NumericParseError(DdliteError):
    """CSV cell in a declared numeric column that is not a number."""


class UnboundFilterError(DdliteError):
    """Path filter references a variable with no binding yet."""


class PathError(DdliteError):
    """Malformed path application (e.g. attribute access on text)."""


class NonNumericAggregate(DdliteError):
    """sum/avg over a group containing a non-numeric value."""


class TemplateVarUnbound(DdliteError):
    """Aggregation template names a variable the goal never binds."""


class UnorderedAggregate(DdliteError):
    """A template groups by, or takes the min or max of, a value with no
    place in the term order, such as a document node."""
