"""ddlite: a small deductive-database toolkit.

Rule programs in Prolog-style syntax are parsed, analyzed as dependency
graphs, evaluated bottom-up with embedded builtin calls and proof trees,
translated from SWRL rule bases, and joined against XML documents and CSV
relations with grouped aggregation.

Importing the package loads none of its modules.  Each public name, and
each submodule, is imported on first access (PEP 562), so a program that
uses only the engine never loads the hybrid query layer or csv.
"""

# the public names, by the submodule that defines them
_EXPORTS = {
    "engine": (
        "BUILTINS", "EvalOptions", "FactStore", "Strata", "Violation", "auto_pt",
        "call_builtin", "check_safety", "dump_facts", "evaluate", "facts_as_rules",
        "proof_tree", "render_proof_tree", "stratify", "tree_of", "validate_fact",
        "validate_store",
    ),
    "errors": (
        "CycleError", "DdliteError", "EvalTypeError", "InstantiationError",
        "ParseError", "ResourceLimitExceeded", "SafetyError", "UnknownBuiltin",
        "XmlParseError",
    ),
    "graphs": (
        "DepGraph", "DiffReport", "Edge", "MetaCallNode", "PredNode", "RuleNode",
        "TagNode", "build_pdg", "build_rpg", "equivalent_modulo_helpers",
        "graph_diff", "graph_to_json", "reachable", "schema_graph", "to_dot",
        "unfold_helper",
    ),
    "hybrid": (
        "AggTemplate", "PathBinding", "PathExpr", "ddbase_aggregate",
        "load_facts_csv", "load_xml", "parse_goal", "parse_template", "path_eval",
        "solve_goal",
    ),
    "kernel": (
        "Atom", "Compound", "Const", "Literal", "Num", "PredKey", "Program", "Rule",
        "SourceSpan", "Term", "Var", "apply", "is_ground", "mgu", "mklist",
        "rename_apart", "rule_text", "term_text", "term_vars",
    ),
    "syntax": (
        "lloyd_topor", "parse_program", "parse_ruleml_xml", "parse_swrl",
        "print_program", "swrl_to_datalog",
    ),
    "xmlterm": ("Text", "XmlTerm", "parse_xml", "xml_to_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
