"""ddlite: a small deductive-database toolkit.

Rule programs in Prolog-style syntax are parsed, analyzed as dependency
graphs, evaluated bottom-up with embedded builtin calls and proof trees,
translated from SWRL rule bases, and joined against XML documents and CSV
relations with grouped aggregation.
"""

from .engine import (
    BUILTINS,
    EvalOptions,
    FactStore,
    Strata,
    Violation,
    auto_pt,
    call_builtin,
    check_safety,
    dump_facts,
    evaluate,
    facts_as_rules,
    proof_tree,
    render_proof_tree,
    stratify,
    tree_of,
    validate_fact,
    validate_store,
)
from .errors import (
    CycleError,
    DdliteError,
    EvalTypeError,
    InstantiationError,
    ParseError,
    ResourceLimitExceeded,
    SafetyError,
    UnknownBuiltin,
    XmlParseError,
)
from .graphs import (
    DepGraph,
    DiffReport,
    Edge,
    MetaCallNode,
    PredNode,
    RuleNode,
    TagNode,
    build_pdg,
    build_rpg,
    equivalent_modulo_helpers,
    graph_diff,
    graph_to_json,
    on_cycle,
    pdg_from_rpg,
    reachable,
    schema_graph,
    to_dot,
    unfold_helper,
)
from .hybrid import (
    AggTemplate,
    PathBinding,
    PathExpr,
    ddbase_aggregate,
    load_facts_csv,
    load_xml,
    parse_goal,
    parse_template,
    path_eval,
    solve_goal,
)
from .kernel import (
    Atom,
    Compound,
    Const,
    Literal,
    Num,
    PredKey,
    Program,
    Rule,
    SourceSpan,
    Term,
    Var,
    apply,
    is_ground,
    mgu,
    mklist,
    rename_apart,
    rule_text,
    term_text,
    term_vars,
)
from .syntax import (
    lloyd_topor,
    parse_program,
    parse_ruleml_xml,
    parse_swrl,
    print_program,
    swrl_to_datalog,
)
from .xmlterm import Text, XmlTerm, parse_xml, xml_to_text

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
