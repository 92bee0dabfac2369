"""palab: inclusion-based points-to analysis, Dyck/CFL reachability, and
the reductions connecting them, with cross-checking oracles."""

from .model import (
    AnalysisError,
    BooleanMatrix,
    Grammar,
    LabeledDigraph,
    PointsToSolution,
    Program,
    ReductionMap,
    Statement,
    StatementKind,
    StatementProfile,
    Variable,
)
from .andersen import query, solve
from .peg import PEG, ExprForm, build_peg, peg_statements
from .cfl import (
    NormalizedGrammar,
    SummarySet,
    all_pairs,
    builtin_grammar,
    derives,
    dyck_grammar,
    follow_sets,
    normalize,
    st_query,
)
from .reductions import (
    D1Instance,
    StInstance,
    bmm_to_d1,
    d1_to_program,
    multiply_via_d1,
    triangle_to_st_d1,
)
from .crosscheck import (
    CheckReport,
    bmm_oracle,
    check_bmm_chain,
    check_peg_equivalence,
    check_pt_prime,
    check_triangle_chain,
    triangle_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
