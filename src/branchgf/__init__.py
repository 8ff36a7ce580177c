"""Exact rational generating functions for self-similar rooted trees.

The package discovers the finitely many recurring node classes of a rooted
tree given as a branching process, builds the integer branching matrix, and
computes per-class and total level-count generating functions exactly.
Instantiations cover simultaneous-conjugacy classes of commuting tuples in
finite permutation groups, isomorphism classes of modules over polynomial
algebras via finite matrix algebras, and point / vector configurations.
"""

from .engine import (
    BranchingMatrix,
    BranchingProcess,
    bfs_level_counts,
    build_branching,
    gf_total,
    render_dot,
    verify_tree,
)
from .errors import (
    BranchgfError,
    ElementNotInAlgebraError,
    ElementNotInGroupError,
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    OrderLimitError,
    ResourceLimitError,
    SizeLimitError,
    StateExplosionError,
    WorkBudgetError,
    ZeroDenominatorError,
)
from .polyring import Poly, RatFun, resolvent_column

__all__ = [
    "Poly",
    "RatFun",
    "resolvent_column",
    "BranchingProcess",
    "BranchingMatrix",
    "build_branching",
    "gf_total",
    "bfs_level_counts",
    "verify_tree",
    "render_dot",
    "BranchgfError",
    "ZeroDenominatorError",
    "NonUnitConstantTermError",
    "NonIntegerCoefficientError",
    "ElementNotInGroupError",
    "ElementNotInAlgebraError",
    "ResourceLimitError",
    "StateExplosionError",
    "OrderLimitError",
    "SizeLimitError",
    "WorkBudgetError",
]

__version__ = "0.1.0"
