"""Continuous-time behavior trees as switched dynamical systems.

Build a tree from Sequence/Fallback composites over leaves that carry a
state-feedback controller and a status predicate, bind it to a plant, and
the package gives you: the region calculus (influence and operating
regions, which partition the state space among the leaves), a switched-ODE
executor with event detection and sliding-mode handling on chattering
surfaces, and empirical convergence certificates built from batches of
runs.  Models can also be written in a small text format (.btm) and driven
from the command line.
"""

from .convergence import (
    ConvergenceCertificate,
    EmptyBatch,
    MixedModels,
    PreparesGraph,
    build_prepares_graph,
    certify,
    check_acyclic,
    check_lambda_invariance,
    dwell_times,
    longest_chain,
)
from .core import (
    BehaviorTree,
    DimensionMismatch,
    Fallback,
    Leaf,
    LeafBehavior,
    NonFiniteState,
    Plant,
    Sequence,
    Status,
)
from .dsl import LoweredModel, ModelError, load, parse, resolve_model_path
from .executor import (
    ExecutionError,
    FailedRun,
    IntegratorConfig,
    Trajectory,
    TriplePointChatter,
    batch_integrate,
    check_transversality,
    integrate,
    sample_boundary_pairs,
)
from .regions import (
    EmptySampler,
    RegionReport,
    check_partition,
    composed_status,
    grid_points,
    in_influence_region,
    in_operating_region,
    leaf_memberships,
    operating_owners,
    pathway_sets,
    subsystem_leaves,
    uniform_points,
)
from .tree import OrderedTree

__version__ = "0.1.0"

__all__ = [
    "BehaviorTree",
    "ConvergenceCertificate",
    "DimensionMismatch",
    "EmptyBatch",
    "EmptySampler",
    "ExecutionError",
    "FailedRun",
    "Fallback",
    "IntegratorConfig",
    "Leaf",
    "LeafBehavior",
    "LoweredModel",
    "MixedModels",
    "ModelError",
    "NonFiniteState",
    "OrderedTree",
    "Plant",
    "PreparesGraph",
    "RegionReport",
    "Sequence",
    "Status",
    "Trajectory",
    "TriplePointChatter",
    "batch_integrate",
    "build_prepares_graph",
    "certify",
    "check_acyclic",
    "check_lambda_invariance",
    "check_partition",
    "check_transversality",
    "composed_status",
    "dwell_times",
    "grid_points",
    "in_influence_region",
    "in_operating_region",
    "integrate",
    "leaf_memberships",
    "load",
    "longest_chain",
    "operating_owners",
    "parse",
    "pathway_sets",
    "resolve_model_path",
    "sample_boundary_pairs",
    "subsystem_leaves",
    "uniform_points",
    "__version__",
]
