"""Self-supervised transformer that iteratively refines CSP assignments."""

from .csp import (
    AllDifferentAtMostOnce,
    AllDifferentExact,
    Cardinality,
    CspInstance,
    NotEqual,
    build_graph_coloring,
    build_maxcut,
    build_nurse_rostering,
    build_sudoku,
    check_constraint,
    constraint_graph,
    is_feasible,
    violation_degree,
)
from .model import ModelConfig, ModelWeights, init_weights
from .penalty import LossConfig, LossProgram
from .solve import Budget, SolveReport, multi_start
from .tensor import Tape, Tensor, backward, grad_check
from .train import TrainConfig, train

__all__ = [
    "AllDifferentAtMostOnce",
    "AllDifferentExact",
    "Budget",
    "Cardinality",
    "CspInstance",
    "LossConfig",
    "LossProgram",
    "ModelConfig",
    "ModelWeights",
    "NotEqual",
    "SolveReport",
    "Tape",
    "Tensor",
    "TrainConfig",
    "backward",
    "build_graph_coloring",
    "build_maxcut",
    "build_nurse_rostering",
    "build_sudoku",
    "check_constraint",
    "constraint_graph",
    "grad_check",
    "init_weights",
    "is_feasible",
    "multi_start",
    "train",
    "violation_degree",
]
