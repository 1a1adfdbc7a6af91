"""Word-length optimization: the layer the noise analysis exists to feed.

Given a circuit, an output-SNR floor and a hardware cost model, the
strategies in this package search per-node fixed-point word lengths that
minimize area while staying feasible — the paper's headline experiment
(uniform vs optimized word lengths) as a reusable subsystem:

>>> from repro.benchmarks import get_circuit
>>> from repro.optimize import OptimizationProblem, get_optimizer
>>> problem = OptimizationProblem.from_circuit(get_circuit("fir4"), 60.0)
>>> result = get_optimizer("greedy").optimize(problem)
>>> result.assignment        # the optimized design
>>> result.improvement       # fractional saving vs the uniform baseline
>>> front = problem.pareto([50.0, 55.0, 60.0])   # cost-vs-SNR sweep
"""

from repro.optimize.cost import (
    ASIC_COST_TABLE,
    COST_TABLES,
    DEFAULT_COST_TABLE,
    CostBreakdown,
    CostTable,
    HardwareCostModel,
)
from repro.optimize.pareto import ParetoFront, ParetoPoint, pareto_front
from repro.optimize.problem import DesignEvaluation, OptimizationProblem
from repro.optimize.result import IterationRecord, OptimizationResult
from repro.optimize.strategies import (
    OPTIMIZERS,
    GreedyBitStealingOptimizer,
    UniformSweepOptimizer,
    WordLengthOptimizer,
    get_optimizer,
)

# Imported after strategies so registration lands in OPTIMIZERS.
from repro.optimize.decomposed import DecomposedOptimizer

__all__ = [
    "CostTable",
    "CostBreakdown",
    "HardwareCostModel",
    "DEFAULT_COST_TABLE",
    "ASIC_COST_TABLE",
    "COST_TABLES",
    "OptimizationProblem",
    "DesignEvaluation",
    "OptimizationResult",
    "IterationRecord",
    "WordLengthOptimizer",
    "UniformSweepOptimizer",
    "GreedyBitStealingOptimizer",
    "DecomposedOptimizer",
    "OPTIMIZERS",
    "get_optimizer",
    "ParetoPoint",
    "ParetoFront",
    "pareto_front",
]
