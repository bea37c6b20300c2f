"""Desk-scale laboratory for zero-sum games with simplex-valued martingale
controls and the matching Hamilton-Jacobi equation with convexity constraints.

The package splits into: simplex geometry (`simplex`), running costs and
envelope operators (`hamiltonian`), pathwise simulation (`sde`), the two-point
splitting control (`splitting`), the backward envelope solver (`hj`), the
restricted game arena (`arena`), and the CLI plus acceptance suite (`cli`,
`acceptance`).
"""

from splitgame.hamiltonian import (
    HamiltonianField,
    PayoffTensor,
    SimplexGrid,
    analytic_field,
    cav_q,
    eval_H,
    matrix_game_value,
    tensor_field,
    vex_p,
)
from splitgame.hj import ValueGrid, naive_hji_residual, regularity_report, residuals, solve
from splitgame.sde import (
    FeedbackControl,
    NoiseGrid,
    TrajectoryBundle,
    estimate_j,
    lipschitz_p_check,
    simulate,
    simulation_report,
)
from splitgame.simplex import (
    DegeneratePointError,
    RelEigenResult,
    SimplexPoint,
    rel_eigen_max,
    rel_eigen_min,
    support,
    tangent_basis,
)
from splitgame.splitting import SplitSpec, make_split_control, unit_segment_spec

__version__ = "0.1.0"

__all__ = [
    "DegeneratePointError",
    "FeedbackControl",
    "HamiltonianField",
    "NoiseGrid",
    "PayoffTensor",
    "RelEigenResult",
    "SimplexGrid",
    "SimplexPoint",
    "SplitSpec",
    "TrajectoryBundle",
    "ValueGrid",
    "analytic_field",
    "cav_q",
    "estimate_j",
    "eval_H",
    "lipschitz_p_check",
    "make_split_control",
    "matrix_game_value",
    "naive_hji_residual",
    "regularity_report",
    "rel_eigen_max",
    "rel_eigen_min",
    "residuals",
    "simulate",
    "simulation_report",
    "solve",
    "support",
    "tangent_basis",
    "tensor_field",
    "unit_segment_spec",
    "vex_p",
    "__version__",
]
