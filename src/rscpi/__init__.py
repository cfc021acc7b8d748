"""Risk-seeking conservative policy iteration for finite-horizon Dec-POMDPs.

Plan over agent-state (finite-state-controller) policies with exact
evaluation, an entropic-risk annealing schedule, and a `.dpomdp` benchmark
harness. See the README for the CLI and file conventions.
"""

from .dpomdp_parser import ParseDiagnostic, compile_model, parse_dpomdp
from .evaluation import (AveragedLocalQ, NumericError, backward,
                         evaluate_exact, evaluate_risk, forward_marginals,
                         rollout_monte_carlo)
from .model import DecPomdpModel, make_initial_distribution, matrix_game_model
from .policy import (JointPolicy, dump_policy, mix_policies,
                     policy_from_json, policy_to_json, random_policy)
from .solver import (SolveResult, SolverConfig, greedy_agent_update, rscpi,
                     sweep)

__version__ = "0.1.0"

__all__ = [
    "AveragedLocalQ", "DecPomdpModel", "JointPolicy",
    "NumericError", "ParseDiagnostic", "SolveResult", "SolverConfig",
    "backward",
    "compile_model", "dump_policy", "evaluate_exact", "evaluate_risk",
    "forward_marginals", "greedy_agent_update", "make_initial_distribution",
    "matrix_game_model", "mix_policies",
    "parse_dpomdp", "policy_from_json", "policy_to_json", "random_policy",
    "rollout_monte_carlo", "rscpi", "sweep",
]
