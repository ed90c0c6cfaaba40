"""Teleportation fidelity moments under non-uniform input ensembles."""

from .core import (BellDiagonal, BlochDirection, CorrelationTensor, EstimatorReport,
                   FidelityStats, InputDistribution, PolarCap, PureSchmidt,
                   StateFamily, Uniform, VonMisesFisher, Werner, concurrence,
                   correlation_tensor)
from .distributions import (cos_moments, density, mean_polar_angle,
                            sample_directions, sample_qutrit_inputs,
                            spread_moments)
from .fidelity import (InfoMeasure, SubclassicalFidelityWarning, average_fidelity,
                       bd_rank3_threshold, classical_fidelity,
                       fidelity_second_moment, fidelity_stats, is_nonclassical,
                       pointwise_fidelity, prior_information, werner_threshold)
from .resources import (BellOutcomeDistribution, bell_probabilities_averaged,
                        bell_probabilities_pointwise, cc_cost,
                        required_entanglement)
from .compare import (ComparisonRow, MatchCriterion, MatchedPair, delta_stats,
                      match_by_classical_fidelity, match_by_mean_angle,
                      sweep_comparison)
from .qutrit import (QutritInput, QutritSharedState, dimensional_advantage,
                     participation_moment, qutrit_average_fidelity,
                     qutrit_classical_fidelity, qutrit_pointwise_fidelity,
                     qutrit_prior_information, theta4_for_fractional_info)
from .sim import (ProtocolRun, ShotRecords, SimReport, density_matrix, qubit_runs,
                  qutrit_runs, simulate_classical, simulate_qubit, simulate_qutrit)
from .verify import CheckResult, run_check, run_verification, CHECK_NAMES

__version__ = "0.1.0"

__all__ = [
    "BellDiagonal", "BellOutcomeDistribution", "BlochDirection", "CheckResult",
    "ComparisonRow", "CorrelationTensor", "EstimatorReport", "FidelityStats",
    "InfoMeasure", "InputDistribution", "MatchCriterion", "MatchedPair",
    "PolarCap", "ProtocolRun", "PureSchmidt", "QutritInput", "QutritSharedState",
    "ShotRecords", "SimReport", "StateFamily", "SubclassicalFidelityWarning", "Uniform",
    "VonMisesFisher", "Werner", "average_fidelity", "bd_rank3_threshold",
    "bell_probabilities_averaged", "bell_probabilities_pointwise", "cc_cost",
    "classical_fidelity", "concurrence", "correlation_tensor", "cos_moments",
    "delta_stats", "density", "density_matrix", "dimensional_advantage",
    "fidelity_second_moment", "fidelity_stats", "is_nonclassical",
    "match_by_classical_fidelity", "match_by_mean_angle", "mean_polar_angle",
    "participation_moment", "pointwise_fidelity", "prior_information",
    "qubit_runs", "qutrit_average_fidelity",
    "qutrit_classical_fidelity", "qutrit_pointwise_fidelity",
    "qutrit_prior_information", "qutrit_runs", "required_entanglement",
    "run_check", "run_verification", "sample_directions",
    "sample_qutrit_inputs", "simulate_classical",
    "simulate_qubit", "simulate_qutrit", "spread_moments", "sweep_comparison",
    "theta4_for_fractional_info", "werner_threshold", "CHECK_NAMES",
    "__version__",
]
