"""Random-walk mixing experiments on sparse random digraphs.

The package samples two directed-graph ensembles (stub matching with
prescribed in/out degrees, and independent distinct-target out-maps),
runs static and environment-refreshing walks on them, and estimates the
distance-to-equilibrium curves those walks follow at scale.
"""

from .core import (DegreeSequence, DIST_TOL, EntropicScale, ModelKind,
                   assert_distribution, entropic_scale,
                   in_degree_distribution, load_degree_sequence, tv_distance,
                   validate_degrees)
from .errors import (AllReplicatesFailed, BadCurveName, BadGeneratorSyntax,
                     BadRange, BadValue, BudgetExceeded, DegreeTooLarge,
                     DegreeTooSmall, ImpossibleStep, LengthMismatch,
                     MismatchedSums, MissingRequired, MixingLabError,
                     ModelMismatch, NotConverged, UnknownFlag)
from .experiments import (CrosscheckResult, ExperimentConfig, PathWeightResult,
                          annealed_check, double_cutoff_sweep, gamma_hat,
                          joint_relaxation_curve, marginal_mc_crosscheck,
                          marginal_crosscheck_report,
                          marginal_relaxation_curve, path_weight_lln,
                          path_weight_report, pick_regime,
                          static_cutoff_profile, stationary_diagnostics,
                          stationary_gap_report, theory_curve)
from .report import (ExperimentReport, ReportRow, diagnostics_csv_text,
                     parse_curve_csv)
from .rng import LANE, RngStream
from .sampler import (Digraph, digraph_from_json, digraph_to_json, sample_dcm,
                      sample_digraph, sample_ocm)
from .stationary import (DiagnosticsRow, GapEstimate, StationaryResult,
                         WidespreadStats, estimate_stationary_gap,
                         solve_replicates, stationary_distribution,
                         widespread_stats)
from .walk import (MassMonitor, OperationBudget, Trajectory, TransitionKernel,
                   delta_at, double_row, kernel_from_digraph, path_log_weight,
                   path_log_weights, propagate, sample_paths,
                   sample_trajectory, time_averaged_row, time_averaged_rows)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
