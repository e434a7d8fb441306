"""Random-walk mixing experiments on sparse random digraphs.

The package samples two directed-graph ensembles (stub matching with
prescribed in/out degrees, and independent distinct-target out-maps),
runs static and environment-refreshing walks on them, and estimates the
distance-to-equilibrium curves those walks follow at scale.
"""

import types

from .core import (DegreeSequence, DIST_TOL, EntropicScale, ModelKind,
                   entropic_scale, in_degree_distribution,
                   load_degree_sequence, tv_distance, validate_degrees)
from .errors import (AllReplicatesFailed, BadCurveName, BadGeneratorSyntax,
                     BadRange, BadValue, BudgetExceeded, DegreeTooLarge,
                     DegreeTooSmall, ImpossibleStep, LengthMismatch,
                     MismatchedSums, MissingRequired, MixingLabError,
                     ModelMismatch, NotConverged, UnknownFlag)
from .experiments import (ExperimentConfig, annealed_check,
                          double_cutoff_sweep, gamma_hat,
                          joint_relaxation_curve, marginal_mc_crosscheck,
                          marginal_relaxation_curve, path_weight_lln,
                          path_weight_report, pick_regime,
                          static_cutoff_profile, stationary_diagnostics,
                          stationary_gap_report, theory_curve)
from .report import ExperimentReport, ReportRow, diagnostics_csv_text
from .rng import LANE, RngStream
from .sampler import Digraph, sample_digraph, sample_tables
from .stationary import (DiagnosticsRow, GapEstimate, StationaryResult,
                         estimate_stationary_gap, solve_replicates,
                         stationary_distribution)
from .walk import (OperationBudget, Trajectory, TransitionKernel, delta_at,
                   double_row, kernel_from_digraph, one_step_laws,
                   path_log_weight, path_log_weights, propagate,
                   sample_paths, sample_trajectory, time_averaged_row)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, types.ModuleType))]
