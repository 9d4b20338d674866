"""semolab: a simulation lab for one-offspring evolutionary bi-objective
optimizers (SEMO/GSEMO and their slot-selection variants) on the
CountingOnesCountingZeros, OneMinMax, and OneJumpZeroJump benchmarks, with
instrumentation and a statistical harness for population-dynamics and
runtime-scaling experiments.
"""

from .benchmarks import (BenchmarkSpec, Kind, ParetoFront, analytic_front,
                         brute_force_front)
from .bounds import (GeometricPhaseSet, chernoff_lower_tail,
                     harmonic_sum_bounds, witt_lower_tail, witt_upper_tail)
from .core import (ObjectivePair, Population, strict_dominates,
                   weak_dominates)
from .engine import (AlgorithmSpec, Mutation, RunState, Selection,
                     TrajectoryRecord, TrialResult, init_state, measure,
                     run_until_cover, select_parent_slot,
                     select_parent_uniform, step)
from .experiments import (Checkpoint, ExperimentConfig, HypothesisReport,
                          ScalingFit, check_border_distance,
                          check_equivalence_modified_original,
                          check_front_spread, check_lower_bound_runtime,
                          check_scaling_exponent, check_semo_ojzj_failure,
                          fit_scaling, load_results, run_grid,
                          write_trajectories_csv, write_trials_csv)

__version__ = "0.1.0"
