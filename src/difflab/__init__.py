"""difflab: fast diffusion-model ODE samplers validated on analytic score models."""

from .amed import (
    PredictorParams,
    TrainConfig,
    TrainResult,
    amed_sample,
    amed_step,
    load_predictor,
    save_predictor,
    train,
)
from .geometry import (
    AlignmentResult,
    BoundParams,
    PcaResult,
    cumulative_variance,
    grid_align,
    logistic_bound,
    mc_shell_check,
    pca_trajectory,
    projection_error,
    shell_radius,
)
from .harness import ConfigError, MetricsReport, RunConfig, nfe_to_steps, run_experiment
from .metrics import order_estimate, sliced_wasserstein
from .rng import stream
from .schedules import TimeSchedule, make_schedule, refine_teacher
from .score_models import (
    FEATURE_DIM,
    ORACLE_SUBSTEPS,
    DivergenceError,
    GaussianMixture,
    ModelEval,
    eval_model,
    exact_trajectory,
    load_model,
    oracle_solve,
    reference_solve,
    sample_data,
)
from .solvers import (
    SolverKind,
    afs_direction,
    sample,
    split_step,
    step_dpm2,
    step_dpmpp_2m,
    step_ipndm,
)
from .trajectory import Trajectory, read_trajectory_csv, write_trajectory_csv

__version__ = "0.1.0"
