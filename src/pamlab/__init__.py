"""Simulation and analysis toolkit for moments of branching random walks
in i.i.d. random potentials.

The package covers five potential families (Weibull, double-exponential,
squared double-exponential, Frechet, hard-core), exact cumulant
analytics, truncated and untruncated moment solvers, a Feynman-Kac path
sampler, a Gillespie particle simulator, replica moment statistics, and
box-average regime experiments.
"""

import time

_import_start = time.perf_counter()  # read by cli for summary.json's import_s

__version__ = "0.1.0"

from .analytics import (
    QuadratureError,
    RootBracketError,
    critical_a,
    cumulant_H,
    cumulant_exponent_G,
    growth_J,
    intermittency_shape_f1,
    rate_I,
    transition_exponents,
)
from .environments import (
    Environment,
    TailFamily,
    effective_potential,
    load_environment,
    sample_environment,
    save_environment,
    window_coords,
)
from .feynman_kac import exit_tail_mc, fk_estimate, fk_path_log_weights, wilson_interval
from .moments import (
    block_variance,
    build_partitions,
    correlation_profile,
    estimate_F_theta,
    estimate_H1,
    strip_fraction,
    strip_fraction_bound,
)
from .particles import gillespie_run, population_ensemble
from .regimes import (
    RegimeConfig,
    RegimeThresholds,
    ScheduleRule,
    annealed_reference,
    clt_experiment,
    critical_experiment,
    lln_experiment,
    schedule_L,
    verdict_consistent,
)
from .seeding import derive_seed, generator, site_uniforms
from .solver import (
    BoxDomain,
    MomentField,
    SolverError,
    empirical_average,
    required_radius,
    solve_truncated,
    solve_untruncated,
)
from .spectral import principal_eigen, verify_sandwich
