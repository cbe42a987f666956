"""Workload generation: the paper's experimental inputs.

* :mod:`repro.workload.probability` — the §4.4 *skewy*/*flat* next-access
  probability generators;
* :mod:`repro.workload.scenario` — batched one-shot scenarios for the
  *prefetch only* experiment (Figures 4–5);
* :mod:`repro.workload.markov_source` — the §5.3 100-state Markov request
  source (Figure 7);
* :mod:`repro.workload.zipf` — heavy-tailed popularity (robustness);
* :mod:`repro.workload.trace` — record/replay of request traces;
* :mod:`repro.workload.population` — per-client fleet workloads
  (Zipf mixtures with hot-set overlap, per-client Markov sources);
* :mod:`repro.workload.dynamics` — non-stationary schedules over the
  population sources (regime switching, Zipf-exponent drift, flash crowds,
  diurnal rate modulation) plus the ground truth for drift metrics.
"""

from repro.workload.probability import (
    PROBABILITY_METHODS,
    flat_probabilities,
    generate_probabilities,
    skewy_probabilities,
)
from repro.workload.scenario import ScenarioBatch, generate_scenarios, sample_requests
from repro.workload.markov_source import MarkovSource, generate_markov_source
from repro.workload.zipf import zipf_probabilities, zipf_requests
from repro.workload.trace import Trace, record_markov_trace
from repro.workload.population import (
    ClientWorkload,
    LazyPopulation,
    Population,
    derive_seed,
    markov_population,
    zipf_mixture_population,
)
from repro.workload.dynamics import (
    DYNAMICS_KINDS,
    DynamicPopulation,
    DynamicsConfig,
    DynamicsInfo,
    dynamic_markov_population,
    dynamic_zipf_population,
)

__all__ = [
    "DYNAMICS_KINDS",
    "DynamicPopulation",
    "DynamicsConfig",
    "DynamicsInfo",
    "dynamic_markov_population",
    "dynamic_zipf_population",
    "PROBABILITY_METHODS",
    "flat_probabilities",
    "generate_probabilities",
    "skewy_probabilities",
    "ScenarioBatch",
    "generate_scenarios",
    "sample_requests",
    "MarkovSource",
    "generate_markov_source",
    "zipf_probabilities",
    "zipf_requests",
    "Trace",
    "record_markov_trace",
    "ClientWorkload",
    "LazyPopulation",
    "Population",
    "derive_seed",
    "markov_population",
    "zipf_mixture_population",
]
