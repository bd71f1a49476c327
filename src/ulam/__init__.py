"""Monte Carlo toolkit for longest increasing subsequences of random
multiset permutations and the semi-discrete Hammersley particle systems
whose particle counts realize them."""

__version__ = "0.1.0"

from .bounds import (BoundaryRates, mean_bound, optimal_rates_strict,
                     optimal_rates_weak, predicted_mean, regime_diagnostics,
                     verify_tail_inequality)
from .couplings import (CoupledSample, group_heights, poissonized_coupling_lower,
                        poissonized_coupling_upper, project_to_multiset)
from .hammersley import (DynamicsRecord, ParticleState, run_dynamics, run_process,
                         verify_line_identity)
from .montecarlo import (DepoissonizationReport, DeviationProfile, EstimateReport,
                         StationarityReport, depoissonization_report,
                         deviation_profile, estimate_mean_subsequence,
                         estimate_poissonized, stationarity_test)
from .sampling import (BoundarySample, MultisetWord, PlanarPointSet, RngStream,
                       make_rng, sample_boundary, sample_poisson_cloud,
                       sample_uniform_multiset_permutation,
                       sample_uniform_permutation)
from .subsequences import (brute_force_longest_chain, exact_expected_lis,
                           lis_strict, lnds_weak, longest_chain_with_boundary)

__all__ = [
    "BoundaryRates", "BoundarySample", "CoupledSample", "DepoissonizationReport",
    "DeviationProfile", "DynamicsRecord", "EstimateReport", "MultisetWord",
    "ParticleState", "PlanarPointSet", "RngStream", "StationarityReport",
    "brute_force_longest_chain", "depoissonization_report", "deviation_profile",
    "estimate_mean_subsequence", "estimate_poissonized",
    "exact_expected_lis", "group_heights", "lis_strict", "lnds_weak",
    "longest_chain_with_boundary", "make_rng", "mean_bound", "optimal_rates_strict",
    "optimal_rates_weak", "poissonized_coupling_lower", "poissonized_coupling_upper",
    "predicted_mean", "project_to_multiset", "regime_diagnostics", "run_dynamics",
    "run_process", "sample_boundary", "sample_poisson_cloud",
    "sample_uniform_multiset_permutation", "sample_uniform_permutation",
    "stationarity_test", "verify_line_identity", "verify_tail_inequality",
]
