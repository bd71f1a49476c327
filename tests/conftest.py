import math

import numpy as np
import pytest
from scipy import stats

# Two-sided normal tail mass at 4 sigma; chi-square p-values are held to the
# same standard so every statistical gate has ~6e-5 flake probability.
P_FOUR_SIGMA = 2.0 * stats.norm.sf(4.0)


def assert_within_sigma(observed: float, expected: float, sd_of_mean: float,
                        n_sigma: float = 4.0, label: str = "") -> None:
    gap = abs(observed - expected)
    assert gap <= n_sigma * sd_of_mean, (
        f"STATISTICAL({n_sigma} sigma) {label}: observed {observed:.6g}, "
        f"expected {expected:.6g}, allowed {n_sigma * sd_of_mean:.3g}"
    )


def assert_chi_square_pmf(counts: np.ndarray, probs: np.ndarray, label: str = "") -> None:
    """Chi-square GOF with all cells given; merges nothing, so callers must
    pass cells with reasonable expected mass."""
    n = counts.sum()
    expected = probs * n
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    p = float(stats.chi2.sf(stat, dof))
    assert p > P_FOUR_SIGMA, (
        f"STATISTICAL(chi2) {label}: stat {stat:.3f}, dof {dof}, p {p:.3g}"
    )


def assert_cellwise_four_sigma(counts: np.ndarray, probs: np.ndarray,
                               label: str = "") -> None:
    """Every cell frequency within 4 sigma of its probability."""
    n = counts.sum()
    for i, (c, p) in enumerate(zip(counts, probs)):
        sd = math.sqrt(p * (1 - p) / n)
        assert_within_sigma(c / n, p, sd, label=f"{label} cell {i}")


def cloud_from_rows(rows, x_max: float):
    """The point set whose row i holds the sorted positions ``rows[i - 1]``,
    built by the checking constructor: the tests' way to write a cloud."""
    from ulam.sampling import PlanarPointSet
    rows = [np.asarray(r, dtype=float) for r in rows]
    return PlanarPointSet(np.concatenate([np.empty(0), *rows]),
                          np.cumsum([0, *(r.size for r in rows)]), x_max)


@pytest.fixture
def rng_factory():
    from ulam.sampling import make_rng
    return make_rng
