"""Posterior state containers, prior constants, and initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import digamma

from .errors import checked


@dataclass
class PriorConfig:
    """Gamma prior constants, one (shape, rate) pair per precision group.

    noise_* governs the observation-noise precision, col_* the per-column
    (rank) precisions, row_* the per-row (lag) precisions. The defaults
    are broad: every prior mean is 1 with vanishing effective strength.
    """

    noise_shape: float = 1e-6
    noise_rate: float = 1e-6
    col_shape: float = 1e-6
    col_rate: float = 1e-6
    row_shape: float = 1e-6
    row_rate: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            setattr(self, name, checked(f"prior constant {name}", value,
                                        minimum=0, strict=True))


@dataclass
class GammaPosterior:
    """Independent Gamma coordinates in shape/rate form (scalar or vector)."""

    shape: Union[float, np.ndarray]
    rate: Union[float, np.ndarray]

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def expected_log(self):
        """E[ln x] = digamma(shape) - ln(rate), elementwise."""
        return digamma(self.shape) - np.log(self.rate)


@dataclass
class FactorPosterior:
    """Gaussian posterior of one factor matrix.

    mean is I x R; cov is the (I*R) x (I*R) covariance of vec(mean) with
    the row index fast. cov_logdet caches log det(cov) when the producer
    knows it (the update computes it from the same Cholesky factor).
    """

    mean: np.ndarray
    cov: np.ndarray
    cov_logdet: Union[float, None] = None

    def entry_second_moments(self):
        """E[W(i, r)^2] as an (I, R) array: squared mean plus marginal variance."""
        window, rank = self.mean.shape
        var = np.diag(self.cov).reshape(rank, window).T
        return self.mean**2 + var


@dataclass
class NormalizationRecord:
    """Input range and output location/scale captured on the estimation split."""

    input_min: float = 0.0
    input_max: float = 1.0
    output_mean: float = 0.0
    output_std: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            setattr(self, name, checked(f"normalization {name}", value))
        if not self.input_max > self.input_min:
            raise ValueError("input_max must exceed input_min")
        if not self.output_std > 0:
            raise ValueError("output_std must be positive")


@dataclass
class ModelState:
    """Everything the sweeps update, plus the config echo needed to predict.

    col_prec holds the R rank-sparsity precisions, row_prec the I lag
    precisions shared by every factor, noise the scalar observation
    precision. With row_prec_fixed the lag precisions act as a point mass
    at 1 (prior precision Lambda kron I) and are never updated.
    """

    order: int
    memory: int
    factors: list[FactorPosterior]
    col_prec: GammaPosterior
    row_prec: GammaPosterior
    noise: GammaPosterior
    priors: PriorConfig = field(default_factory=PriorConfig)
    normalization: NormalizationRecord = field(default_factory=NormalizationRecord)
    row_prec_fixed: bool = False

    @property
    def window(self):
        return self.memory + 1

    @property
    def rank(self):
        return int(self.factors[0].mean.shape[1])

    @property
    def factor_means(self):
        return [f.mean for f in self.factors]

    def row_prec_means(self):
        """E[delta] as used by the updates: all ones when held fixed."""
        if self.row_prec_fixed:
            return np.ones(self.window)
        return np.asarray(self.row_prec.mean, dtype=float)


def init_state(order, memory, rank, priors=None, seed=0, normalization=None,
               row_prec_fixed=False):
    """Draw a starting state.

    Factor means are i.i.d. standard normal scaled by 1/sqrt(rank) so that
    initial degree-D products stay O(1) on normalized inputs; covariances
    start at identity; every Gamma posterior starts at its prior.
    """
    order = checked("order", order, int, minimum=1)
    memory = checked("memory", memory, int, minimum=1)
    rank = checked("rank", rank, int, minimum=1)
    priors = priors if priors is not None else PriorConfig()
    window = memory + 1
    rng = np.random.default_rng(seed)
    factors = [
        FactorPosterior(
            mean=rng.standard_normal((window, rank)) / np.sqrt(rank),
            cov=np.eye(window * rank),
            cov_logdet=0.0,
        )
        for _ in range(order)
    ]
    return ModelState(
        order=order,
        memory=memory,
        factors=factors,
        col_prec=GammaPosterior(np.full(rank, priors.col_shape),
                                np.full(rank, priors.col_rate)),
        row_prec=GammaPosterior(np.full(window, priors.row_shape),
                                np.full(window, priors.row_rate)),
        noise=GammaPosterior(priors.noise_shape, priors.noise_rate),
        priors=priors,
        normalization=normalization if normalization is not None
        else NormalizationRecord(),
        row_prec_fixed=row_prec_fixed,
    )


def prior_precision(state):
    """Diagonal of the expected prior precision of vec(W), E[col] kron E[row].

    A length R*I vector with entry r*I + i equal to E[lambda_r] * E[delta_i],
    matching the row-fast vec layout; the off-diagonal entries are zero.
    It is the flattened outer product, one multiply per entry, as np.kron
    would take it without building its index arrays.
    """
    col = np.asarray(state.col_prec.mean, dtype=float)
    return np.multiply.outer(col, state.row_prec_means()).ravel()
