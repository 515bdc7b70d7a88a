"""Posterior state containers, prior constants, and initialization.

A ModelState reads its order, memory and rank from its factors: D
factors of (I, R) means give order D, memory I - 1 and rank R.
check_state is the one definition of a well-formed state, for a state
that comes from outside a fit (a fit's start, a save); check_gamma is its
rule for one Gamma posterior, which load_model applies to each stored
one.
"""

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
    """Everything the sweeps update, plus the priors and normalization
    needed to predict. Order, window (memory + 1) and rank are read from
    the factors, as check_state requires them to agree.

    col_prec holds the R rank-sparsity precisions, row_prec the I lag
    precisions shared by every factor, noise the scalar observation
    precision. With row_prec_fixed the lag precisions act as a point mass
    at 1 (prior precision Lambda kron I) and are never updated.
    """

    factors: list[FactorPosterior]
    col_prec: GammaPosterior
    row_prec: GammaPosterior
    noise: GammaPosterior
    priors: PriorConfig = field(default_factory=PriorConfig)
    normalization: NormalizationRecord = field(default_factory=NormalizationRecord)
    row_prec_fixed: bool = False

    @property
    def order(self):
        return len(self.factors)

    @property
    def window(self):
        return int(self.factors[0].mean.shape[0])

    @property
    def memory(self):
        return self.window - 1

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


def check_gamma(name, posterior, shape):
    """Refuse a Gamma posterior whose shape or rate parameters are not an
    array of shape `shape` (a scalar when empty) of positive, finite
    values, with a ValueError that starts with `name`."""
    for part in ("shape", "rate"):
        values = np.asarray(getattr(posterior, part), dtype=float)
        if values.shape != shape:
            raise ValueError(f"{name} {part} has shape {list(values.shape)}, "
                             f"expected {list(shape)}")
        if not (np.isfinite(values).all() and (values > 0).all()):
            raise ValueError(f"{name} {part} must be positive and finite")


def check_state(name, state):
    """Refuse a ModelState that a fit or a save cannot take, with a
    ValueError that starts with `name` and names the field.

    Every factor must have a covariance, the (I, R) mean shape of factor
    0 (I >= 2, R >= 1) and an (RI, RI) covariance, both finite, the covariance
    exactly symmetric, as the moment kernels read it; the noise, column
    and lag Gamma posteriors must have shapes (), (R,) and (I,) and pass
    check_gamma. Positive definiteness, which takes a factorization, is
    not tested here; load_model tests it on each covariance it reads.
    Scoring does not call this: at the paper shape it costs about a
    quarter of an evaluate.
    """
    if not state.factors:
        raise ValueError(f"{name} has no factors")
    shape = np.shape(state.factors[0].mean)
    # init_state and load_model take memory >= 1, so a window of 2
    if len(shape) != 2 or shape[0] < 2 or shape[1] < 1:
        raise ValueError(f"{name} factor 0 mean has shape {shape}, "
                         "expected (I, R) with I >= 2 and R >= 1")
    window, rank = shape
    for d, f in enumerate(state.factors):
        if f.cov is None:
            raise ValueError(f"{name} factor {d} has no covariance")
        for part, value, expected in (("mean", f.mean, shape),
                                      ("covariance", f.cov, (window * rank,) * 2)):
            if np.shape(value) != expected:
                raise ValueError(f"{name} factor {d} {part} has shape "
                                 f"{np.shape(value)}, expected {expected}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} factor {d} {part} is not finite")
        if not np.array_equal(f.cov, np.transpose(f.cov)):
            raise ValueError(f"{name} factor {d} covariance is not symmetric")
    for part, size in (("noise", ()), ("col_prec", (rank,)), ("row_prec", (window,))):
        check_gamma(f"{name} {part}", getattr(state, part), size)


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
    seed = checked("seed", seed, int, minimum=0)
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
