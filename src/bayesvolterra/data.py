"""CSV ingestion, splits, normalization, and the synthetic generator.

Synthetic systems are CPD factors only; their records come from the same
window contraction as the model's output, features.expected_output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .features import build_lagged_matrix, column_products, expected_output
from .model import NormalizationRecord
from .tensor_ops import check_factors


@dataclass
class Dataset:
    """One input/output record."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim != 1 or self.y.ndim != 1:
            raise ValueError("u and y must be one-dimensional")
        if self.u.size != self.y.size:
            raise ValueError("u and y must have equal length")
        if self.u.size == 0:
            raise ValueError("record is empty")
        if not (np.isfinite(self.u).all() and np.isfinite(self.y).all()):
            raise ValueError("record contains non-finite values")

    def __len__(self):
        return self.u.size


def load_csv(path):
    """Read a two-column CSV with header `u,y` into a Dataset.

    Errors cite the one-based line number of the offending row.
    """
    path = Path(path)
    u, y = [], []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}:1: file is empty") from None
        if [c.strip() for c in header] != ["u", "y"]:
            raise DataFormatError(
                f"{path}:1: expected header 'u,y', got {','.join(header)!r}"
            )
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataFormatError(f"{path}:{line}: expected 2 columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line}: non-numeric value in {row!r}"
                ) from None
            if not all(np.isfinite(v) for v in values):
                raise DataFormatError(f"{path}:{line}: non-finite value in {row!r}")
            u.append(values[0])
            y.append(values[1])
    if not u:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(np.array(u), np.array(y))


def save_csv(path, dataset):
    """Write a Dataset as a two-column CSV with header `u,y`."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "y"])
        for un, yn in zip(dataset.u, dataset.y):
            writer.writerow([repr(float(un)), repr(float(yn))])


def split_count(n, split):
    """Estimation sample count from a --split value (count or fraction)."""
    if isinstance(split, float) and not split.is_integer():
        if not 0.0 < split < 1.0:
            raise ValueError(f"fractional split must be in (0, 1), got {split}")
        count = int(round(n * split))
    else:
        count = int(split)
    if not 1 <= count < n:
        raise ValueError(f"split leaves no data: {count} of {n} samples")
    return count


def compute_normalization(u, y):
    """Input range and output moments (population std) of the estimation split."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = float(u.min()), float(u.max())
    if not hi > lo:
        raise ValueError("input signal is constant on the estimation split")
    std = float(y.std())
    if not std > 0:
        raise ValueError("output signal is constant on the estimation split")
    return NormalizationRecord(
        input_min=lo, input_max=hi, output_mean=float(y.mean()), output_std=std
    )


def normalize_input(u, record):
    return (np.asarray(u, dtype=float) - record.input_min) / (
        record.input_max - record.input_min
    )


def standardize_output(y, record):
    return (np.asarray(y, dtype=float) - record.output_mean) / record.output_std


@dataclass
class SyntheticSystem:
    """Ground-truth Volterra system in CPD form.

    `factors` are order matrices of shape (memory+1, rank) acting on the
    constant-plus-lags window; order and memory follow from their shapes.
    """

    factors: list
    noise_std: float = 0.0

    def __post_init__(self):
        check_factors(self.factors)
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be nonnegative and finite")

    @property
    def order(self):
        return check_factors(self.factors)[0]

    @property
    def memory(self):
        return check_factors(self.factors)[1] - 1


def synthesize(system, u, rng=None):
    """Evaluate the system on u through the window contraction and add
    Gaussian noise drawn from the caller-owned `rng`."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("input signal must be a nonempty vector")
    if not np.isfinite(u).all():
        raise ValueError("input signal must be finite")
    y = expected_output(build_lagged_matrix(u, system.memory), system.factors)
    if system.noise_std > 0:
        if rng is None:
            raise ValueError("a noisy system needs an rng")
        y = y + system.noise_std * rng.standard_normal(u.size)
    return Dataset(u, y.copy())


def random_cpd_system(order, memory, rank, rng, noise_std=0.0):
    """Standard normal CPD factors, one (memory+1, rank) draw per order."""
    factors = [rng.standard_normal((memory + 1, rank)) for _ in range(order)]
    return SyntheticSystem(factors=factors, noise_std=noise_std)


def calibrate_components(system, u, component_std=1.0):
    """Rescale each rank-1 component to a target clean-output std on u.

    Keeps component strengths comparable so none is drowned out; returns a
    new system with the same noise_std.
    """
    u = np.asarray(u, dtype=float)
    outputs = column_products(build_lagged_matrix(u, system.memory), system.factors)
    stds = outputs.std(axis=1)
    if np.any(stds <= 1e-12):
        raise ValueError("degenerate component: clean output is constant")
    gains = (component_std / stds) ** (1.0 / system.order)
    factors = [np.asarray(fac, dtype=float) * gains[None, :] for fac in system.factors]
    return SyntheticSystem(factors=factors, noise_std=system.noise_std)


def center_output(system, u):
    """Shift one constant-coordinate entry so the clean output averages zero
    on u.

    The adjustment stays inside the CPD factors, so the rank of the kernel is
    unchanged; standardizing the output of data generated this way therefore
    does not introduce an extra rank-one constant component.
    """
    u = np.asarray(u, dtype=float)
    U = build_lagged_matrix(u, system.memory)
    factors = [np.asarray(fac, dtype=float).copy() for fac in system.factors]
    # adding t to factor 0's constant row in column r shifts the output by
    # t times the product of the other factors' projections for that column
    cofactor_means = column_products(U, factors, skip=0).mean(axis=1)
    column = int(np.argmax(np.abs(cofactor_means)))
    if abs(cofactor_means[column]) <= 1e-12:
        raise ValueError("degenerate system: constant shift has no effect on "
                         "the mean output")
    factors[0][0, column] -= expected_output(U, factors).mean() / cofactor_means[column]
    return SyntheticSystem(factors=factors, noise_std=system.noise_std)
