"""CSV ingestion, splits, normalization, and the synthetic generator."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Union

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
    """Ground-truth Volterra system in explicit-kernel or CPD form.

    Explicit form: kernels[p] is the order-p coefficient tensor with p
    axes of length `memory` (lags 0..memory-1) and kernels[0] the scalar
    offset. CPD form: `factors` are order matrices of shape
    (memory+1, rank) acting on the constant-plus-lags window.
    """

    order: int
    memory: int
    kernels: Union[list, None] = None
    factors: Union[list, None] = None
    noise_std: float = 0.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be nonnegative")
        if (self.kernels is None) == (self.factors is None):
            raise ValueError("provide exactly one of kernels or factors")
        if self.kernels is not None:
            if len(self.kernels) != self.order + 1:
                raise ValueError(
                    f"expected {self.order + 1} kernels (orders 0..{self.order})"
                )
            for p, kernel in enumerate(self.kernels):
                if np.shape(kernel) != (self.memory,) * p:
                    raise ValueError(
                        f"order-{p} kernel has shape {np.shape(kernel)}, "
                        f"expected {(self.memory,) * p}"
                    )
        else:
            order, window, _ = check_factors(self.factors)
            if order != self.order or window != self.memory + 1:
                raise ValueError("factor shapes disagree with order/memory")


def synthesize(system, u, seed=None, rng=None):
    """Evaluate the system on u and add Gaussian noise.

    Explicit kernels go through the direct nested summation (oracle-grade,
    small memory/order only); CPD factors go through the window
    contraction. Noise is reproducible via `seed` (or a caller-owned rng).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("input signal must be a nonempty vector")
    if not np.isfinite(u).all():
        raise ValueError("input signal must be finite")
    if system.factors is not None:
        y = expected_output(build_lagged_matrix(u, system.memory), system.factors)
    else:
        if system.memory**system.order > 1_000_000:
            raise ValueError(
                f"nested summation over {system.memory**system.order} terms "
                "exceeds the size bound"
            )
        # rows of lags 0..memory-1, zero-padded like the model's window
        lags = build_lagged_matrix(u, system.memory)[1:]
        y = np.full(u.size, float(np.asarray(system.kernels[0])))
        for p in range(1, system.order + 1):
            letters = "abcdefgh"[:p]
            spec = ",".join([letters] + [f"{c}n" for c in letters]) + "->n"
            y = y + np.einsum(spec, np.asarray(system.kernels[p], dtype=float),
                              *([lags] * p))
    if system.noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(seed)
        y = y + system.noise_std * rng.standard_normal(u.size)
    return Dataset(u, y.copy())


def random_cpd_system(order, memory, rank, rng, row_scale=None, noise_std=0.0):
    """Random CPD factors, rows optionally reweighted.

    row_scale (length memory+1) multiplies window rows; zeros localize the
    kernel support on a chosen set of lags.
    """
    window = memory + 1
    if row_scale is not None:
        row_scale = np.asarray(row_scale, dtype=float)
        if row_scale.shape != (window,):
            raise ValueError(f"row_scale must have length {window}")
    factors = []
    for _ in range(order):
        fac = rng.standard_normal((window, rank))
        if row_scale is not None:
            fac = fac * row_scale[:, None]
        factors.append(fac)
    return SyntheticSystem(order=order, memory=memory, factors=factors,
                           noise_std=noise_std)


def calibrate_components(system, u, component_std=1.0):
    """Rescale each rank-1 component to a target clean-output std on u.

    Keeps component strengths comparable so none is drowned out; returns a
    new system with the same noise_std.
    """
    if system.factors is None:
        raise ValueError("calibration needs a CPD-form system")
    u = np.asarray(u, dtype=float)
    outputs = column_products(build_lagged_matrix(u, system.memory), system.factors)
    stds = outputs.std(axis=1)
    if np.any(stds <= 1e-12):
        raise ValueError("degenerate component: clean output is constant")
    gains = (component_std / stds) ** (1.0 / system.order)
    factors = [np.asarray(fac, dtype=float) * gains[None, :] for fac in system.factors]
    return SyntheticSystem(order=system.order, memory=system.memory,
                           factors=factors, noise_std=system.noise_std)


def center_output(system, u):
    """Shift one constant-coordinate entry so the clean output averages zero
    on u.

    The adjustment stays inside the CPD factors, so the rank of the kernel is
    unchanged; standardizing the output of data generated this way therefore
    does not introduce an extra rank-one constant component.
    """
    if system.factors is None:
        raise ValueError("centering needs a CPD-form system")
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
    return SyntheticSystem(order=system.order, memory=system.memory,
                           factors=factors, noise_std=system.noise_std)
