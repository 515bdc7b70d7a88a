"""CSV ingestion and output, splits, normalization, and the synthetic
generator.

load_csv parses the data rows of a `u,y` file in one streaming np.loadtxt
pass and reads the file row by row only to cite the line of a fault.
write_csv is the one CSV writer, for datasets, predictions, fit traces and
lag profiles: it formats WRITE_BLOCK rows per write, with the bytes
csv.writer would give. Synthetic systems are CPD factors only; their
records come from the same window contraction as the model's output.
synthesize, calibrate_components and center_output each make one
features.fill_blocks walk over the input's lag blocks, which fills the
output, the (R, N) column products, or the cofactors of factor 0 and the
output, which they then reduce; no I x N window matrix is built.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, checked
from .features import (
    column_products,
    expected_output,
    fill_blocks,
    hadamard,
    lag_blocks,
)
from .model import NormalizationRecord
from .tensor_ops import check_factors

WRITE_BLOCK = 1 << 14  # CSV rows formatted per write


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

    Every row must hold two finite numbers; cells may be quoted or padded
    with spaces, and lines may end in \\n, \\r\\n or \\r. An empty or
    whitespace-only line is an error. A UTF-8 byte-order mark, which
    spreadsheets write, is skipped. The header goes through csv.reader
    and the data rows through one streaming np.loadtxt pass, checked for
    finiteness once on the array. Only when that pass fails is the file
    read again row by row (_read_rows), so that errors cite the one-based
    line number of the first offending row.
    """
    path = Path(path)
    # the decoder skips the mark again after the seek(0) below
    with path.open(newline="", encoding="utf-8-sig") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise DataFormatError(f"{path}:1: file is empty")
        if [c.strip() for c in header] != ["u", "y"]:
            raise DataFormatError(
                f"{path}:1: expected header 'u,y', got {','.join(header)!r}"
            )
        first = next(handle, None)
        if first is None:
            raise DataFormatError(f"{path}: no data rows")
        try:
            table = np.loadtxt(_data_lines(itertools.chain([first], handle)),
                               delimiter=",", comments=None, quotechar='"', ndmin=2,
                               dtype=float)
        except ValueError:
            table = None
        if table is None or table.shape[1] != 2 or not np.isfinite(table).all():
            # cite the first offending line; a row that float() reads but
            # np.loadtxt does not (such as "1_0") is accepted here
            handle.seek(0)
            return _read_rows(path, handle)
    # two contiguous columns, as the row-by-row pass gives, not strided
    # views that keep the table alive
    return Dataset(table[:, 0].copy(), table[:, 1].copy())


def _data_lines(lines):
    """Pass the lines on, stopping np.loadtxt with a ValueError at an empty
    line, which it would skip. The caller then cites the first offending
    line from the row-by-row pass: an earlier row may be at fault too (a
    NaN, say, or a third cell on every row)."""
    for text in lines:
        if not text.rstrip("\r\n"):
            raise ValueError("empty line")
        yield text


def _read_rows(path, handle):
    """Read the open CSV from its start, row by row with csv.reader and
    float(), raising at the first offending line; the header, already
    checked, is skipped."""
    u, y = [], []
    reader = csv.reader(handle)
    next(reader)
    for line, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise DataFormatError(f"{path}:{line}: expected 2 columns, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise DataFormatError(
                f"{path}:{line}: non-numeric value in {row!r}"
            ) from None
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}:{line}: non-finite value in {row!r}")
        u.append(values[0])
        y.append(values[1])
    return Dataset(np.array(u), np.array(y))


def save_csv(path, dataset):
    """Write a Dataset as a two-column CSV with header `u,y`, through
    write_csv."""
    write_csv(path, ["u", "y"], [dataset.u, dataset.y])


def write_csv(path, header, columns):
    """Write equal-length columns under `header` as a CSV file.

    Each column is a 1-D array or list, or a scalar repeated on every row,
    which is formatted once; at least one column must be an array, to set
    the number of rows. Floats are written by repr and integers by str,
    with \\r\\n line ends: byte for byte what csv.writer writes for these
    cells. Rows are formatted WRITE_BLOCK at a time, so no whole-record
    list of Python numbers is made. A header that names a different number
    of columns, arrays of different lengths, or no array at all raise
    ValueError before the file is opened.
    """
    columns = list(columns)
    if len(header) != len(columns):
        raise ValueError(f"header names {len(header)} columns, {len(columns)} given")
    arrays, fields, lengths = [], [], []
    for name, column in zip(header, columns):
        if np.ndim(column) == 0:
            fields.append(repr(np.asarray(column).item()))
        else:
            arrays.append(np.asarray(column))
            fields.append("{!r}")
            lengths.append(f"{name} has {len(arrays[-1])}")
    if not arrays:
        raise ValueError("every column is a scalar, so no column sets the number of rows")
    rows = len(arrays[0])
    if any(len(array) != rows for array in arrays):
        raise ValueError(f"columns differ in length: {', '.join(lengths)} rows")
    template = ",".join(fields) + "\r\n"
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, rows, WRITE_BLOCK):
            block = [array[start:start + WRITE_BLOCK].tolist() for array in arrays]
            handle.writelines(map(template.format, *block))


def split_count(n, split):
    """Estimation sample count from a --split value (count or fraction)."""
    value = checked("split", split)
    if not value.is_integer():
        if not 0.0 < value < 1.0:
            raise ValueError(f"fractional split must be in (0, 1), got {value}")
        count = int(round(n * value))
    else:
        count = int(value)
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
        self.noise_std = checked("noise_std", self.noise_std, minimum=0)

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
    y = fill_blocks(lag_blocks(u, system.memory), (), u.size,
                    lambda U: expected_output(U, system.factors))
    if system.noise_std > 0:
        if rng is None:
            raise ValueError("a noisy system needs an rng")
        y += system.noise_std * rng.standard_normal(u.size)
    return Dataset(u, y)


def random_cpd_system(order, memory, rank, rng, noise_std=0.0):
    """Standard normal CPD factors, one (memory+1, rank) draw per order.

    order, memory and rank are integers of at least 1, by errors.checked.
    """
    order, memory, rank = (checked(name, value, int, minimum=1) for name, value in
                           (("order", order), ("memory", memory), ("rank", rank)))
    factors = [rng.standard_normal((memory + 1, rank)) for _ in range(order)]
    return SyntheticSystem(factors=factors, noise_std=noise_std)


def calibrate_components(system, u, component_std=1.0):
    """Rescale each rank-1 component to a target clean-output std on u.

    Keeps component strengths comparable so none is drowned out; returns a
    new system with the same noise_std. component_std is a positive number,
    by errors.checked.
    """
    component_std = checked("component_std", component_std, minimum=0, strict=True)
    u = np.asarray(u, dtype=float)
    rank = check_factors(system.factors)[2]
    outputs = fill_blocks(lag_blocks(u, system.memory), (rank,), u.size,
                          lambda U: column_products(U, system.factors))
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
    factors = [np.asarray(fac, dtype=float).copy() for fac in system.factors]
    rank = factors[0].shape[1]

    def cofactors_and_output(U):
        # the R cofactors of factor 0 above the output, from one projection
        projections = [fac.T @ U for fac in factors]
        shape = (rank, U.shape[1])
        return np.vstack([hadamard(projections[1:], shape),
                          hadamard(projections, shape).sum(axis=0)])

    walked = fill_blocks(lag_blocks(u, system.memory), (rank + 1,), u.size,
                         cofactors_and_output)
    # adding t to factor 0's constant row in column r shifts the output by
    # t times the product of the other factors' projections for that column
    cofactor_means = walked[:rank].mean(axis=1)
    column = int(np.argmax(np.abs(cofactor_means)))
    if abs(cofactor_means[column]) <= 1e-12:
        raise ValueError("degenerate system: constant shift has no effect on "
                         "the mean output")
    factors[0][0, column] -= walked[rank].mean() / cofactor_means[column]
    return SyntheticSystem(factors=factors, noise_std=system.noise_std)
