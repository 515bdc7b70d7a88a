"""Model directory format: a JSON manifest plus raw little-endian blobs.

Factor means and covariances are stored as `.f64` files (row-major,
little-endian float64) so the round trip is bitwise exact; everything
scalar lives in manifest.json, where Python's shortest-repr float
serialization is also exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ModelFormatError
from .model import (
    FactorPosterior,
    GammaPosterior,
    ModelState,
    NormalizationRecord,
    PriorConfig,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"


def save_model(state, directory, info=None):
    """Write a model directory; returns its path.

    `info` is an optional JSON-serializable dict stored verbatim in the
    manifest (fit metadata such as seed, final bound, runtime).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # load_model derives the blobs from the sizes; format version 1 keeps
    # the list for readers outside this package
    blobs = []
    for d, factor in enumerate(state.factors):
        for kind, array in (("mean", factor.mean), ("cov", factor.cov)):
            name = f"factor{d}_{kind}.f64"
            data = np.ascontiguousarray(array, dtype="<f8")
            (directory / name).write_bytes(data.tobytes())
            blobs.append({"file": name, "shape": list(data.shape), "dtype": "<f8"})
    manifest = {
        "format_version": FORMAT_VERSION,
        "order": state.order,
        "memory": state.memory,
        "rank": state.rank,
        "row_prec_fixed": bool(state.row_prec_fixed),
        "priors": asdict(state.priors),
        "normalization": asdict(state.normalization),
        "posteriors": {
            "noise": {
                "shape": float(state.noise.shape),
                "rate": float(state.noise.rate),
            },
            "col_prec": {
                "shape": np.asarray(state.col_prec.shape, dtype=float).tolist(),
                "rate": np.asarray(state.col_prec.rate, dtype=float).tolist(),
            },
            "row_prec": {
                "shape": np.asarray(state.row_prec.shape, dtype=float).tolist(),
                "rate": np.asarray(state.row_prec.rate, dtype=float).tolist(),
            },
        },
        "blobs": blobs,
        "info": dict(info or {}),
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return directory


def load_manifest(directory):
    """Read and version-check a model manifest."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise ModelFormatError(f"{path}: manifest not found")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path}: invalid JSON ({err})") from err
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return manifest


def _size(manifest_path, name, value):
    """A size stored in the manifest: a JSON integer of at least 1.

    Fractions, booleans and strings are refused rather than converted, so
    a damaged manifest cannot load as a model of another size.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{manifest_path}: {name} must be an integer, "
                               f"got {value!r}")
    if value < 1:
        raise ModelFormatError(f"{manifest_path}: {name} must be at least 1")
    return value


def _read_blob(path, shape):
    """A float64 blob of `shape`, which the manifest sizes determine."""
    if not path.is_file():
        raise ModelFormatError(f"{path}: blob missing")
    expected = int(np.prod(shape)) * 8
    raw = path.read_bytes()
    if len(raw) != expected:
        raise ModelFormatError(
            f"{path}: expected {expected} bytes for shape {list(shape)}, "
            f"found {len(raw)}"
        )
    array = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.isfinite(array).all():
        raise ModelFormatError(f"{path}: non-finite value")
    return array


def _gamma(manifest_path, posteriors, name, shape):
    """The stored Gamma posterior `name`: shape and rate parameters of
    array shape `shape` (a scalar when empty), positive and finite."""
    parts = []
    for part in ("shape", "rate"):
        values = np.asarray(posteriors[name][part], dtype=float)
        if values.shape != shape:
            raise ModelFormatError(f"{manifest_path}: {name} {part} has shape "
                                   f"{list(values.shape)}, expected {list(shape)}")
        if not (np.isfinite(values).all() and (values > 0).all()):
            raise ModelFormatError(f"{manifest_path}: {name} {part} "
                                   "must be positive and finite")
        parts.append(values if shape else float(values))
    return GammaPosterior(*parts)


def load_model(directory):
    """Restore a ModelState from a model directory.

    The sizes alone fix every blob: factor{d}_mean.f64 is (memory + 1) x
    rank and factor{d}_cov.f64 is square of side (memory + 1) * rank. A
    malformed size, flag, normalization record or Gamma posterior, a
    non-finite blob, or a covariance that is not symmetric positive
    definite raises a ModelFormatError naming the file.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        order, memory, rank = (_size(manifest_path, name, manifest[name])
                               for name in ("order", "memory", "rank"))
        window = memory + 1
        priors = PriorConfig(**manifest["priors"])
        normalization = NormalizationRecord(**manifest["normalization"])
        posteriors = manifest["posteriors"]
        noise = _gamma(manifest_path, posteriors, "noise", ())
        col_prec = _gamma(manifest_path, posteriors, "col_prec", (rank,))
        row_prec = _gamma(manifest_path, posteriors, "row_prec", (window,))
        row_prec_fixed = manifest["row_prec_fixed"]
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"{directory}: malformed manifest ({err})") from err
    if not isinstance(row_prec_fixed, bool):
        raise ModelFormatError(f"{manifest_path}: row_prec_fixed must be a boolean, "
                               f"got {row_prec_fixed!r}")
    side = window * rank
    factors = []
    for d in range(order):
        mean = _read_blob(directory / f"factor{d}_mean.f64", (window, rank))
        cov_path = directory / f"factor{d}_cov.f64"
        cov = _read_blob(cov_path, (side, side))
        if not np.array_equal(cov, cov.T):
            raise ModelFormatError(f"{cov_path}: covariance is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ModelFormatError(f"{cov_path}: covariance is not "
                                   "positive definite") from None
        factors.append(FactorPosterior(mean=mean, cov=cov))
    return ModelState(
        order=order,
        memory=memory,
        factors=factors,
        col_prec=col_prec,
        row_prec=row_prec,
        noise=noise,
        priors=priors,
        normalization=normalization,
        row_prec_fixed=row_prec_fixed,
    )
