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


def _read_blob(directory, entry):
    path = Path(directory) / entry["file"]
    if not path.is_file():
        raise ModelFormatError(f"{path}: blob missing")
    manifest_path = Path(directory) / MANIFEST_NAME
    name = f"blob {entry['file']} shape"
    shape = entry.get("shape")
    if not isinstance(shape, list):
        raise ModelFormatError(f"{manifest_path}: {name} must be a list, got {shape!r}")
    shape = tuple(_size(manifest_path, f"{name} entry", s) for s in shape)
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


def load_model(directory):
    """Restore a ModelState from a model directory.

    Sizes and blob shape entries that are not integers of at least 1,
    non-positive Gamma parameters, non-finite blobs and covariances that
    are not symmetric positive definite raise a ModelFormatError naming
    the file.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        order, memory, rank = (_size(manifest_path, name, manifest[name])
                               for name in ("order", "memory", "rank"))
        blobs = {entry["file"]: entry for entry in manifest["blobs"]}
        priors = PriorConfig(**manifest["priors"])
        normalization = NormalizationRecord(**manifest["normalization"])
        posteriors = manifest["posteriors"]
        noise = GammaPosterior(float(posteriors["noise"]["shape"]),
                               float(posteriors["noise"]["rate"]))
        col_prec = GammaPosterior(
            np.asarray(posteriors["col_prec"]["shape"], dtype=float),
            np.asarray(posteriors["col_prec"]["rate"], dtype=float),
        )
        row_prec = GammaPosterior(
            np.asarray(posteriors["row_prec"]["shape"], dtype=float),
            np.asarray(posteriors["row_prec"]["rate"], dtype=float),
        )
        row_prec_fixed = bool(manifest["row_prec_fixed"])
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"{directory}: malformed manifest ({err})") from err
    for name, posterior in (("noise", noise), ("col_prec", col_prec),
                            ("row_prec", row_prec)):
        for part in ("shape", "rate"):
            values = np.asarray(getattr(posterior, part))
            if not (np.isfinite(values).all() and (values > 0).all()):
                raise ModelFormatError(f"{manifest_path}: {name} {part} "
                                       "must be positive and finite")
    window = memory + 1
    factors = []
    for d in range(order):
        mean_name, cov_name = f"factor{d}_mean.f64", f"factor{d}_cov.f64"
        for name in (mean_name, cov_name):
            if name not in blobs:
                raise ModelFormatError(f"{directory}: manifest lists no blob {name!r}")
        mean = _read_blob(directory, blobs[mean_name])
        cov = _read_blob(directory, blobs[cov_name])
        if mean.shape != (window, rank):
            raise ModelFormatError(
                f"{mean_name}: shape {list(mean.shape)} does not match "
                f"window {window} x rank {rank}"
            )
        if cov.shape != (window * rank, window * rank):
            raise ModelFormatError(
                f"{cov_name}: shape {list(cov.shape)} does not match "
                f"window {window} x rank {rank}"
            )
        if not np.array_equal(cov, cov.T):
            raise ModelFormatError(f"{directory / cov_name}: covariance is not "
                                   "symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ModelFormatError(f"{directory / cov_name}: covariance is not "
                                   "positive definite") from None
        factors.append(FactorPosterior(mean=mean, cov=cov))
    if np.asarray(col_prec.shape).shape != (rank,):
        raise ModelFormatError(f"{directory}: col_prec length does not match rank")
    if np.asarray(row_prec.shape).shape != (window,):
        raise ModelFormatError(f"{directory}: row_prec length does not match window")
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
