"""Persistence for built U-trees.

A production index survives process restarts.  This module serialises a
U-tree to a single ``.npz`` archive holding, per object: the id, the
uncertainty-region/pdf *descriptor* (a JSON document naming one of the
library's pdf families and its parameters), the fitted CFB coefficients
and the region MBR.  Loading reconstructs the objects, re-packs the tree
deterministically with the STR bulk loader, and re-attaches the fitted
summaries — so a loaded tree answers every query identically to the one
that was saved (the page layout may differ from the original insert
order, which only affects I/O counts, not answers).

Only the built-in pdf families round-trip (uniform, constrained Gaussian,
histogram — including Zipf/Poisson/tabulated, which *are* histograms —
radial exponential, and mixtures thereof).  Custom :class:`Density`
subclasses raise a clear error; tabulate them first.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

import numpy as np

from repro.core.cfb import LinearBoxFunction
from repro.core.utree import UTree, UTreeLeafRecord
from repro.geometry.rect import Rect
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    Density,
    HistogramDensity,
    MixtureDensity,
    RadialExponentialDensity,
    UniformDensity,
)
from repro.uncertainty.regions import BallRegion, BoxRegion, UncertaintyRegion

__all__ = [
    "SerializationError",
    "atomic_savez",
    "atomic_write_text",
    "density_descriptor",
    "density_from_descriptor",
    "pack_json",
    "unpack_json",
    "save_utree",
    "load_utree",
]


class SerializationError(ValueError):
    """Raised for objects that cannot be round-tripped."""


# ----------------------------------------------------------------------
# archive primitives: atomic writes, pickle-free JSON entries
# ----------------------------------------------------------------------

def atomic_savez(path, **entries) -> str:
    """``np.savez_compressed`` with crash-safe replace semantics.

    A direct ``np.savez_compressed(path, ...)`` truncates the target
    first, so a crash mid-save destroys the previous good archive.  This
    writes to a temporary file in the *same directory* (so the final
    rename cannot cross filesystems), fsyncs it, and ``os.replace``\\ s it
    into place — the archive at ``path`` is always either the old
    complete version or the new complete version.  Returns the final
    path (with the ``.npz`` suffix numpy would have added).
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **entries)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path, text: str) -> None:
    """Write a small text file with the same replace semantics as
    :func:`atomic_savez` (temp sibling, fsync, ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".txt.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def pack_json(document: Any) -> np.ndarray:
    """A JSON document as a ``uint8`` array (a pickle-free npz entry).

    Object-dtype arrays force ``np.load(..., allow_pickle=True)``, which
    executes arbitrary code from untrusted archives.  Structured
    metadata is stored as UTF-8 JSON bytes instead, so every load site
    runs with pickling disabled.
    """
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return np.frombuffer(encoded, dtype=np.uint8)


def unpack_json(entry: np.ndarray) -> Any:
    """Inverse of :func:`pack_json`."""
    return json.loads(np.asarray(entry, dtype=np.uint8).tobytes().decode("utf-8"))


# ----------------------------------------------------------------------
# region / density descriptors
# ----------------------------------------------------------------------

def _region_descriptor(region: UncertaintyRegion) -> dict[str, Any]:
    if isinstance(region, BallRegion):
        return {"kind": "ball", "center": region.center.tolist(), "radius": region.radius}
    if isinstance(region, BoxRegion):
        return {"kind": "box", "lo": region.rect.lo.tolist(), "hi": region.rect.hi.tolist()}
    raise SerializationError(f"unsupported region type {type(region).__name__}")


def _region_from_descriptor(doc: dict[str, Any]) -> UncertaintyRegion:
    kind = doc.get("kind")
    if kind == "ball":
        return BallRegion(doc["center"], doc["radius"])
    if kind == "box":
        return BoxRegion(Rect(doc["lo"], doc["hi"]))
    raise SerializationError(f"unknown region kind {kind!r}")


def density_descriptor(density: Density) -> dict[str, Any]:
    """A JSON-serialisable document reconstructing ``density``."""
    common = {
        "region": _region_descriptor(density.region),
        "marginal_seed": density._marginal_seed,
        "marginal_samples": density._marginal_samples,
    }
    if isinstance(density, UniformDensity):
        return {"kind": "uniform", **common}
    if isinstance(density, ConstrainedGaussianDensity):
        return {
            "kind": "congau",
            "sigma": density.sigma,
            "mean": density.mean.tolist(),
            **common,
        }
    if isinstance(density, HistogramDensity):
        return {"kind": "histogram", "weights": density.weights.tolist(), **common}
    if isinstance(density, RadialExponentialDensity):
        return {
            "kind": "radial-exponential",
            "scale": density.scale,
            "mode": density.mode.tolist(),
            **common,
        }
    if isinstance(density, MixtureDensity):
        return {
            "kind": "mixture",
            "weights": density.weights.tolist(),
            "components": [density_descriptor(c) for c in density.components],
            **common,
        }
    raise SerializationError(
        f"cannot serialise pdf type {type(density).__name__}; "
        "tabulate custom densities with tabulate_density() first"
    )


def density_from_descriptor(doc: dict[str, Any]) -> Density:
    """Inverse of :func:`density_descriptor`."""
    kind = doc.get("kind")
    if kind not in ("uniform", "congau", "histogram", "radial-exponential", "mixture"):
        raise SerializationError(f"unknown density kind {kind!r}")
    kwargs = {
        "marginal_seed": doc.get("marginal_seed", 0),
        "marginal_samples": doc.get("marginal_samples", 16384),
    }
    region = _region_from_descriptor(doc["region"])
    if kind == "uniform":
        return UniformDensity(region, **kwargs)
    if kind == "congau":
        return ConstrainedGaussianDensity(
            region, sigma=doc["sigma"], mean=doc["mean"], **kwargs
        )
    if kind == "histogram":
        if not isinstance(region, BoxRegion):
            raise SerializationError("histogram densities need a box region")
        return HistogramDensity(region, np.asarray(doc["weights"]), **kwargs)
    if kind == "radial-exponential":
        return RadialExponentialDensity(
            region, scale=doc["scale"], mode=doc["mode"], **kwargs
        )
    if kind == "mixture":
        components = []
        for comp_doc in doc["components"]:
            comp = density_from_descriptor(comp_doc)
            comp.region = region  # mixtures require one shared region object
            components.append(comp)
        return MixtureDensity(components, weights=doc["weights"], **kwargs)
    raise SerializationError(f"unknown density kind {kind!r}")


# ----------------------------------------------------------------------
# tree save / load
# ----------------------------------------------------------------------

# v2: descriptors are a single UTF-8 JSON bytes entry (no object arrays,
# so loads never enable pickling) and saves are atomic-replace.
_FORMAT_VERSION = 2


def save_utree(tree: UTree, path, *, extra: dict[str, Any] | None = None) -> None:
    """Write a built U-tree to ``path`` (a ``.npz`` archive, atomically).

    ``extra`` adds caller-owned entries to the archive (the
    :class:`repro.api.Database` facade stores its config there); keys
    must not collide with the format's own.  The archive is written to a
    temporary sibling and renamed into place, so a crash mid-save leaves
    any previous archive untouched.
    """
    records: list[UTreeLeafRecord] = [e.data for e in tree.engine.leaf_entries()]
    records.sort(key=lambda r: r.oid)
    n = len(records)
    d = tree.dim

    oids = np.array([r.oid for r in records], dtype=np.int64)
    mbrs = np.zeros((n, 2, d))
    outer = np.zeros((n, 2, 2, d))  # [obj, intercept|slope, lo|hi, axis]
    inner = np.zeros((n, 2, 2, d))
    descriptors = []
    for i, record in enumerate(records):
        mbrs[i, 0] = record.mbr.lo
        mbrs[i, 1] = record.mbr.hi
        outer[i, 0] = record.outer.intercept
        outer[i, 1] = record.outer.slope
        inner[i, 0] = record.inner.intercept
        inner[i, 1] = record.inner.slope
        obj = _object_for(tree, record)
        descriptors.append(density_descriptor(obj.pdf))

    extra = dict(extra) if extra else {}
    # The last name is a flag that archives from older versions carry;
    # the loader ignores it, and an extra key must not shadow it.
    reserved = {
        "format_version", "dim", "page_size", "catalog", "oids", "mbrs",
        "outer", "inner", "descriptors", "filter_kernel",
    }
    clashes = reserved & extra.keys()
    if clashes:
        raise ValueError(f"extra archive keys clash with the format: {sorted(clashes)}")
    atomic_savez(
        path,
        **extra,
        format_version=np.int64(_FORMAT_VERSION),
        dim=np.int64(d),
        page_size=np.int64(tree.engine.layout.page_size),
        catalog=tree.catalog.values,
        oids=oids,
        mbrs=mbrs,
        outer=outer,
        inner=inner,
        descriptors=pack_json(descriptors),
    )


def _object_for(tree: UTree, record: UTreeLeafRecord) -> UncertainObject:
    obj = tree.data_file.peek(record.address)
    if not isinstance(obj, UncertainObject):  # pragma: no cover - internal
        raise SerializationError("data file does not hold UncertainObject payloads")
    return obj


def load_utree(path, estimator=None, *, pool=None) -> UTree:
    """Reconstruct a U-tree saved with :func:`save_utree`.

    The fitted CFBs are restored verbatim (no re-fitting); the node
    layout is rebuilt deterministically by STR packing.

    The filter-kernel sidecar is rebuilt in bulk from the archive's
    columnar MBR/CFB stacks (:meth:`CFBFilterKernel.extend`), not object
    by object.  ``pool`` attaches a buffer pool to the rebuilt tree.
    """
    from repro.core.catalog import UCatalog
    from repro.index.bulkload import bulk_load

    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported archive version {version}; version 1 archives "
                "stored pickled descriptor arrays — re-save them with the "
                "current library to get the hardened JSON format"
            )
        dim = int(archive["dim"])
        page_size = int(archive["page_size"])
        catalog = UCatalog(archive["catalog"])
        oids = archive["oids"]
        mbrs = archive["mbrs"]
        outer = archive["outer"]
        inner = archive["inner"]
        descriptors = unpack_json(archive["descriptors"])

    kwargs = {} if estimator is None else {"estimator": estimator}
    tree = UTree(dim, catalog, page_size=page_size, pool=pool, **kwargs)
    rows = tree.kernel.extend(
        mbrs[:, 0], mbrs[:, 1], outer[:, 0], outer[:, 1], inner[:, 0], inner[:, 1]
    )
    items = []
    for i, oid in enumerate(oids):
        pdf = density_from_descriptor(descriptors[i])
        obj = UncertainObject(int(oid), pdf)
        outer_fn = LinearBoxFunction(outer[i, 0].copy(), outer[i, 1].copy())
        inner_fn = LinearBoxFunction(inner[i, 0].copy(), inner[i, 1].copy())
        address = tree.data_file.append(obj, obj.detail_size_bytes())
        record = UTreeLeafRecord(
            oid=int(oid),
            mbr=Rect(mbrs[i, 0], mbrs[i, 1]),
            outer=outer_fn,
            inner=inner_fn,
            address=address,
            row=int(rows[i]),
        )
        profile = outer_fn.profile(catalog)
        items.append((profile, record))
        tree._profiles[int(oid)] = profile
    bulk_load(tree.engine, items)
    return tree
