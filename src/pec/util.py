"""Shared plumbing: seed derivation, hashing, canonical JSON, config fields,
squared distances."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path

import numpy as np


def knobs(cls) -> tuple[dataclasses.Field, ...]:
    """The hyperparameter fields of a config dataclass: every field but ``seed``."""
    return tuple(f for f in dataclasses.fields(cls) if f.name != "seed")


def field_parser(cls, f: dataclasses.Field):
    """The callable that reads one value of config field ``f`` from a string
    or a number: the field's ``parse`` metadata, else its annotated type
    (``X | None`` and ``tuple[X, ...]`` give X)."""
    hint = typing.get_type_hints(cls)[f.name]
    args = [a for a in typing.get_args(hint) if a not in (type(None), Ellipsis)]
    return f.metadata.get("parse", args[0] if args else hint)


def derive_seed(master: int, *labels) -> int:
    """Derive a child seed from a master seed and a label path.

    Hash-based so stages / repeats get independent, reproducible streams.
    Returns a value in [0, 2**63).
    """
    key = ":".join([str(int(master))] + [str(x) for x in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(obj, path) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n",
        encoding="utf-8",
    )


def sq_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``c``,
    as |x|^2 + |c|^2 - 2 x.c clamped at 0."""
    d2 = np.sum(x**2, axis=1)[:, None] + np.sum(c**2, axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d2, 0.0, out=d2)
