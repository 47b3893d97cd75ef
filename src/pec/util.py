"""Shared plumbing: seed derivation, hashing, config fields, squared
distances, and the text-file layer that every artifact is written and read
through (UTF-8, '\\n' line ends, errors that name the file and the physical
line)."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import typing

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
    parse = f.metadata.get("parse", args[0] if args else hint)
    return whole_number if parse is int else parse


def whole_number(value) -> int:
    """An int setting from an int, its text or a whole float; never truncated."""
    if isinstance(value, (str, int)) or float(value).is_integer():
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


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
    write_lines(path, [json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))])


def write_lines(path, lines) -> None:
    """Write ``lines`` as UTF-8 text, each ended by '\\n' on every platform, one
    at a time as they arrive; no lines at all write one '\\n'."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        empty = True
        for line in lines:
            fh.write(f"{line}\n")
            empty = False
        if empty:
            fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV with '\\n' line ends and the csv
    module's minimal quoting (a field with a comma or a quote is quoted)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_lines(path):
    """Yield (line number, text) for every non-blank line of a UTF-8 text
    file, one at a time; numbers are physical lines, counted from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def read_csv(path):
    """Yield (line number, fields) for every non-blank row of a UTF-8 CSV
    file, the header first, one at a time; numbers are physical lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if len(row) > 1 or "".join(row).strip():
                yield reader.line_num, row


def check_node_id(nid: str) -> None:
    """Raise ValueError unless ``nid`` can name a node: non-empty, not starting
    with '#' (it would read back as a comment line in graph and corpus files),
    with no whitespace or commas, and encodable as UTF-8."""
    if not nid or nid.startswith("#") or any(c.isspace() for c in nid) or "," in nid:
        raise ValueError(
            f"invalid node identifier {nid!r}: must be non-empty, "
            "not start with '#', and have no whitespace or commas"
        )
    try:
        nid.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"invalid node identifier {nid!r}: not encodable as UTF-8") from None


class Numbering(dict):
    """Keys of file ``path`` numbered 0, 1, 2, ... in the order they first
    appear, each with the line it first appeared on: a reader sets ``lineno``
    to the line it reads, then looks the line's keys up.  With ``checked``, a
    key is held to :func:`check_node_id` on its first sight, so once per key;
    a fault raises ValueError "{path}: line {n}: {message}"."""

    # readers set ``lineno`` once per line: a slot store takes ~3 ns, an
    # instance-dict store on a dict subclass ~26 ns (CPython 3.11)
    __slots__ = ("path", "checked", "what", "lineno", "lines")

    def __init__(self, path, checked: bool = False, what: str = "node") -> None:
        super().__init__()
        self.path, self.checked, self.what = path, checked, what
        self.lineno, self.lines = 0, []

    def __missing__(self, key) -> int:
        if self.checked:
            prefixed(f"{self.path}: line {self.lineno}", check_node_id, key)
        self[key] = number = len(self.lines)
        self.lines.append(self.lineno)
        return number

    def declare(self, key, lineno: int) -> int:
        """The number of ``key``, which line ``lineno`` declares and no other
        line may: a repeat raises "{path}: line {n}: {what} {key!r} repeats line {m}"."""
        if key in self:
            raise ValueError(f"{self.path}: line {lineno}: {self.what} {key!r} repeats line {self.line(key)}")
        self.lineno = lineno
        return self[key]

    def line(self, key) -> int:
        """The line where ``key``, already numbered, first appeared."""
        return self.lines[self[key]]


def parse_fields(path, lineno: int, parse, fields, what: str) -> list:
    """``parse`` of each of ``fields``; one it rejects raises ValueError
    "{path}: line {lineno}: {what}: {the parser's message}"."""
    try:
        return [parse(x) for x in fields]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{path}: line {lineno}: {what}: {exc}") from None


def parse_rows(path, rows, width: int, parse, what: str, dtype=float,
               checked: bool = False) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids, each once and in file order, and the (rows, width - 1) array
    of the values read by ``parse`` of the numbered rows ``[id, v1, ...]``,
    each ``width`` fields wide; ``checked`` holds the ids to the node-id rule
    (see :class:`Numbering`).  The array is filled as the rows arrive, so
    nothing is held per cell but its entry; the first faulty row raises."""
    ids = Numbering(path, checked)

    def cells():
        for lineno, row in rows:
            if len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            ids.declare(row[0], lineno)
            yield from parse_fields(path, lineno, parse, row[1:], what)

    values = np.fromiter(cells(), dtype=dtype)
    return tuple(ids), values.reshape(len(ids), width - 1)


def prefixed(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises is raised again with
    ``where`` (a file, a setting) in front."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def sq_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``c``,
    as |x|^2 + |c|^2 - 2 x.c clamped at 0."""
    d2 = np.sum(x**2, axis=1)[:, None] + np.sum(c**2, axis=1)[None, :] - 2.0 * (x @ c.T)
    return np.maximum(d2, 0.0, out=d2)
