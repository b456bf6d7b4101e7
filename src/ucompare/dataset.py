"""Tabular data model: labelled observations and CSV ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


class DatasetFormatError(ValueError):
    """A data file violates the expected tabular format."""


@dataclass(frozen=True)
class Observation:
    """One labelled point: a real feature vector and a binary label."""

    x: tuple[float, ...]
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        for v in self.x:
            if not math.isfinite(v):
                raise ValueError(f"features must be finite, got {v!r}")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y!r}")
        object.__setattr__(self, "y", int(self.y))


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable, nonempty collection of observations of one width.

    Rows keep their ingestion order and are addressed by 1-based index, so
    index i refers to the same observation for the lifetime of the object.
    n and feature_dim are derived: the row count and the width of the first
    row, which every other row must match.
    """

    observations: tuple[Observation, ...]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if not self.observations:
            raise ValueError("empty dataset")
        width = self.feature_dim
        for i, obs in enumerate(self.observations, start=1):
            if len(obs.x) != width:
                raise ValueError(f"row {i} has {len(obs.x)} features, expected {width}")

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def feature_dim(self) -> int:
        return len(self.observations[0].x)

    def observation(self, index: int) -> Observation:
        """Row lookup by stable 1-based index."""
        if not 1 <= index <= self.n:
            raise IndexError(f"index {index} outside 1..{self.n}")
        return self.observations[index - 1]

    @classmethod
    def from_arrays(cls, features: Sequence[Sequence[float]], labels: Sequence[int]) -> "Dataset":
        """Build a dataset from parallel feature rows and labels."""
        if len(features) != len(labels):
            raise ValueError("features and labels must have equal length")
        return cls(tuple(Observation(tuple(row), y) for row, y in zip(features, labels)))


def _parse_label(cell: str, line_no: int, col: int) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}, column {col + 1}: label {cell!r} is not a number"
        ) from None
    if value not in (0.0, 1.0):
        raise DatasetFormatError(
            f"line {line_no}, column {col + 1}: label must be 0 or 1, got {cell!r}"
        )
    return int(value)


def _parse_feature(cell: str, line_no: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetFormatError(
            f"line {line_no}, column {col + 1}: {cell!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise DatasetFormatError(
            f"line {line_no}, column {col + 1}: feature must be finite, got {cell!r}"
        )
    return value


def load_csv(
    path: str | Path,
    label_column: int | str | None = None,
    has_header: bool = True,
) -> Dataset:
    """Load a delimited file of numeric features plus one binary label column.

    label_column selects the label by 0-based position (int) or header name
    (str); None means the last column. All other columns are features. Rows
    must agree on column count; any parse problem is reported with its line
    and column. The file is read as UTF-8; a leading byte-order mark is
    dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                rows = list(reader)
            except csv.Error as exc:
                raise DatasetFormatError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(
            f"not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None
    rows = [(i + 1, row) for i, row in enumerate(rows) if row]

    header: list[str] | None = None
    if has_header:
        if not rows:
            raise DatasetFormatError("empty dataset")
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
    if not rows:
        raise DatasetFormatError("empty dataset")

    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise DatasetFormatError(
            f"header has {len(header)} columns but line {rows[0][0]} has {width}"
        )

    if label_column is None:
        label_idx = width - 1
    elif isinstance(label_column, str):
        if header is None:
            raise DatasetFormatError(
                f"label column {label_column!r} needs a header row to resolve"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetFormatError(
                f"label column {label_column!r} not found in header {header}"
            ) from None
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise DatasetFormatError(
                f"label column index {label_idx} outside 0..{width - 1}"
            )

    observations = []
    for line_no, row in rows:
        if len(row) != width:
            raise DatasetFormatError(
                f"line {line_no}: expected {width} columns, found {len(row)}"
            )
        features = tuple(
            _parse_feature(cell.strip(), line_no, col)
            for col, cell in enumerate(row)
            if col != label_idx
        )
        label = _parse_label(row[label_idx].strip(), line_no, label_idx)
        observations.append(Observation(features, label))

    return Dataset(tuple(observations))


def save_csv(data: Dataset, path: str | Path, has_header: bool = True) -> None:
    """Write a dataset with features first and the label last.

    Floats are written with repr, so reloading reproduces them bitwise.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if has_header:
            writer.writerow([f"x{j + 1}" for j in range(data.feature_dim)] + ["y"])
        for obs in data.observations:
            writer.writerow([repr(v) for v in obs.x] + [obs.y])
