"""Mixed tabular data: schemas, CSV I/O, one-hot encoding, synthetic data.

A :class:`Dataset` is column-oriented: numeric columns are float vectors,
categorical columns are integer code vectors indexing into the schema's
category list. :class:`EncoderState` holds everything fitted on a training
split — numeric (min, max) ranges and per-category counts — and is the
single source of the balance weights used by the losses.

All values are immutable after construction; datasets and encoder states
are safe to share across threads and processes.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path

import numpy as np

from .errors import (
    ConstantNumeric,
    DataError,
    EmptyCategory,
    FractionOutOfRange,
    InvalidContext,
    MissingValue,
    SchemaMismatch,
    ShapeError,
    UnknownCategory,
)
from .rng import gaussian, make_rng


# ----------------------------------------------------------------------
# Schema and Dataset
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Column:
    """One column: numeric when ``categories`` is None, categorical otherwise."""

    name: str
    categories: tuple[str, ...] | None = None

    @property
    def is_categorical(self) -> bool:
        return self.categories is not None

    def __post_init__(self) -> None:
        if self.categories is not None:
            if len(self.categories) < 2:
                raise DataError(f"column {self.name!r} needs >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"column {self.name!r} has duplicate categories")


@dataclass(frozen=True)
class Schema:
    """Ordered column definitions for a mixed table."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if not names:
            raise DataError("schema has no columns")
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def p(self) -> int:
        """Number of variables (not encoded width)."""
        return len(self.columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def categorical_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.is_categorical)

    @cached_property
    def spans(self) -> tuple[slice, ...]:
        """Per column, its encoded columns: one if numeric, one per category if categorical."""
        stops = np.cumsum([len(c.categories) if c.is_categorical else 1 for c in self.columns])
        return tuple(map(slice, [0, *stops[:-1].tolist()], stops.tolist()))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Column store over a :class:`Schema`, with an optional numeric target."""

    schema: Schema
    columns: dict[str, np.ndarray]
    y: np.ndarray | None = None
    target_name: str = "y"

    def __post_init__(self) -> None:
        if set(self.columns) != set(self.schema.names):
            raise SchemaMismatch("column dict does not match schema names")
        lengths = {len(v) for v in self.columns.values()}
        if self.y is not None:
            lengths.add(len(self.y))
        if len(lengths) > 1:
            raise ShapeError(f"columns have differing lengths: {sorted(lengths)}")
        cols = {}
        for c in self.schema.columns:
            v = self.columns[c.name]
            if c.is_categorical:
                v = np.asarray(v, dtype=np.int64)
                if v.size and (v.min() < 0 or v.max() >= len(c.categories)):
                    raise DataError(f"category code out of range in {c.name!r}")
            else:
                v = np.asarray(v, dtype=np.float64)
            cols[c.name] = _freeze(v)
        object.__setattr__(self, "columns", cols)
        if self.y is not None:
            object.__setattr__(self, "y", _freeze(np.asarray(self.y, dtype=np.float64)))

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset (used by :func:`split`)."""
        return Dataset(
            schema=self.schema,
            columns={k: v[indices] for k, v in self.columns.items()},
            y=None if self.y is None else self.y[indices],
            target_name=self.target_name,
        )


# ----------------------------------------------------------------------
# Encoder
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderState:
    """Scaling ranges and category counts fitted on a training split."""

    schema: Schema
    n: int
    numeric_range: dict[str, tuple[float, float]]
    category_counts: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        counts = {k: _freeze(np.asarray(v, dtype=np.int64)) for k, v in self.category_counts.items()}
        object.__setattr__(self, "category_counts", counts)

    @property
    def width(self) -> int:
        """Encoded width P."""
        return self.schema.spans[-1].stop

    def feature_names(self) -> tuple[str, ...]:
        """Per encoded feature: ``name=category`` if one-hot, ``name`` if numeric."""
        return tuple(f"{c.name}={cat}" if c.is_categorical else c.name
                     for c in self.schema.columns for cat in c.categories or (None,))

    def feature_frequencies(self) -> np.ndarray:
        """Per encoded feature: f_kq for one-hot columns, NaN for numerics."""
        out = np.full(self.width, np.nan)
        for c, span in zip(self.schema.columns, self.schema.spans):
            if c.is_categorical:
                out[span] = self.category_counts[c.name] / self.n
        return out

    def categorical_groups(self) -> list[np.ndarray]:
        """Encoded-column index arrays, one per categorical variable."""
        spans = zip(self.schema.columns, self.schema.spans)
        return [np.arange(span.start, span.stop) for c, span in spans if c.is_categorical]


@dataclass(frozen=True)
class EncodedMatrix:
    """n x P real matrix in the encoder's working space."""

    values: np.ndarray
    encoder: EncoderState

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.encoder.width:
            raise ShapeError(
                f"expected n x {self.encoder.width} matrix, got {v.shape}"
            )
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def fit_encoder(train: Dataset) -> EncoderState:
    """Fit numeric ranges and category counts on the training split only.

    Raises :class:`EmptyCategory` when a schema category never occurs in
    ``train`` (the split cannot support balance weights) and
    :class:`ConstantNumeric` for constant numeric columns.
    """
    if train.n < 2:
        raise DataError("fit_encoder needs at least 2 rows")
    ranges: dict[str, tuple[float, float]] = {}
    counts: dict[str, np.ndarray] = {}
    for c in train.schema.columns:
        v = train.column(c.name)
        if c.is_categorical:
            cnt = np.bincount(v, minlength=len(c.categories))
            if (cnt == 0).any():
                missing = [c.categories[k] for k in np.flatnonzero(cnt == 0)]
                raise EmptyCategory(
                    f"categories {missing} of {c.name!r} absent from the training split"
                )
            counts[c.name] = cnt
        else:
            lo, hi = float(v.min()), float(v.max())
            if hi <= lo:
                raise ConstantNumeric(f"numeric column {c.name!r} is constant")
            ranges[c.name] = (lo, hi)
    return EncoderState(train.schema, train.n, ranges, counts)


def encode(data: Dataset, enc: EncoderState) -> EncodedMatrix:
    """Min-max scale numerics (clipped to [0, 1]) and one-hot categoricals."""
    return EncodedMatrix(encode_values(data, enc), enc)


def encode_values(data: Dataset, enc: EncoderState) -> np.ndarray:
    """:func:`encode`'s matrix as a new writable array, which its caller may overwrite."""
    return row_source(data, enc)()


def row_source(data: Dataset, enc: EncoderState) -> Callable[..., np.ndarray]:
    """``rows(indices)``: those rows of :func:`encode_values`, made from each categorical
    cell's encoded column (n x q) and the scaled numeric cells, never the whole matrix."""
    if data.schema != enc.schema:
        raise SchemaMismatch("dataset schema differs from encoder schema")
    hot, numeric, scaled = [np.empty((data.n, 0), dtype=np.int64)], [], [np.empty((data.n, 0))]
    for c, span in zip(data.schema.columns, data.schema.spans):
        v = data.column(c.name)
        if c.is_categorical:
            hot.append(span.start + v)
        else:
            lo, hi = enc.numeric_range[c.name]
            numeric.append(span.start)
            scaled.append(np.clip((v - lo) / (hi - lo), 0.0, 1.0))
    hot, scaled = np.column_stack(hot), np.column_stack(scaled)

    def rows(indices=slice(None)) -> np.ndarray:
        cells = hot[indices]
        out = np.zeros((len(cells), enc.width))
        out[np.arange(len(cells))[:, None], cells] = 1.0
        out[:, numeric] = scaled[indices]
        return out

    return rows


def decode(m: EncodedMatrix, enc: EncoderState) -> Dataset:
    """Hard-decode: inverse affine for numerics, per-variable argmax for categoricals.

    Argmax ties resolve to the lowest category index, so the output is
    deterministic and one-hot valid by construction.
    """
    if m.width != enc.width:
        raise ShapeError(f"matrix width {m.width} != encoder width {enc.width}")
    cols: dict[str, np.ndarray] = {}
    for c, span in zip(enc.schema.columns, enc.schema.spans):
        if c.is_categorical:
            cols[c.name] = np.argmax(m.values[:, span], axis=1)
        else:
            lo, hi = enc.numeric_range[c.name]
            cols[c.name] = lo + m.values[:, span.start] * (hi - lo)
    return Dataset(enc.schema, cols)


# ----------------------------------------------------------------------
# CSV and schema sidecar
# ----------------------------------------------------------------------

def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _coerce_number(cell: str) -> float:
    """``float(cell)``; a ValueError also for a cell that is not finite."""
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(cell)
    return v


def read_csv(
    path: str | Path,
    schema: Schema | None = None,
    *,
    target: str | None = None,
) -> Dataset:
    """Read a comma-separated file with one header row.

    With ``schema=None`` the kinds are inferred: a column is categorical
    iff any cell fails to parse as a number; category order is
    first-appearance order. ``target`` names a numeric column returned as
    ``Dataset.y`` instead of a feature. A file with no column besides the
    target raises :class:`DataError`.

    Each cell becomes its value as its row is read (inference reads the file
    once before, to find the numeric columns); of several faults, the first read is raised.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            last = {name: k for k, name in enumerate(header)}  # a repeated target: its last column
            if target is not None and target not in last:
                raise DataError(f"{path}: target column {target!r} not found")
            features = [k for k, name in enumerate(header) if name != target]
            names = [header[k] for k in features]
            if schema is None:
                numeric = range(len(header))  # the columns whose every cell so far is a number
                for row in rows:
                    if len(row) == len(header):  # a ragged row is raised below
                        numeric = [k for k in numeric if _parse_float(row[k]) is not None]
                fh.seek(0)
                next(rows := csv.reader(fh))
                # category -> code, an unseen category taking the next: first-appearance order
                codes = [None if k in numeric else defaultdict(count().__next__) for k in features]
            elif list(schema.names) != names:
                raise SchemaMismatch(f"{path}: header {names} does not match schema {list(schema.names)}")
            else:
                codes = [c.categories and {cat: i for i, cat in enumerate(c.categories)}
                         for c in schema.columns]
            columns = [array("d" if index is None else "q") for index in codes]
            y = None if target is None else array("d")
            plan = [] if y is None else [(last[target], _coerce_number, y)]  # (column, convert, values)
            plan += [(k, _coerce_number if index is None else index.__getitem__, values)
                     for k, index, values in zip(features, codes, columns)]
            for row_no, row in enumerate(rows, 2):
                if len(row) != len(header):
                    raise ShapeError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
                if "" in row:
                    raise MissingValue(f"{path}: empty cell in column {header[row.index('')]!r}, "
                                       f"row {row_no}")
                try:
                    for k, convert, values in plan:
                        values.append(convert(row[k]))
                except KeyError:
                    raise UnknownCategory(f"{path}: value {row[k]!r} "
                                          f"not a category of {header[k]!r}") from None
                except ValueError:
                    raise DataError(f"column {header[k]!r}, row {row_no}: "
                                    f"cell {row[k]!r} is not a finite number") from None
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read CSV {path}: {e}") from e
    if schema is None:
        schema = Schema(tuple(Column(name, None if index is None else tuple(index))
                              for name, index in zip(names, codes)))
    # Dataset takes each array's buffer as it is, without a copy
    return Dataset(schema, dict(zip(names, columns)), y=y, target_name=target or "y")


def write_csv(data: Dataset, path: str | Path) -> None:
    """Inverse of :func:`read_csv`; categorical cells are category text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(data.schema.names)
        if data.y is not None:
            header.append(data.target_name)
        writer.writerow(header)
        for i in range(data.n):
            row = []
            for c in data.schema.columns:
                v = data.column(c.name)[i]
                row.append(c.categories[v] if c.is_categorical else repr(float(v)))
            if data.y is not None:
                row.append(repr(float(data.y[i])))
            writer.writerow(row)


def save_schema_sidecar(schema: Schema, path: str | Path, target: str | None = None) -> None:
    """One line per column: ``name,kind[,cat1|cat2|...]``."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in schema.columns:
            if c.is_categorical:
                fh.write(f"{c.name},categorical,{'|'.join(c.categories)}\n")
            else:
                fh.write(f"{c.name},numeric\n")
        if target is not None:
            fh.write(f"{target},target\n")


def load_schema_sidecar(path: str | Path) -> tuple[Schema, str | None]:
    """Inverse of :func:`save_schema_sidecar`; an unreadable or malformed
    file raises :class:`DataError`."""
    cols: list[Column] = []
    target = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read schema sidecar {path}: {e}") from e
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",", 2)
        if len(parts) < 2:
            raise DataError(f"{path}: line {line!r} names no column kind")
        name, kind = parts[0], parts[1]
        if kind == "numeric":
            cols.append(Column(name))
        elif kind == "categorical":
            if len(parts) != 3:
                raise DataError(f"{path}: categorical {name!r} lists no categories")
            cols.append(Column(name, tuple(parts[2].split("|"))))
        elif kind == "target":
            target = name
        else:
            raise DataError(f"{path}: unknown column kind {kind!r}")
    return Schema(tuple(cols)), target


# ----------------------------------------------------------------------
# Synthetic data
# ----------------------------------------------------------------------

CONTEXTS = ("imbalanced", "balanced", "majority")

# Gaussian features: name -> (mean, std).
SYNTHETIC_NUMERICS: dict[str, tuple[float, float]] = {
    "X1": (0.0, 1.0),
    "X2": (10.0, 2.0),
    "X3": (10.0, 2.0),
}

# Multinomial features: name -> ((category, probability), ...). Category
# labels carry their percentage; repeated percentages get letter suffixes.
SYNTHETIC_CATEGORICALS: dict[str, tuple[tuple[str, float], ...]] = {
    "Q1": (("Q1.70", 0.70), ("Q1.30", 0.30)),
    "Q2": (
        ("Q2.10", 0.10), ("Q2.20", 0.20), ("Q2.29", 0.29),
        ("Q2.31", 0.31), ("Q2.02", 0.02), ("Q2.08", 0.08),
    ),
    "Q3": (("Q3.60", 0.60), ("Q3.20", 0.20), ("Q3.17", 0.17), ("Q3.03", 0.03)),
    "Q4": (
        ("Q4.10", 0.10), ("Q4.10b", 0.10), ("Q4.10c", 0.10), ("Q4.10d", 0.10),
        ("Q4.10e", 0.10), ("Q4.15", 0.15), ("Q4.05", 0.05), ("Q4.30", 0.30),
    ),
    "Q5": (
        ("Q5.25", 0.25), ("Q5.25b", 0.25), ("Q5.10", 0.10), ("Q5.10b", 0.10),
        ("Q5.05", 0.05), ("Q5.05b", 0.05), ("Q5.05c", 0.05), ("Q5.05d", 0.05),
        ("Q5.09", 0.09), ("Q5.01", 0.01),
    ),
}

# Which indicator each of the six categorical coefficients multiplies,
# per context. The first three coefficients belong to X1..X3 and are
# zeroed in the majority context.
_CONTEXT_INDICATORS: dict[str, tuple[tuple[str, str], ...]] = {
    "imbalanced": (
        ("Q1", "Q1.30"), ("Q2", "Q2.02"), ("Q3", "Q3.03"),
        ("Q4", "Q4.05"), ("Q5", "Q5.01"), ("Q5", "Q5.05"),
    ),
    "balanced": (
        ("Q1", "Q1.70"), ("Q2", "Q2.29"), ("Q3", "Q3.60"),
        ("Q4", "Q4.30"), ("Q5", "Q5.25"), ("Q5", "Q5.10"),
    ),
}
_CONTEXT_INDICATORS["majority"] = _CONTEXT_INDICATORS["balanced"]

Y_NOISE_STD = 0.5
# The target's linear coefficients: X1..X3, then the six indicators above.
SYNTHETIC_COEFFS = (1.0,) * 9


def synthetic_schema() -> Schema:
    cols = [Column(name) for name in SYNTHETIC_NUMERICS]
    cols += [
        Column(name, tuple(cat for cat, _ in spec))
        for name, spec in SYNTHETIC_CATEGORICALS.items()
    ]
    return Schema(tuple(cols))


def generate_synthetic(
    context: str,
    n: int,
    seed: int,
    coeffs: tuple[float, ...] = SYNTHETIC_COEFFS,
) -> Dataset:
    """Draw the 3-numeric / 5-categorical benchmark sample with target.

    The target is ``y ~ N(mu, 0.5)`` where ``mu`` is a linear combination
    of features selected by ``context``: "imbalanced" loads the numerics
    plus minority categories, "balanced" the numerics plus majority
    categories, and "majority" the majority categories only. ``coeffs``
    supplies the nine linear coefficients.

    Draw order is fixed (X1, X2, X3, Q1..Q5, noise), so a seed pins
    every value bit-for-bit.
    """
    if context not in CONTEXTS:
        raise InvalidContext(f"context must be one of {CONTEXTS}, got {context!r}")
    if n < 1:
        raise DataError("n must be >= 1")
    if len(coeffs) != 9:
        raise DataError(f"coeffs must have length 9, got {len(coeffs)}")

    rng = make_rng(seed)
    schema = synthetic_schema()
    cols: dict[str, np.ndarray] = {}
    for name, (mean, std) in SYNTHETIC_NUMERICS.items():
        cols[name] = mean + std * gaussian(rng, n)
    for name, spec in SYNTHETIC_CATEGORICALS.items():
        cum = np.cumsum([p for _, p in spec])
        cum[-1] = 1.0  # absorb float round-off in the last cell
        cols[name] = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64)

    mu = np.zeros(n)
    if context != "majority":
        for k, name in enumerate(SYNTHETIC_NUMERICS):
            mu += coeffs[k] * cols[name]
    for k, (var, cat) in enumerate(_CONTEXT_INDICATORS[context]):
        cat_index = [c for c, _ in SYNTHETIC_CATEGORICALS[var]].index(cat)
        mu += coeffs[3 + k] * (cols[var] == cat_index)
    y = mu + Y_NOISE_STD * gaussian(rng, n)
    return Dataset(schema, cols, y=y)


def split_sizes(n: int, test_fraction: float) -> tuple[int, int]:
    """(train, test) rows of :func:`split` on n rows; both must be >= 1."""
    if not 0.0 < test_fraction < 1.0:  # false for nan too
        raise FractionOutOfRange(f"test_fraction must be in (0, 1), got {test_fraction}")
    test_n = int(round(n * test_fraction))
    if test_n == 0 or test_n == n:
        raise FractionOutOfRange(f"test_fraction {test_fraction} leaves an empty split for n={n}")
    return n - test_n, test_n


def split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random partition without replacement, deterministic per seed."""
    test_n = split_sizes(data.n, test_fraction)[1]
    perm = make_rng(seed).permutation(data.n)
    test_idx = np.sort(perm[:test_n])
    train_idx = np.sort(perm[test_n:])
    return data.take(train_idx), data.take(test_idx)


def schema_hash(schema: Schema) -> str:
    """Stable hex digest of a schema, for checkpoint headers."""
    import hashlib

    parts = []
    for c in schema.columns:
        parts.append(c.name)
        parts.append("|".join(c.categories) if c.is_categorical else "<numeric>")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:16]


def encoder_to_dict(enc: EncoderState) -> dict:
    return {
        "schema": [
            {"name": c.name, "categories": list(c.categories) if c.categories else None}
            for c in enc.schema.columns
        ],
        "n": enc.n,
        "numeric_range": {k: list(v) for k, v in enc.numeric_range.items()},
        "category_counts": {k: v.tolist() for k, v in enc.category_counts.items()},
    }


def encoder_from_dict(d: dict) -> EncoderState:
    return EncoderState(
        schema=Schema(tuple(
            Column(c["name"], tuple(c["categories"]) if c["categories"] else None) for c in d["schema"]
        )),
        n=int(d["n"]),
        numeric_range={k: (float(a), float(b)) for k, (a, b) in d["numeric_range"].items()},
        category_counts={k: np.asarray(v, dtype=np.int64) for k, v in d["category_counts"].items()},
    )
