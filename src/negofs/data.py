"""Dataset ingestion, seeded permutation, the budget rule, and synthetic streams.

The on-disk format is the common sparse text layout: one instance per line,
a label token followed by whitespace-separated ``index:value`` pairs with
1-based ascending indices. Internally everything is 0-based; this module is
the only place that conversion happens.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

from .sparse import SparseVector

Instance = tuple[SparseVector, int]


class SparseTextParseError(ValueError):
    """Malformed sparse text input; the message names the offending line."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass
class Dataset:
    name: str
    dimension: int
    instances: list[Instance]

    def __post_init__(self):
        for x, y in self.instances:
            if x.dimension != self.dimension:
                raise ValueError(
                    f"instance dimension {x.dimension} != dataset dimension {self.dimension}"
                )
            if y not in (-1, 1):
                raise ValueError(f"labels must be -1 or +1, got {y}")

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a stream with a planted sparse linear model."""

    d: int
    n_samples: int
    n_relevant: int
    density: float = 0.1
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d <= 0 or self.n_samples <= 0:
            raise ValueError("d and n_samples must be positive")
        if not 1 <= self.n_relevant <= self.d:
            raise ValueError(f"n_relevant must lie in [1, {self.d}], got {self.n_relevant}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must lie in [0, 0.5), got {self.label_noise}")


_ALLOWED_RAW_LABELS = {-1, 0, 1, 2}


def _parse_label(token: str, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise SparseTextParseError(line_no, f"malformed label token {token!r}") from None
    if not math.isfinite(value):
        raise SparseTextParseError(line_no, f"non-finite label {token!r}")
    raw = int(value)
    if raw != value or raw not in _ALLOWED_RAW_LABELS:
        raise SparseTextParseError(line_no, f"non-binary labels: unsupported label {token!r}")
    return raw


def _label_mapping(raw_labels: set[int], line_no_of_last: int) -> dict[int, int]:
    if raw_labels <= {-1, 1}:
        return {-1: -1, 1: 1}
    if raw_labels <= {0, 1}:
        return {0: -1, 1: 1}
    if raw_labels <= {1, 2}:
        return {1: -1, 2: 1}
    raise SparseTextParseError(
        line_no_of_last, f"non-binary labels: alphabet {sorted(raw_labels)} is not supported"
    )


def load_sparse_text(
    path: Union[str, Path], dimension: Union[int, None] = None, name: Union[str, None] = None
) -> Dataset:
    """Load a sparse text file into a Dataset.

    File indices are 1-based and must be strictly ascending within a line.
    Labels and values must be finite (no nan, inf, or overflow like 1e400).
    Labels {+1,-1} are kept; {0,1} and {1,2} alphabets are mapped onto
    {-1,+1} once the whole file has been seen. ``dimension`` overrides the
    max-index inference for files that omit trailing all-zero features.
    """
    path = Path(path)
    rows: list[tuple[int, list[tuple[int, float]]]] = []
    raw_labels: set[int] = set()
    max_index = 0
    last_line_no = 0

    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            last_line_no = line_no
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            raw = _parse_label(tokens[0], line_no)
            raw_labels.add(raw)
            if len(raw_labels) > 2:
                raise SparseTextParseError(
                    line_no, f"non-binary labels: more than two distinct labels "
                    f"({sorted(raw_labels)})"
                )
            pairs: list[tuple[int, float]] = []
            prev_index = 0
            for token in tokens[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    file_index = int(idx_str)
                    value = float(val_str)
                except ValueError:
                    raise SparseTextParseError(
                        line_no, f"malformed token {token!r}"
                    ) from None
                if not math.isfinite(value):
                    raise SparseTextParseError(line_no, f"non-finite value in {token!r}")
                if file_index < 1:
                    raise SparseTextParseError(
                        line_no, f"feature index must be >= 1, got {file_index}"
                    )
                if file_index == prev_index:
                    raise SparseTextParseError(
                        line_no, f"duplicate feature index {file_index}"
                    )
                if file_index < prev_index:
                    raise SparseTextParseError(
                        line_no,
                        f"non-ascending feature index {file_index} after {prev_index}",
                    )
                prev_index = file_index
                pairs.append((file_index - 1, value))
            max_index = max(max_index, prev_index)
            rows.append((raw, pairs))

    if not rows:
        raise SparseTextParseError(last_line_no or 1, "empty dataset")

    d = dimension if dimension is not None else max_index
    if d < max_index:
        raise ValueError(f"dimension override {d} smaller than max index {max_index}")
    if d < 1:
        raise ValueError("cannot infer a positive dimension from an all-empty file")

    mapping = _label_mapping(raw_labels, last_line_no)
    instances = [(SparseVector(d, pairs), mapping[raw]) for raw, pairs in rows]
    return Dataset(name=name or path.stem, dimension=d, instances=instances)


def save_sparse_text(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write a Dataset back to sparse text (1-based indices, ±1 labels)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for x, y in dataset.instances:
            parts = ["+1" if y > 0 else "-1"]
            parts.extend(f"{i + 1}:{v!r}" for i, v in x.items())
            fh.write(" ".join(parts) + "\n")


def permute(dataset_or_size: Union[Dataset, int], seed: int) -> list[int]:
    """Uniformly random instance ordering from a seeded generator."""
    n = dataset_or_size if isinstance(dataset_or_size, int) else len(dataset_or_size)
    if n <= 0:
        raise ValueError("cannot permute an empty dataset")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def budget(dimension: int, fraction: float) -> int:
    """Feature budget: round-half-up of fraction*dimension, floored at 1."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"budget fraction must lie in (0, 1], got {fraction}")
    return max(1, math.floor(fraction * dimension + 0.5))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, frozenset[int]]:
    """Draw a stream labelled by a planted ±1 sparse model.

    Each instance carries round(density*d) standard-normal coordinates at
    random positions; the label is the sign of the planted model's margin,
    flipped with probability ``label_noise``. Returns the dataset together
    with the planted support for recovery scoring.
    """
    rng = random.Random(spec.seed)
    planted_indices = sorted(rng.sample(range(spec.d), spec.n_relevant))
    planted = {i: float(rng.choice((-1, 1))) for i in planted_indices}

    nnz = max(1, math.floor(spec.density * spec.d + 0.5))
    instances: list[Instance] = []
    for _ in range(spec.n_samples):
        idx = sorted(rng.sample(range(spec.d), nnz))
        pairs = [(i, rng.gauss(0.0, 1.0)) for i in idx]
        margin = sum(planted.get(i, 0.0) * v for i, v in pairs)
        y = 1 if margin > 0 else -1
        if spec.label_noise > 0 and rng.random() < spec.label_noise:
            y = -y
        instances.append((SparseVector(spec.d, pairs), y))

    name = f"synthetic-d{spec.d}-r{spec.n_relevant}-s{spec.seed}"
    return Dataset(name, spec.d, instances), frozenset(planted_indices)


def stream_of(dataset: Dataset, order: Sequence[int]) -> list[Instance]:
    """Materialize the permuted instance stream."""
    return [dataset.instances[i] for i in order]
