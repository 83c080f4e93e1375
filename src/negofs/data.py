"""Dataset ingestion, seeded permutation, the budget rule, and synthetic streams.

The on-disk format is the common sparse text layout: one instance per line,
a label token followed by whitespace-separated ``index:value`` pairs with
1-based ascending indices. Internally everything is 0-based; this module is
the only place that conversion happens.

The synthetic generator makes random.Random's sample, choice and gauss draws,
in their order, straight from getrandbits, random and math's log, sqrt, cos and
sin (Box-Muller pairs, the spare kept across instances as gauss_next keeps it),
so its bytes depend on MT19937 and libm alone. It alone skips the validating
constructor, through sparse._from_ascending: its indices are drawn sorted and unique.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from .sparse import SparseVector, _check_field_types, _from_ascending

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
            if y not in (-1, 1) or isinstance(y, bool):
                raise ValueError(f"labels must be -1 or +1, got {y!r}")

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
        _check_field_types(self, ("d", "n_samples", "n_relevant", "seed"),
                           ("density", "label_noise"))
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


def _label_mapping(raw_labels: set[int], line_no: int) -> dict[int, int]:
    if raw_labels <= {-1, 1}:
        return {-1: -1, 1: 1}
    if raw_labels <= {0, 1}:
        return {0: -1, 1: 1}
    if raw_labels <= {1, 2}:
        return {1: -1, 2: 1}
    raise SparseTextParseError(
        line_no, f"non-binary labels: alphabet {sorted(raw_labels)} is not supported"
    )


def load_sparse_text(
    path: Union[str, Path], dimension: Union[int, None] = None, name: Union[str, None] = None
) -> Dataset:
    """Load a sparse text file into a Dataset.

    File indices are 1-based and must be strictly ascending within a line.
    Labels and values must be finite (no nan, inf, or overflow like 1e400)
    and written in ASCII without '_' digit separators; the file must be
    valid UTF-8, and a byte that is not is reported at its line.
    Labels {+1,-1} are kept; {0,1} and {1,2} alphabets are mapped onto
    {-1,+1} once the whole file has been seen. Any other alphabet is reported
    at the line of its second distinct label. ``dimension`` overrides the
    max-index inference for files that omit trailing all-zero features.
    """
    path = Path(path)
    rows: list[tuple[int, list[tuple[int, float]]]] = []
    raw_labels: set[int] = set()
    max_index = max_index_line = 0
    last_line_no = 0

    # surrogateescape keeps text mode's line breaks and turns each byte that is
    # not valid UTF-8 into a lone surrogate, which the line's encode refuses.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            last_line_no = line_no
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise SparseTextParseError(line_no, "not valid UTF-8") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "_" in line or not line.isascii():  # int() and float() accept both
                raise SparseTextParseError(line_no, "'_' or a non-ASCII character")
            tokens = line.split()
            raw = _parse_label(tokens[0], line_no)
            if raw not in raw_labels:  # a new label: check the alphabet at its line
                raw_labels.add(raw)
                if len(raw_labels) > 2:
                    raise SparseTextParseError(
                        line_no, f"non-binary labels: more than two distinct labels "
                        f"({sorted(raw_labels)})"
                    )
                mapping = _label_mapping(raw_labels, line_no)
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
            if prev_index > max_index:
                max_index, max_index_line = prev_index, line_no
            rows.append((raw, pairs))

    if not rows:
        raise SparseTextParseError(last_line_no or 1, "empty dataset")

    d = dimension if dimension is not None else max_index
    if d < max_index:
        raise SparseTextParseError(
            max_index_line, f"dimension override {d} smaller than max index {max_index}"
        )
    if d < 1:
        raise SparseTextParseError(
            last_line_no, "cannot infer a positive dimension from an all-empty file"
        )

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


def permute(dataset: Dataset, seed: int) -> list[int]:
    """Uniformly random instance ordering from a seeded generator."""
    n = len(dataset)
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


def _sample(getrandbits, n: int, k: int) -> list[int]:
    """sorted(rng.sample(range(n), k)) from the same getrandbits words: a pool
    swap up to CPython's setsize, redrawn repeats above it, _randbelow's rejections."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            pool[j], pool[m - 1] = pool[m - 1], pool[j]
        return sorted(pool[n - k:])
    bits, picked = n.bit_length(), set()
    while len(picked) < k:
        j = getrandbits(bits)
        if j < n:
            picked.add(j)
    return sorted(picked)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, frozenset[int]]:
    """Draw a stream labelled by a planted ±1 sparse model.

    Each instance carries max(1, floor(density*d + 0.5)) standard-normal
    coordinates (density*d rounded half up, at least 1) at random positions;
    the label is the sign of the planted model's margin, flipped with
    probability ``label_noise``. Returns the dataset together with the
    planted support for recovery scoring.
    """
    rng = random.Random(spec.seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    log, sqrt, cos, sin, tau = math.log, math.sqrt, math.cos, math.sin, math.tau
    # choice((-1, 1)) is one _randbelow(2), which a 1-sample of range(2) draws too.
    planted = {i: (-1.0, 1.0)[_sample(getrandbits, 2, 1)[0]]
               for i in _sample(getrandbits, spec.d, spec.n_relevant)}
    nnz = max(1, math.floor(spec.density * spec.d + 0.5))
    instances: list[Instance] = []
    spare = None  # gauss's second Box-Muller value, kept for the next call
    for _ in range(spec.n_samples):
        idx = _sample(getrandbits, spec.d, nnz)
        values = [] if spare is None else [spare]
        while len(values) < nnz:
            x2pi = uniform() * tau
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            values += (cos(x2pi) * g2rad, sin(x2pi) * g2rad)
        spare = values.pop() if len(values) > nnz else None
        margin = 0.0  # unplanted coordinates add 0.0, which leaves the sum unchanged
        for i, v in zip(idx, values):
            if i in planted:
                margin += planted[i] * v
        y = 1 if margin > 0 else -1
        if spec.label_noise > 0 and uniform() < spec.label_noise:
            y = -y
        instances.append((_from_ascending(spec.d, idx, values), y))

    name = f"synthetic-d{spec.d}-r{spec.n_relevant}-s{spec.seed}"
    return Dataset(name, spec.d, instances), frozenset(planted)


def stream_of(dataset: Dataset, order: Sequence[int]) -> list[Instance]:
    """Materialize the permuted instance stream."""
    return [dataset.instances[i] for i in order]
