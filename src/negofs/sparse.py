"""Sparse vector arithmetic shared by the learners and the negotiation engine.

Vectors are index->value maps over a fixed dimension. All operations are
pure: they return new vectors and never mutate their inputs, so vectors can
be shared freely between learners after a broadcast.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Union

# Entries below this magnitude are treated as cancellation noise and dropped.
ZERO_EPS = 1e-15

EntrySource = Union[Mapping[int, float], Iterable[tuple[int, float]]]


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimension are combined."""


class SparseVector:
    """Immutable sparse vector: only nonzero entries are stored, index-sorted."""

    __slots__ = ("dimension", "_data")

    def __init__(self, dimension: int, entries: EntrySource = ()):
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        data: dict[int, float] = {}
        for i, v in sorted(items):
            if not 0 <= i < dimension:
                raise IndexError(f"index {i} out of range for dimension {dimension}")
            if abs(v) >= ZERO_EPS:
                data[int(i)] = float(v)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, index: int) -> bool:
        return index in self._data

    def get(self, index: int, default: float = 0.0) -> float:
        return self._data.get(index, default)

    def items(self) -> Iterator[tuple[int, float]]:
        """Yield (index, value) pairs in ascending index order."""
        return iter(self._data.items())

    def indices(self) -> Iterator[int]:
        return iter(self._data.keys())

    def to_dict(self) -> dict[int, float]:
        return dict(self._data)

    def norm_l2(self) -> float:
        return math.sqrt(sum(v * v for v in self._data.values()))

    def norm_l2_sq(self) -> float:
        return sum(v * v for v in self._data.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.dimension == other.dimension and self._data == other._data

    def __hash__(self):
        return hash((self.dimension, tuple(self._data.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v!r}" for i, v in self._data.items())
        return f"SparseVector({self.dimension}, {{{body}}})"

    def __getstate__(self):
        return (self.dimension, self._data)

    def __setstate__(self, state):
        object.__setattr__(self, "dimension", state[0])
        object.__setattr__(self, "_data", state[1])


def check_budget(B: int, dimension: int) -> int:
    """Validate a feature budget: 1 <= B <= dimension."""
    if not isinstance(B, int) or isinstance(B, bool):
        raise TypeError(f"budget must be an int, got {type(B).__name__}")
    if not 1 <= B <= dimension:
        raise ValueError(f"budget must satisfy 1 <= B <= {dimension}, got {B}")
    return B


def _check_same_dimension(a: SparseVector, b: SparseVector) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def dot(a: SparseVector, b: SparseVector) -> float:
    """Inner product over the shared support."""
    _check_same_dimension(a, b)
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b.get(i) for i, v in a.items())


def add_scaled(w: SparseVector, s: float, x: SparseVector) -> SparseVector:
    """Return w + s*x. Entries that cancel to (near) zero are dropped."""
    _check_same_dimension(w, x)
    if s == 0.0 or len(x) == 0:
        return w
    out = w.to_dict()
    for i, v in x.items():
        out[i] = out.get(i, 0.0) + s * v
    return SparseVector(w.dimension, out)


def scale(w: SparseVector, s: float) -> SparseVector:
    """Return s*w."""
    if s == 1.0:
        return w
    if s == 0.0:
        return SparseVector(w.dimension)
    return SparseVector(w.dimension, {i: s * v for i, v in w.items()})


def truncate(w: SparseVector, B: int) -> SparseVector:
    """Keep the B entries of largest magnitude, zero the rest.

    Ties on magnitude keep the lower index, so truncation is deterministic.
    A vector already within budget is returned unchanged.
    """
    check_budget(B, w.dimension)
    if len(w) <= B:
        return w
    ranked = sorted(w.items(), key=lambda iv: (-abs(iv[1]), iv[0]))
    return SparseVector(w.dimension, ranked[:B])


def project_l2_ball(w: SparseVector, lam: float) -> SparseVector:
    """Scale w into the L2 ball of radius 1/sqrt(lam).

    Applies the factor min(1, 1/(sqrt(lam)*||w||)); the zero vector is a
    fixed point (the factor is taken as 1).
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    norm = w.norm_l2()
    if norm == 0.0:
        return w
    factor = min(1.0, 1.0 / (math.sqrt(lam) * norm))
    if factor == 1.0:
        return w
    return scale(w, factor)
