"""Sparse vector arithmetic shared by the learners and the negotiation engine.

Vectors are index->value maps over a fixed dimension. Operations return new
vectors and never change an input vector's entries, so vectors can be shared
freely between learners after a broadcast. The one mutation is of a second-order
learner's sigma dict, which _add_cut shrinks in the loop that writes x.

Readers see the entries, and float sums run over them, in ascending index
order, but a vector's dict may be held unsorted: a reader that depends on the
order sorts it on first use and keeps it. The merge and the in-place cuts
leave their dicts in the order of their writes, marked unsorted.

The public constructor is the one validating boundary: it sorts, range-checks
and rejects non-integer or repeated indices and non-finite or bool values.
Vectors the package computes or draws itself skip it through the private
helpers at the bottom of this module, which drop entries below ZERO_EPS.

One magnitude cut serves every budget. _cut_excess deletes the excess
smallest magnitudes from a dict in place; a cut it cannot make exactly is
rebuilt by _cut, a plain truncation that keeps the B largest magnitudes,
lower index first on ties, and sorts only the B kept indices when no tie
straddles the cut. Every learner update is one _add_cut (RAND then masks
its result): it writes the step into one copy of the weights and cuts it,
scaled by c into an L2 ball when given a lam (ALMA's and FOFS's step);
_cut rebuilds from c times the copy. The merge overlays each distinct offer
vector once and cuts its capped features the same way; its values already
clear ZERO_EPS. The plain truncation and projection these cuts must equal
are test references in tests/dense_oracle.py. A vector may cache a lower
bound on its magnitudes (its floor), which scale carries over to its result.

Float sums are written as loops, not with sum(), which compensates from
CPython 3.12 on; a loop adds left to right on every interpreter.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, KeysView, Mapping, Sequence, Union

# Entries below this magnitude are treated as cancellation noise and dropped.
ZERO_EPS = 1e-15

EntrySource = Union[Mapping[int, float], Iterable[tuple[int, float]]]


class DimensionMismatchError(ValueError):
    """Raised when two vectors of different dimension are combined."""


class SparseVector:
    """Immutable sparse vector: only nonzero entries are stored, read in index order."""

    # _floor is a cached lower bound on the magnitudes (None until needed) and
    # _sorted says whether _data is index-sorted; only this module reads them,
    # and neither plays a part in ==, hash, repr or pickling.
    __slots__ = ("dimension", "_data", "_floor", "_sorted")

    def __init__(self, dimension: int, entries: EntrySource = ()):
        if isinstance(dimension, bool):
            raise TypeError("dimension must be an int, got bool")
        if operator.index(dimension) <= 0:  # TypeError for a non-integer dimension
            raise ValueError(f"dimension must be positive, got {dimension}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        pairs = sorted(items)
        data: dict[int, float] = {}
        eps, inf, as_index = ZERO_EPS, math.inf, operator.index  # locals for the per-entry loop
        try:
            for i, v in pairs:
                if not 1 < i < dimension:  # only 0 and 1 can be bools
                    if not 0 <= i < dimension:
                        raise IndexError(f"index {i} out of range for dimension {dimension}")
                    if i.__class__ is bool:
                        raise TypeError(f"index must be an int, got {i!r}")
                if v.__class__ is bool:  # True would pass as 1.0, False drop as a zero
                    raise TypeError(f"value must be a real, got {v!r} at index {i}")
                if eps <= abs(v) < inf:
                    data[as_index(i)] = float(v)  # TypeError for a non-integer index
                elif not abs(v) < eps:  # NaN or ±inf
                    raise ValueError(f"non-finite value {v!r} at index {i}")
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"value out of float range at index {i}") from None
        if len(data) != len(pairs):  # entries were dropped or repeated: check every index
            indices = [as_index(i) for i, _ in pairs]
            for i, j in zip(indices, indices[1:]):
                if i == j:
                    raise ValueError(f"duplicate index {i}")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_floor", None)
        object.__setattr__(self, "_sorted", True)

    @classmethod
    def _trusted(
        cls, dimension: int, data: dict[int, float], floor: float | None = None,
        in_order: bool = True,
    ) -> "SparseVector":
        """Wrap data that is in range and free of |v| < ZERO_EPS, index-sorted if in_order.

        floor, when given, must be at most the smallest magnitude in data.
        """
        vector = object.__new__(cls)
        _set_dimension(vector, dimension)
        _set_data(vector, data)
        _set_floor(vector, floor)
        _set_sorted(vector, in_order)
        return vector

    def _ordered(self) -> dict[int, float]:
        """The entries in index order, sorted on the first call only."""
        if not self._sorted:
            data = self._data
            _set_data(self, {i: data[i] for i in sorted(data)})
            _set_sorted(self, True)
        return self._data

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterator[tuple[int, float]]:
        """Yield (index, value) pairs in ascending index order."""
        return iter((self._data if self._sorted else self._ordered()).items())

    def indices(self) -> Iterator[int]:
        return iter(self._ordered().keys())

    def norm_l2(self) -> float:
        return _root(self.norm_l2_sq(), self._ordered().values())

    def norm_l2_sq(self) -> float:
        total = 0.0
        for v in (self._data if self._sorted else self._ordered()).values():
            total += v * v
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.dimension == other.dimension and self._data == other._data

    def __hash__(self):
        return hash((self.dimension, tuple(self._ordered().items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v!r}" for i, v in self._ordered().items())
        return f"SparseVector({self.dimension}, {{{body}}})"

    def __getstate__(self):
        return (self.dimension, self._ordered())

    def __setstate__(self, state):
        object.__setattr__(self, "dimension", state[0])
        object.__setattr__(self, "_data", state[1])
        object.__setattr__(self, "_floor", None)
        object.__setattr__(self, "_sorted", True)


# The slots' own setters, which skip the attribute lookup of object.__setattr__;
# the package builds a vector per learner update.
_set_dimension, _set_data, _set_floor, _set_sorted = (
    SparseVector.__dict__[name].__set__ for name in SparseVector.__slots__)


def check_budget(B: int, dimension: int) -> int:
    """Validate a feature budget: 1 <= B <= dimension."""
    if not isinstance(B, int) or isinstance(B, bool):
        raise TypeError(f"budget must be an int, got {type(B).__name__}")
    if not 1 <= B <= dimension:
        raise ValueError(f"budget must satisfy 1 <= B <= {dimension}, got {B}")
    return B


def _check_field_types(config, ints: Sequence[str] = (), reals: Sequence[str] = ()) -> None:
    """Refuse a config's integer field that is not an int (or is a bool), and a bool
    real field, naming the field: a bool or a float would otherwise fail late or pass."""
    for name in ints:
        if type(getattr(config, name)) is not int:
            raise ValueError(f"{name} must be an int, got {getattr(config, name)!r}")
    for name in reals:
        if isinstance(getattr(config, name), bool):
            raise ValueError(f"{name} must be a real, got {getattr(config, name)!r}")


def dot(a: SparseVector, b: SparseVector) -> float:
    """Inner product over the shared support."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    if len(b._data) < len(a._data):
        a, b = b, a
    get = b._data.get
    total = 0.0
    for i, v in (a._data if a._sorted else a._ordered()).items():
        total += v * get(i, 0.0)
    return total


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def scale(w: SparseVector, s: float) -> SparseVector:
    """Return s*w."""
    _check_finite("s", s)
    if s == 1.0:
        return w
    # Rounding is monotone, so |s| times w's floor bounds the result's magnitudes.
    floor = abs(s) * _magnitude_floor(w) if abs(s) > 0.0 else None
    return SparseVector._trusted(
        w.dimension,
        {i: u for i, v in w._data.items() if abs(u := s * v) >= ZERO_EPS},
        floor,
        w._sorted,
    )


# -- construction from data the package built itself --------------------------

def _from_unsorted(dimension: int, out: dict[int, float]) -> SparseVector:
    """Wrap a dict of in-range int indices, in any order, whose values all have |v| >= ZERO_EPS."""
    return SparseVector._trusted(dimension, out, None, False)


def _from_ascending(dimension: int, indices: list[int], values: list[float]) -> SparseVector:
    """Wrap ascending, unique, in-range int indices and finite values, dropping
    |v| < ZERO_EPS as the constructor does; only the synthetic generator calls it."""
    data = {i: v for i, v in zip(indices, values) if abs(v) >= ZERO_EPS}
    return SparseVector._trusted(dimension, data)


def _cut(dimension: int, out: dict[int, float], B: int) -> SparseVector:
    """out cut to its B largest magnitudes, index-sorted; out may be in any order.

    Entries below ZERO_EPS are dropped and ties on magnitude keep the lower
    index, as truncate_reference in tests/dense_oracle.py states. When no tie
    straddles the B-th largest and it clears ZERO_EPS, the entries kept are
    exactly the B at or above it, and only their indices are sorted.
    """
    if len(out) > B:
        magnitudes = sorted(map(abs, out.values()), reverse=True)
        top = magnitudes[B - 1]
        if magnitudes[B] < top and top >= ZERO_EPS:
            kept = sorted([i for i, v in out.items() if v >= top or -v >= top])
            return SparseVector._trusted(dimension, {i: out[i] for i in kept}, top)
    data = {i: v for i in sorted(out) if abs(v := out[i]) >= ZERO_EPS}
    if len(data) > B:  # a tie straddles the cut: rank by (-|v|, index)
        keep = {i for i, _ in sorted(data.items(), key=lambda iv: (-abs(iv[1]), iv[0]))[:B]}
        data = {i: v for i, v in data.items() if i in keep}
    return SparseVector._trusted(dimension, data)


def _add_cut(
    base: SparseVector, coeff: float, x: SparseVector, B: int, sigma: dict[int, float],
    beta: float | None = None, lam: float | None = None,
) -> SparseVector:
    """c*(base + coeff*sigma*x), sigma 1.0 where unstored, cut to B entries as _cut cuts.

    c is 1 without lam. With lam it is min(1, 1/(sqrt(lam)*||sum||)), 1 for
    the zero sum, which scales the sum into the L2 ball of radius
    1/sqrt(lam), as project_l2_ball_reference in tests/dense_oracle.py
    states; the norm runs over the copy's sorted keys, once the writes
    below ZERO_EPS are dropped.

    One copy of base takes x's writes. A given beta shrinks each sigma_i they
    read to s - beta*s*s*v*v in the same loop; nothing else here mutates an
    argument. _cut_excess deletes the excess from the copy in place, and the
    result is c times what is left, in the copy's order, marked unsorted. A
    cut _cut_excess cannot make exactly, or a cut of most of the copy, is
    rebuilt by _cut from c times the copy: project, then truncate, which is
    exact because scaling by c <= 1 keeps the magnitudes in order. Without
    lam a cut of most of the copy is caught before the ZERO_EPS drop, which
    _cut makes itself.
    """
    if base.dimension != x.dimension:
        raise DimensionMismatchError(f"dimension mismatch: {base.dimension} vs {x.dimension}")
    out = base._data.copy()
    get, scale_of = out.get, sigma.get
    if beta is not None:
        for i, v in x._data.items():
            s = scale_of(i, 1.0)
            out[i] = get(i, 0.0) + coeff * s * v
            sigma[i] = s - beta * s * s * v * v
    elif sigma:
        for i, v in x._data.items():
            out[i] = get(i, 0.0) + coeff * scale_of(i, 1.0) * v
    else:  # first-order: sigma is 1.0 everywhere, and coeff * 1.0 == coeff
        for i, v in x._data.items():
            out[i] = get(i, 0.0) + coeff * v
    excess = len(out) - B
    if lam is None and 2 * excess > len(out):
        return _cut(base.dimension, out, B)
    floor = _magnitude_floor(base)
    below = []  # x's writes below the floor: an excess within them is cut from them alone
    for i in x._data:
        if (m := abs(out[i])) < ZERO_EPS:
            del out[i]  # _cut would drop it too
            excess -= 1
        elif m < floor:
            below.append((m, -i))
    c = 1.0
    if lam is not None:
        keys = sorted(out)
        sq = 0.0
        for v in map(out.__getitem__, keys):
            sq += v * v
        if sq:
            c = min(1.0, 1.0 / (math.sqrt(lam) * _root(sq, map(out.__getitem__, keys))))
    if 2 * excess > len(out) or (floor := _cut_excess(out, below, excess, floor, c)) is None:
        return _cut(base.dimension, {i: c * v for i, v in out.items()} if c < 1.0 else out, B)
    if c < 1.0:
        out, floor = {i: c * v for i, v in out.items()}, c * floor
    return SparseVector._trusted(base.dimension, out, floor, False)


def _cut_excess(
    out: dict[int, float], below: list[tuple[float, int]], excess: int, floor: float,
    c: float = 1.0,
) -> float | None:
    """Delete from out, in place, the entries that _cut would drop from c times out.

    excess is len(out) - B, 0 < c <= 1, and every magnitude in out is at
    least ZERO_EPS; the merge passes an empty below and floor 0.0.
    below lists (|v|, -i) for the entries of out strictly below floor, every
    other magnitude being at least floor. An excess that fits within below
    is deleted from it alone, sorted only when some of it stays. An excess
    past it deletes every entry below the B-th largest magnitude. Returns a
    lower bound on the magnitudes kept, or None, out untouched, when _cut
    must rebuild: a tie straddles the cut, or for c < 1 the dropped and kept
    magnitudes meet once scaled or the kept ones fall below ZERO_EPS. (With
    c = 1 a tie among below is ranked by index, as _cut ranks it.)
    """
    if excess > len(below):
        magnitudes = sorted(map(abs, out.values()))
        top, floor = magnitudes[excess - 1], magnitudes[excess]
        if not (c * top < c * floor and c * floor >= ZERO_EPS):
            return None
        for i in [i for i, v in out.items() if -floor < v < floor]:
            del out[i]
        return floor
    dropped = below
    if excess <= 0:
        dropped = ()
        if below:
            floor = min(below)[0]
    elif excess < len(below):  # some of below stays, and its smallest is the new floor
        below.sort()
        dropped, floor = below[:excess], below[excess][0]
    if c < 1.0 and not ((not dropped or c * max(dropped)[0] < c * floor) and c * floor >= ZERO_EPS):
        return None
    for _, negated in dropped:
        del out[-negated]
    return floor


def _root(sq: float, values: Iterable[float]) -> float:
    """sqrt(sq), sq being the sum of the squares of values; if it overflowed to inf,
    m*sqrt(sum((v/m)**2)) for m the largest magnitude, a finite norm."""
    if sq < math.inf:
        return math.sqrt(sq)
    values = list(values)
    m, sq = max(map(abs, values)), 0.0
    for v in values:
        sq += (v / m) * (v / m)
    return m * math.sqrt(sq)


def _magnitude_floor(w: SparseVector) -> float:
    """A lower bound on w's magnitudes (inf when w is empty), computed once."""
    floor = w._floor
    if floor is None:
        floor = min(map(abs, w._data.values()), default=math.inf)
        _set_floor(w, floor)
    return floor


def _overlay(
    vectors: Sequence[SparseVector],
) -> tuple[dict[int, float], list[KeysView[int]]]:
    """All the vectors' entries in one new dict, and each vector's index set.

    Where several vectors hold an index the last one's value wins, so a
    vector listed more than once is written only at its last position. The
    index sets are read-only views, one per position.
    """
    out: dict[int, float] = {}
    last = {id(w): k for k, w in enumerate(vectors)}
    for k in sorted(last.values()):
        out.update(vectors[k]._data)
    return out, [w._data.keys() for w in vectors]


def _restrict(w: SparseVector, keep) -> SparseVector:
    """The entries of w whose index is in keep, in w's order."""
    return SparseVector._trusted(
        w.dimension, {i: v for i, v in w._data.items() if i in keep}, None, w._sorted
    )
