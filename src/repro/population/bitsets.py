"""Packed-bitset audience index.

Every audience the simulated platforms ever need to size is a boolean
combination of per-attribute membership sets over a fixed population of
records.  Representing each membership set as a packed bit vector makes
intersection (logical-and of targeting options), union (logical-or
terms), and negation (exclusions) single vectorised ``numpy`` operations
followed by a popcount, which keeps even the paper's 80,000+ size
queries per platform cheap.

The two public types are:

:class:`BitVector`
    An immutable fixed-length bit vector with set-algebra operators and
    an exact popcount.
:class:`AudienceIndex`
    A registry mapping attribute identifiers to bit vectors, plus the
    demographic base vectors (per-gender, per-age) every audit query
    intersects with.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.population.demographics import (
    AGE_RANGES,
    GENDERS,
    AgeRange,
    Gender,
)

__all__ = ["BitVector", "AudienceIndex"]

_WORD_BITS = 64

#: ``np.bitwise_count`` landed in numpy 2.0; older numpys fall back to
#: unpacking words to bits and summing, which is ~8x more memory
#: traffic but bit-for-bit the same count.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Reusable AND scratch buffers keyed by word count, so the audit's
#: hottest query (intersect-then-popcount) allocates nothing per call.
#: Populations come in one or two sizes per process, so this never
#: holds more than a few arrays.
_AND_SCRATCH: Dict[int, np.ndarray] = {}


def _popcount_words(words: np.ndarray) -> int:
    """Total set bits of a 1-D uint64 word array."""
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(np.unpackbits(words.view(np.uint8)).sum())


def _popcount_rows(words: np.ndarray) -> list[int]:
    """Per-row set bits of a 2-D uint64 word array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64).tolist()
    bits = np.unpackbits(words.view(np.uint8).reshape(words.shape[0], -1), axis=1)
    return bits.sum(axis=1, dtype=np.int64).tolist()


def _n_words(n_bits: int) -> int:
    return (n_bits + _WORD_BITS - 1) // _WORD_BITS


def _tail_mask(n_bits: int) -> np.uint64:
    """Mask selecting the valid bits of the final word."""
    used = n_bits % _WORD_BITS
    if used == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << used) - 1)


class BitVector:
    """An immutable bit vector over a fixed number of records.

    Bits are packed little-endian into ``uint64`` words.  All operators
    return new vectors; instances are safe to share and hash by
    identity.  Operations between vectors of different lengths raise
    :class:`ValueError` -- mixing populations is always a bug.
    """

    __slots__ = ("_words", "_n", "_count")

    def __init__(self, words: np.ndarray, n: int, _count: int | None = None):
        if words.dtype != np.uint64:
            raise TypeError(f"expected uint64 words, got {words.dtype}")
        if words.shape != (_n_words(n),):
            raise ValueError(
                f"word array has shape {words.shape}, expected ({_n_words(n)},)"
            )
        self._words = words
        self._n = n
        self._count = _count

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(
        cls, words: np.ndarray, n: int, count: int | None = None
    ) -> "BitVector":
        """Wrap trusted words without re-validating shape or dtype.

        Internal fast path for operator results, whose word arrays are
        correct by construction; set-algebra ops sit on the audit's
        hottest path.
        """
        vec = object.__new__(cls)
        vec._words = words
        vec._n = n
        vec._count = count
        return vec

    @classmethod
    def from_bool(cls, mask: np.ndarray) -> "BitVector":
        """Pack a boolean array into a bit vector."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("mask must be one-dimensional")
        n = mask.shape[0]
        packed = np.packbits(mask, bitorder="little")
        buf = np.zeros(_n_words(n) * 8, dtype=np.uint8)
        buf[: packed.shape[0]] = packed
        return cls(buf.view(np.uint64), n)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "BitVector":
        """Build a vector with the given record indices set."""
        mask = np.zeros(n, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise IndexError("record index out of range")
            mask[idx] = True
        return cls.from_bool(mask)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        """The empty audience over ``n`` records."""
        return cls(np.zeros(_n_words(n), dtype=np.uint64), n, _count=0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        """The full audience over ``n`` records."""
        words = np.full(_n_words(n), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        if words.size:
            words[-1] = words[-1] & _tail_mask(n)
        return cls(words, n, _count=n)

    # -- basic properties ----------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_records(self) -> int:
        """Number of records (bits) the vector spans."""
        return self._n

    @property
    def words(self) -> np.ndarray:
        """Read-only view of the packed little-endian uint64 words."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    def count(self) -> int:
        """Exact number of set bits (audience size in records)."""
        if self._count is None:
            self._count = _popcount_words(self._words)
        return self._count

    def to_bool(self) -> np.ndarray:
        """Unpack into a boolean array of length ``n_records``."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self._n].astype(bool)

    def __getitem__(self, i: int) -> bool:
        if not 0 <= i < self._n:
            raise IndexError(i)
        word = self._words[i // _WORD_BITS]
        return bool((int(word) >> (i % _WORD_BITS)) & 1)

    # -- set algebra -----------------------------------------------------

    def _check_compatible(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if other._n != self._n:
            raise ValueError(
                f"bit vectors span different populations ({self._n} vs {other._n})"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector._raw(self._words & other._words, self._n)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector._raw(self._words | other._words, self._n)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector._raw(self._words ^ other._words, self._n)

    def __invert__(self) -> "BitVector":
        words = ~self._words
        if words.size:
            words[-1] = words[-1] & _tail_mask(self._n)
        count = None if self._count is None else self._n - self._count
        return BitVector._raw(words, self._n, count)

    def difference(self, other: "BitVector") -> "BitVector":
        """Records in ``self`` but not ``other``."""
        self._check_compatible(other)
        return BitVector._raw(self._words & ~other._words, self._n)

    def intersect_count(self, other: "BitVector") -> int:
        """Popcount of the intersection without materialising it.

        One fused pass through a persistent scratch buffer: the AND
        lands in the scratch, the popcount overwrites it in place, so
        the hottest audit query performs zero full-width allocations.
        """
        self._check_compatible(other)
        words = self._words
        scratch = _AND_SCRATCH.get(words.shape[0])
        if scratch is None:
            scratch = _AND_SCRATCH[words.shape[0]] = np.empty_like(words)
        np.bitwise_and(words, other._words, out=scratch)
        if _HAS_BITWISE_COUNT:
            np.bitwise_count(scratch, out=scratch)
            return int(scratch.sum())
        return int(np.unpackbits(scratch.view(np.uint8)).sum())

    def jaccard(self, other: "BitVector") -> float:
        """Jaccard similarity; 0.0 when both vectors are empty."""
        self._check_compatible(other)
        inter = self.intersect_count(other)
        union = self.count() + other.count() - inter
        return inter / union if union else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._n == other._n and bool(np.array_equal(self._words, other._words))

    def __hash__(self) -> int:
        return hash((self._n, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector(n={self._n}, count={self.count()})"


def intersect_all(vectors: Iterable[BitVector]) -> BitVector:
    """Intersection of a non-empty iterable of bit vectors."""
    it = iter(vectors)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("intersect_all requires at least one vector") from None
    for vec in it:
        acc = acc & vec
    return acc


def intersect_counts(
    vectors: Sequence[BitVector], mask: BitVector | None = None
) -> list[int]:
    """Popcounts of ``v & mask`` for many same-length vectors at once.

    Stacks the word arrays and popcounts in one vectorised 2-D pass.
    Batch endpoints size dozens of audiences per request; counting them
    one by one would pay numpy dispatch overhead per audience, which
    dominates at typical population sizes.
    """
    if not vectors:
        return []
    if len(vectors) == 1:
        v = vectors[0]
        return [v.count() if mask is None else v.intersect_count(mask)]
    words = np.stack([v._words for v in vectors])
    if mask is not None:
        vectors[0]._check_compatible(mask)
        words &= mask._words
    return _popcount_rows(words)


def union_all(vectors: Iterable[BitVector]) -> BitVector:
    """Union of a non-empty iterable of bit vectors."""
    it = iter(vectors)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("union_all requires at least one vector") from None
    for vec in it:
        acc = acc | vec
    return acc


class AudienceIndex:
    """Registry of attribute membership vectors over one population.

    Platforms resolve targeting specs against this index: attribute
    identifiers map to membership :class:`BitVector` s, and the
    demographic base vectors (all records, per-gender, per-age) are
    precomputed so the audit's ``|TA AND RA_s|`` queries are two ANDs
    and a popcount.
    """

    def __init__(
        self,
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
    ):
        gender_codes = np.asarray(gender_codes)
        age_codes = np.asarray(age_codes)
        if gender_codes.shape != age_codes.shape or gender_codes.ndim != 1:
            raise ValueError("gender and age code arrays must be 1-D and equal length")
        self._n = int(gender_codes.shape[0])
        self._attrs: Dict[str, BitVector] = {}
        self._counts: Dict[str, int] | None = None
        self._all = BitVector.ones(self._n)
        self._gender = {
            g: BitVector.from_bool(gender_codes == int(g)) for g in GENDERS
        }
        self._age = {a: BitVector.from_bool(age_codes == int(a)) for a in AGE_RANGES}

    # -- registration ----------------------------------------------------

    def add_attribute(self, attr_id: str, members: BitVector | np.ndarray) -> None:
        """Register an attribute's membership vector.

        Re-registering an existing identifier raises: attribute
        membership is immutable once published to advertisers.
        """
        if attr_id in self._attrs:
            raise KeyError(f"attribute {attr_id!r} already registered")
        if not isinstance(members, BitVector):
            members = BitVector.from_bool(members)
        if members.n_records != self._n:
            raise ValueError("membership vector spans a different population")
        self._attrs[attr_id] = members
        self._counts = None

    # -- lookups ----------------------------------------------------------

    @property
    def n_records(self) -> int:
        """Number of population records indexed."""
        return self._n

    @property
    def everyone(self) -> BitVector:
        """The full population."""
        return self._all

    def attribute(self, attr_id: str) -> BitVector:
        """Membership vector for an attribute id (KeyError if unknown)."""
        return self._attrs[attr_id]

    def __contains__(self, attr_id: str) -> bool:
        return attr_id in self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def gender(self, gender: Gender) -> BitVector:
        """Membership vector of a gender value."""
        return self._gender[gender]

    def age(self, age: AgeRange) -> BitVector:
        """Membership vector of an age range."""
        return self._age[age]

    def demographic(self, value: Gender | AgeRange) -> BitVector:
        """Membership vector for either kind of sensitive value."""
        if isinstance(value, Gender):
            return self.gender(value)
        if isinstance(value, AgeRange):
            return self.age(value)
        raise TypeError(f"not a sensitive value: {value!r}")

    def attribute_counts(self) -> Mapping[str, int]:
        """Exact membership counts of every registered attribute.

        Popcounts are computed once per registration epoch; callers get
        a fresh copy of the cached mapping.
        """
        if self._counts is None:
            self._counts = {
                attr_id: vec.count() for attr_id, vec in self._attrs.items()
            }
        return dict(self._counts)
