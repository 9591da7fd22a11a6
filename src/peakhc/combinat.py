"""Compositions, descent/peak/valley sets, and symmetric-group utilities.

Conventions used throughout the package:

* A composition of n is a tuple of positive integers summing to n; its
  descent set is the set of proper partial sums, a subset of [n-1] = {1..n-1}.
  The map composition -> descent set is a bijection onto subsets of [n-1].
* A peak set in [n] is a subset of [2, n-1] containing no two consecutive
  integers.
* A descent set is a ``frozenset`` of integers in [n-1]; ``Composition``
  and ``composition_from_descents`` convert between the two.
* A permutation of [n] is its 1-based one-line word, a tuple handled by the
  ``word_*`` helpers; ``word_compose(u, v)`` composes as functions (apply v
  first).  Left multiplication by the transposition s_i swaps the values
  i, i+1; right multiplication swaps positions i, i+1.

Canonical enumeration orders (fixed so downstream matrices are reproducible):
compositions of n and peak sets in [n] are listed by increasing bitmask of
the underlying subset (bit i-1 encodes membership of i); permutation lists
are lexicographic in one-line notation unless stated otherwise.

Codes: ``Composition.code`` sets bit s-1 for every partial sum s, n
included, so it is the descent bitmask plus the top bit 1 << (n-1);
``PeakSet.code`` is the peak bitmask plus 1 << (n-1).  Both are 0 in degree
0.  A code determines its object, its degree is ``code.bit_length()``, and
int order on codes is the canonical order (degree, then bitmask).  Hashing,
equality and ``<`` read the code, computed once at construction.

Doctest samples:

>>> [c.parts for c in compositions_of(3)]
[(3,), (1, 2), (2, 1), (1, 1, 1)]
>>> Composition((1, 2, 1)).descent_set() == frozenset({1, 3})
True
>>> composition_from_descents(4, {1, 3}).parts, word_peaks((1, 3, 2, 4))
((1, 2, 1), frozenset({2}))
>>> sorted(Composition((2, 2)).peak_set().elements), sorted(Composition((2, 2)).valley_set())
([2], [1, 3])
>>> bin(Composition((1, 2, 1)).code), bin(Composition((2, 2)).peak_set().code)
('0b1101', '0b1010')
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "ResourceLimitError",
    "Composition",
    "PeakSet",
    "as_composition",
    "compositions_of",
    "composition_from_descents",
    "peak_sets_in",
    "peak_sets_within",
    "descent_class",
    "symmetric_difference_shift",
    "min_coset_reps",
    "partitions_of",
    "strict_partitions_of",
    "MAX_ENUM_N",
    "MAX_PEAK_SETS",
]

MAX_ENUM_N = 10  # permutation-level enumeration guard
MAX_PEAK_SETS = 100000  # peak sets listed by one call of peak_sets_within


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the configured desk-scale guards.

    ``guard`` is the name of the bound that stopped it, and the message
    ends with that name in parentheses."""

    def __init__(self, message: str, guard: str):
        super().__init__("%s (%s)" % (message, guard))
        self.guard = guard


def _int_tuple(values, what: str) -> tuple:
    """``values`` as a tuple of ``int``; a float, str or bool raises
    TypeError instead of being converted."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise TypeError("%s must be int: %r" % (what, values))
    return values


# ---------------------------------------------------------------------------
# compositions and their statistics
# ---------------------------------------------------------------------------


def _int_size(n, what: str) -> None:
    """Raise TypeError unless the ambient size ``n`` is an ``int`` (a bool
    is not), and ValueError when it is negative."""
    if type(n) is not int:
        raise TypeError("%s size n must be int: %r" % (what, n))
    if n < 0:
        raise ValueError("%s size n must be nonnegative: %d" % (what, n))


def _composition_code(parts) -> tuple:
    """``(parts, code)`` of the composition with these parts: the parts as
    a tuple of ``int`` and the code (see the module docstring).  Raises
    TypeError for a part that is not an ``int``, ValueError for one below 1."""
    parts = tuple(parts)
    code = total = 0
    for p in parts:
        if type(p) is not int:
            raise TypeError("composition parts must be int: %r" % (parts,))
        if p < 1:
            raise ValueError("composition parts must be positive: %r" % (parts,))
        total += p
        code |= 1 << (total - 1)
    return parts, code


@dataclass(frozen=True, eq=False)
class Composition:
    """Ordered tuple of positive integers; the empty composition is the unit.

    ``code`` has bit s-1 set for every partial sum s (see the module
    docstring); hashing, equality and order read it.
    """

    parts: tuple

    def __post_init__(self):
        parts, code = _composition_code(self.parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "code", code)

    def __hash__(self):
        return self.code

    def __eq__(self, other):
        if other.__class__ is not Composition:
            return NotImplemented
        return self.code == other.code

    @property
    def n(self) -> int:
        return self.code.bit_length()

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def descent_set(self) -> frozenset:
        return frozenset(itertools.accumulate(self.parts[:-1]))

    def peak_set(self) -> "PeakSet":
        n, d = self.n, self.descent_set()
        return PeakSet(n, frozenset(x for x in range(2, n) if x - 1 not in d and x in d))

    def valley_set(self) -> frozenset:
        n, d = self.n, self.descent_set()
        v = {x for x in range(2, n + 1) if x - 1 in d and x not in d}
        if 1 not in d:
            v.add(1)
        return frozenset(v)

    def reverse(self) -> "Composition":
        return Composition(self.parts[::-1])

    def complement(self) -> "Composition":
        return composition_from_descents(
            self.n, frozenset(range(1, self.n)) - self.descent_set()
        )

    def conjugate(self) -> "Composition":
        return self.reverse().complement()

    def to_partition(self) -> tuple:
        return tuple(sorted(self.parts, reverse=True))

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __repr__(self):
        return "Composition(%s)" % (", ".join(str(p) for p in self.parts))

    def __lt__(self, other):
        # canonical order: degree, then descent-set bitmask
        if other.__class__ is not Composition:
            return NotImplemented
        return self.code < other.code


def as_composition(alpha) -> Composition:
    if isinstance(alpha, Composition):
        return alpha
    return Composition(tuple(alpha))


@dataclass(frozen=True, eq=False)
class PeakSet:
    """A sparse subset of [2, n-1]: no two consecutive members.

    ``code`` is the bitmask plus the top bit 1 << (n-1), and 0 when n = 0;
    hashing, equality and order read it.
    """

    n: int
    elements: frozenset

    def __post_init__(self):
        _int_size(self.n, "peak set")
        elems = frozenset(_int_tuple(self.elements, "peak set entries"))
        if any(not 2 <= x <= self.n - 1 for x in elems):
            raise ValueError("peak set %r not inside [2, %d-1]" % (sorted(elems), self.n))
        if any(x - 1 in elems for x in elems):
            raise ValueError("peak set %r contains consecutive entries" % sorted(elems))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "code", self.bitmask() | 1 << (self.n - 1) if self.n else 0)

    def __hash__(self):
        return self.code

    def __eq__(self, other):
        if other.__class__ is not PeakSet:
            return NotImplemented
        return self.code == other.code

    def bitmask(self) -> int:
        return sum(1 << (x - 1) for x in self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "PeakSet(%d, %s)" % (self.n, sorted(self.elements))

    def __lt__(self, other):
        if other.__class__ is not PeakSet:
            return NotImplemented
        return self.code < other.code


def compositions_of(n: int) -> list:
    """All 2^(n-1) compositions of n >= 1, ordered by descent-set bitmask."""
    if n < 1:
        raise ValueError("compositions_of needs n >= 1; degree 0 is the unit ()")
    return list(_compositions_of(n))


@lru_cache(maxsize=None)
def _compositions_of(n: int) -> tuple:
    out = []
    for mask in range(1 << (n - 1)):
        d = [i + 1 for i in range(n - 1) if mask >> i & 1]
        out.append(composition_from_descents(n, d))
    return tuple(out)


def composition_from_descents(n: int, descents) -> Composition:
    """The composition of n whose descent set is ``descents``.  Raises
    TypeError for a size n or an entry that is not an ``int``, ValueError
    for a negative n or an entry outside [n-1]."""
    _int_size(n, "descent set")
    descents = sorted(set(_int_tuple(descents, "descent set entries")))
    if any(not 1 <= x <= n - 1 for x in descents):
        raise ValueError("descent set %r not inside [%d-1]" % (descents, n))
    if n == 0:
        return Composition(())
    prev, parts = 0, []
    for x in descents + [n]:
        parts.append(x - prev)
        prev = x
    return Composition(tuple(parts))


def peak_sets_in(n: int) -> list:
    """All peak sets in [n], ordered by bitmask; counts follow Fibonacci."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_peak_sets_in(n))


@lru_cache(maxsize=None)
def _peak_sets_in(n: int) -> tuple:
    return tuple(peak_sets_within(n, range(2, n)))


def peak_sets_within(n: int, window) -> list:
    """The peak sets in [n] whose entries lie in ``window``, ordered by
    bitmask and built directly, with no walk over all subsets.

    For the sorted members x_1 < x_2 < ... of ``window`` inside [2, n-1],
    the sparse subsets of x_1..x_k are those of x_1..x_{k-1}, then each
    sparse subset of the members below x_k - 1 with x_k added; every set of
    the second kind has the larger bitmask, so the order is kept.  The
    count is read first, by the same recursion, and one past
    ``MAX_PEAK_SETS`` raises ``ResourceLimitError`` before anything is
    built.
    """
    members = sorted(x for x in set(window) if 2 <= x <= n - 1)
    # below[k]: the number of members before x_{k+1} that x_{k+1} may join
    below = [k - 1 if k and members[k - 1] == x - 1 else k for k, x in enumerate(members)]
    counts = [1]
    for k, j in enumerate(below):
        counts.append(counts[k] + counts[j])
    if counts[-1] > MAX_PEAK_SETS:
        raise ResourceLimitError(
            "%d peak sets in [%d] exceed the guard %d" % (counts[-1], n, MAX_PEAK_SETS),
            "MAX_PEAK_SETS",
        )
    masks = [[0]]
    for k, j in enumerate(below):
        bit = 1 << (members[k] - 1)
        masks.append(masks[k] + [m | bit for m in masks[j]])
    return [
        PeakSet(n, frozenset(x for x in members if m >> (x - 1) & 1)) for m in masks[-1]
    ]


def symmetric_difference_shift(d: frozenset) -> frozenset:
    """D symmetric-difference (D+1), a subset of [n] for D inside [n-1]."""
    return d ^ frozenset(x + 1 for x in d)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def word_inverse(w: tuple) -> tuple:
    inv = [0] * len(w)
    for pos, val in enumerate(w):
        inv[val - 1] = pos + 1
    return tuple(inv)


def word_compose(u: tuple, v: tuple) -> tuple:
    """(u o v)(j) = u(v(j))."""
    return tuple(u[x - 1] for x in v)


def word_descents(w: tuple) -> frozenset:
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def word_peaks(w: tuple) -> frozenset:
    """The positions 2 <= i <= n-1 with w(i-1) < w(i) > w(i+1)."""
    return frozenset(i for i in range(2, len(w)) if w[i - 2] < w[i - 1] > w[i])


def word_length(w: tuple) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def swap_values(i: int, w: tuple) -> tuple:
    """Left multiplication by s_i: exchange the values i and i+1."""
    lst = list(w)
    lst[w.index(i)], lst[w.index(i + 1)] = i + 1, i
    return tuple(lst)


def swap_positions(i: int, w: tuple) -> tuple:
    """Right multiplication by s_i: exchange positions i and i+1."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def word_reduced(w: tuple) -> tuple:
    """Reduced word by repeatedly stripping the smallest descent.

    If the result is (j_1, ..., j_s) then w = s_{j_1} ... s_{j_s} and s equals
    the inversion number.  Any other reduced word yields the same T_w.
    """
    letters = []
    cur = w
    while True:
        d = word_descents(cur)
        if not d:
            break
        i = min(d)
        cur = swap_positions(i, cur)
        letters.append(i)
    return tuple(reversed(letters))


def _check_enum_guard(n: int) -> None:
    if n > MAX_ENUM_N:
        raise ResourceLimitError(
            "symmetric group enumeration for n=%d exceeds the guard %d" % (n, MAX_ENUM_N),
            "MAX_ENUM_N",
        )


def descent_class(alpha) -> list:
    """The one-line words whose descent set equals that of the composition,
    in lexicographic order."""
    a = as_composition(alpha)
    _check_enum_guard(a.n)
    target = a.descent_set()
    return [
        w for w in itertools.permutations(range(1, a.n + 1)) if word_descents(w) == target
    ]


def min_coset_reps(m: int, n: int) -> list:
    """Minimal-length representatives x of the left cosets x S_(m,n) in S_(m+n).

    These are the binomial(m+n, m) permutations with descent set inside {m}:
    both blocks of positions appear in increasing order.  One-line words in
    lexicographic order, which is the order of their first m values.
    """
    total = m + n
    _check_enum_guard(total)
    return [
        first + tuple(v for v in range(1, total + 1) if v not in first)
        for first in itertools.combinations(range(1, total + 1), m)
    ]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions_of(n: int, max_part: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list:
    """Weakly decreasing tuples summing to n (n = 0 gives the empty one)."""
    return list(_partitions_of(n, n if n else 1))


def strict_partitions_of(n: int) -> list:
    return [p for p in partitions_of(n) if all(p[i] > p[i + 1] for i in range(len(p) - 1))]
