"""Finite-snapshot probabilities.

A snapshot is a finite, duplicate-free, canonically ordered set of
states.  Event probabilities at a snapshot are exact rationals obtained
by counting: the fraction of states whose outcome under a variable
lands in a class.  No floating point enters anywhere; values are
`fractions.Fraction` throughout, which keeps them reduced with positive
denominators for free.  A snapshot also numbers its states, so that
each subset of them is an int mask and each count a bit count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import EmptySnapshot
from .universe import ClassSpec, RandomVariable, SetValue, canonical


class Snapshot:
    """An immutable finite set of states in canonical order.

    Bit i of a mask stands for `states[i]`, so a subset of the states is
    one int, its size is `mask.bit_count()`, and the count of a class in
    it is `(mask & self.mask(cls)).bit_count()`.  Each (variable, class)
    membership mask is computed once per snapshot, keyed by the two
    objects, and then reused.  The cache slots (`_bits`,
    `_masks`, `_read`) stay unset until first use, so building a snapshot
    that is only counted costs nothing for them.

    The snapshot records every mask it hands out (`bit`, `where`,
    `mask`), and `atoms` splits the states into the classes that no
    recorded mask tells apart.  Invariant: the closures compiled over a
    snapshot (`germs.compile_germ`, `filters.constraint_mask_test`) and
    the count forms taken over it (`filters.constraint_count_form`) read
    a subset mask m only as `m & X` for a recorded X, which is a union
    of atoms, and as `m.bit_count()`; a closure that needs the subset's
    states by position first takes the bit of every state, which makes
    each state its own atom.  So two subsets with equally many states in
    each atom get the same value from every such closure (the same
    unreduced (numerator, denominator) int pair from a compiled germ, the
    same bool from a mask test), error texts aside, and
    `filters.admissible_vectors` lists one of them for all.
    """

    __slots__ = ("states", "_codes", "_bits", "_masks", "_read")

    def __init__(self, states: Iterable[SetValue]):
        ordered = canonical(states)
        object.__setattr__(self, "states", ordered)
        object.__setattr__(self, "_codes", frozenset([s.code for s in ordered]))

    def __setattr__(self, name, value):
        raise AttributeError("Snapshot is immutable")

    def __reduce__(self):
        # rebuilt from the states; the mask caches start empty
        return (Snapshot, (self.states,))

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[SetValue]:
        return iter(self.states)

    def __contains__(self, value: SetValue) -> bool:
        return value.code in self._codes

    def __eq__(self, other):
        return isinstance(other, Snapshot) and self._codes == other._codes

    def __hash__(self):
        return hash(self._codes)

    def __repr__(self):
        return self.describe(self.full)

    def intersect(self, values: Iterable[SetValue]) -> "Snapshot":
        keep = {v.code for v in values}
        return Snapshot(s for s in self.states if s.code in keep)

    def count(self, cls: ClassSpec) -> int:
        return sum(1 for s in self.states if cls.membership(s))

    @property
    def full(self) -> int:
        """The mask of all the states."""
        return (1 << len(self.states)) - 1

    def _record(self, m: int) -> int:
        """Note m among the masks handed out, and return it."""
        try:
            self._read.add(m)
        except AttributeError:
            object.__setattr__(self, "_read", {m})
        return m

    def bit(self, x: SetValue) -> int:
        """The bit of x, or 0 when x is not one of the states."""
        try:
            bits = self._bits
        except AttributeError:
            bits = {s.code: 1 << i for i, s in enumerate(self.states)}
            object.__setattr__(self, "_bits", bits)
        return self._record(bits.get(x.code, 0))

    def where(self, pred: Callable[[SetValue], bool],
              rv: RandomVariable | None = None) -> int:
        """Mask of the states s with pred(s), or pred(rv(s)) given rv."""
        m, bit = 0, 1
        for s in self.states:
            if pred(s if rv is None else rv(s)):
                m |= bit
            bit <<= 1
        return self._record(m)

    def mask(self, cls: ClassSpec, rv: RandomVariable | None = None) -> int:
        """Mask of the states whose outcome under rv (the state itself
        when rv is None) lies in cls, cached under the objects rv and cls:
        two classes that share a name keep their own masks."""
        try:
            masks = self._masks
        except AttributeError:
            masks = {}
            object.__setattr__(self, "_masks", masks)
        hit = masks.get((rv, cls))
        if hit is None:
            hit = masks[rv, cls] = self.where(cls.membership, rv)
        return hit

    def atoms(self) -> list[int]:
        """The atoms of the recorded masks, as masks: the nonempty sets
        of states that every recorded mask either contains or misses.
        They partition the states; with no mask recorded, all states
        form one atom."""
        atoms = [self.full] if self.states else []
        for x in getattr(self, "_read", ()):
            atoms = [part for a in atoms for part in (a & x, a & ~x) if part]
        return atoms

    def subset(self, mask: int) -> tuple[SetValue, ...]:
        """The states a mask selects, in canonical order."""
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    def describe(self, mask: int) -> str:
        """The text `repr` gives the Snapshot of the states a mask selects."""
        inner = ",".join(s.pretty() for s in self.subset(mask))
        return f"Snapshot{{{inner}}}"


def snapshot(*states: SetValue) -> Snapshot:
    return Snapshot(states)


def snapshot_prob(rv: RandomVariable, cls: ClassSpec, t: Snapshot) -> Fraction:
    """Fraction of states in `t` whose outcome under `rv` lies in `cls`."""
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    hits = sum(1 for s in t if cls.membership(rv(s)))
    return Fraction(hits, len(t))
