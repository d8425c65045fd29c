"""Desk-scale set-theoretic universe.

Provides the value space (hereditarily finite sets, ordinals below a
small multiple of omega, and non-ordinal padding states), class
specifications with declared cardinality tiers, and random variables
over the universe.  Every value is one of those three kinds, so whether
a value belongs to a class is read from the value itself.

Values are immutable and carry a canonical code; equality, hashing and
snapshot ordering all reduce to code comparison, so two values are equal
iff their codes are byte-identical.  Cardinality tiers are declared
metadata, not computed: a class backed by a small enumerator may still
be declared infinite, which is how the desk model simulates cardinality
hypotheses between classes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import BoundTooSmall, EnumerationExhausted, WrongMode

HF_MODE = "hf"
ORDINAL_MODE = "ordinal"

KIND_ORD = "ord"
KIND_PAD = "pad"
KIND_SET = "set"

# Number of enumerator elements scanned before concluding that a
# supposedly inexhaustible stream cannot deliver.
ENUM_SCAN_CAP = 20000

# Values each interning table keeps: the ordinals of `ord_value`, the pads
# of `pad` and the parsed codes of `parse_code` (least recently used first
# out), and the sets of `hf_set` (emptied when full).  As many as one
# handle's prefix memo (PREFIX_MEMO_CAP) holds.  A repeated value is the
# object built before, so sets and dicts of states find it by identity,
# without calling `SetValue.__eq__`; an evicted value is rebuilt and still
# equals its twin, since equality goes by code.
INTERN_CAP = 4096

# Items a walk's memo (`Memo`) keeps once they are touched: the universe
# enumeration, the pads and each class's distinct members.  As many as the
# largest candidate pool any caller asks for (germs._dilution_pins).
PREFIX_MEMO_CAP = 4096


@functools.total_ordering
class SetValue:
    """A universe element with a canonical, byte-comparable code."""

    __slots__ = ("kind", "data", "code", "_key", "_hash")

    def __init__(self, kind: str, data: tuple, code: str, key: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(code))

    def __setattr__(self, name, value):
        raise AttributeError("SetValue is immutable")

    def __reduce__(self):
        # a copy or pickle is parsed from the code: the interned value
        return (parse_code, (self.code,))

    def __eq__(self, other):
        return isinstance(other, SetValue) and self.code == other.code

    def __hash__(self):
        return self._hash  # hash(self.code), taken once

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"SetValue({self.pretty()})"

    # -- kind probes ---------------------------------------------------

    @property
    def is_ordinal(self) -> bool:
        return self.kind == KIND_ORD

    @property
    def is_pad(self) -> bool:
        return self.kind == KIND_PAD

    @property
    def is_set(self) -> bool:
        return self.kind == KIND_SET

    @property
    def ord_parts(self) -> tuple[int, int]:
        """(a, b) for the ordinal w*a + b."""
        if self.kind != KIND_ORD:
            raise WrongMode(f"not an ordinal: {self.pretty()}")
        return self.data

    @property
    def children(self) -> tuple["SetValue", ...]:
        if not self.is_set:
            raise WrongMode(f"not an extensional set: {self.pretty()}")
        return self.data

    def pretty(self) -> str:
        """Human-oriented rendering; codes stay canonical for machines."""
        if self.is_ordinal:
            a, b = self.data
            if a == 0:
                return str(b)
            head = "w" if a == 1 else f"w{a}"
            return head if b == 0 else f"{head}+{b}"
        if self.is_pad:
            return f"#{self.data[0]}"
        return "{" + ",".join(c.pretty() for c in self.children) + "}"


@functools.lru_cache(maxsize=INTERN_CAP)
def ord_value(a: int, b: int) -> SetValue:
    """The ordinal w*a + b as a pair code, interned (`INTERN_CAP`)."""
    if a < 0 or b < 0:
        raise ValueError("ordinal parts must be non-negative")
    code = f"o{a}.{b}"
    return SetValue(KIND_ORD, (a, b), code, (0, a, b))


def nat(b: int) -> SetValue:
    """The finite ordinal b."""
    return ord_value(0, b)


@functools.lru_cache(maxsize=INTERN_CAP)
def pad(k: int) -> SetValue:
    """The k-th non-ordinal padding state of an ordinal-mode universe,
    interned (`INTERN_CAP`)."""
    if k < 0:
        raise ValueError("pad index must be non-negative")
    return SetValue(KIND_PAD, (k,), f"p{k}", (1, k))


_by_key = operator.attrgetter("_key")


def canonical(values: Iterable[SetValue]) -> tuple[SetValue, ...]:
    """The distinct values among `values` (one per code), in canonical
    order: the order of a set's children and of a snapshot's states."""
    return tuple(sorted({v.code: v for v in values}.values(), key=_by_key))


# The sets `hf_set` has built, by canonical code (at most INTERN_CAP).  A
# full table is emptied whole: unlike dropping its oldest entry, that is
# one atomic step, so threads sharing the table need no lock.
_SETS: dict[str, SetValue] = {}


def hf_set(children: Iterable[SetValue]) -> SetValue:
    """An extensional finite set; children are deduplicated and sorted.
    Interned by canonical code (`INTERN_CAP`)."""
    kids = canonical(children)
    code = "{" + ",".join(c.code for c in kids) + "}"
    got = _SETS.get(code)
    if got is None:
        if len(_SETS) >= INTERN_CAP:
            _SETS.clear()
        key = (2, len(kids), tuple(c._key for c in kids))
        got = _SETS.setdefault(code, SetValue(KIND_SET, kids, code, key))
    return got


EMPTY_SET = hf_set(())


# ---------------------------------------------------------------------------
# Canonical code parsing

# Characters of an outside text an error message quotes before cutting it.
EXCERPT_CHARS = 40


def excerpt(text: object) -> str:
    """repr(text) for an error message; a longer string is cut to its
    first EXCERPT_CHARS characters and followed by its length."""
    if isinstance(text, str) and len(text) > EXCERPT_CHARS:
        return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"
    return repr(text)


# An integer field: the characters up to the ',' or '}' that ends it.
_FIELD = re.compile(r"[^,}]*")


def _int_at(text: str, start: int, end: int) -> int:
    """text[start:end] as a plain ASCII decimal: no sign, space or leading zero."""
    digits = text[start:end]
    if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
        try:
            return int(digits)
        except ValueError:  # more digits than int() may convert
            pass
    raise ValueError(f"bad code at {start}: {excerpt(digits)} is not a plain integer")


def _parse_at(text: str, i: int) -> tuple[SetValue, int]:
    """The value whose code starts at text[i], and the index just past it."""
    head = text[i:i + 1]
    if head == "o":
        dot = text.find(".", i + 1)
        if dot < 0:
            dot = len(text)
        a = _int_at(text, i + 1, dot)
        if dot == len(text):
            raise ValueError(f"bad code at {dot}: expected '.'")
        end = _FIELD.match(text, dot + 1).end()
        return ord_value(a, _int_at(text, dot + 1, end)), end
    if head == "p":
        end = _FIELD.match(text, i + 1).end()
        return pad(_int_at(text, i + 1, end)), end
    if head == "{":
        kids = []
        j = i + 1
        if text[j:j + 1] != "}":
            kid, j = _parse_at(text, j)
            kids.append(kid)
            while text[j:j + 1] == ",":
                kid, j = _parse_at(text, j + 1)
                kids.append(kid)
        if text[j:j + 1] != "}":
            raise ValueError(f"bad code at {j}: expected '}}'")
        j += 1
        # a canonical code finds its set without sorting the children
        got = _SETS.get(text[i:j])
        return (got if got is not None else hf_set(kids)), j
    raise ValueError(f"bad code at {i}: {excerpt(text)}")


@functools.lru_cache(maxsize=INTERN_CAP)
def parse_code(code: str) -> SetValue:
    """Inverse of the canonical encoding: parse_code(x.code) == x.
    Interned (`INTERN_CAP`); a code that fails is parsed again each time."""
    value, end = _parse_at(code, 0)
    if end != len(code):
        raise ValueError(f"trailing garbage in code: {excerpt(code)}")
    return value


# ---------------------------------------------------------------------------
# Rank


# Ranks by code (at most INTERN_CAP), emptied whole when full as `_SETS` is.
_RANK_CACHE: dict[str, int] = {}


def rank(x: SetValue) -> int:
    """Von Neumann rank of a hereditarily finite value.

    Only extensional set values have a rank here; ordinal and padding
    codes refuse with WrongMode.  Ranks are cached by code.
    """
    got = _RANK_CACHE.get(x.code)
    if got is not None:
        return got
    if not x.is_set:
        raise WrongMode(f"rank undefined for {x.pretty()}")
    r = 0 if not x.children else 1 + max(rank(c) for c in x.children)
    if len(_RANK_CACHE) >= INTERN_CAP:
        _RANK_CACHE.clear()
    _RANK_CACHE[x.code] = r
    return r


# ---------------------------------------------------------------------------
# Cardinality tiers


@functools.total_ordering
@dataclass(frozen=True)
class CardinalityTier:
    """Declared size category: Finite(n) < Tier(k) < ProperClass.

    Tier(k) is the desk analogue of the k-th infinite cardinal.  The
    order is total; comparisons go through a sort key so mixed kinds
    compare correctly.
    """

    kind: str  # "finite" | "tier" | "proper"
    index: int = 0

    @staticmethod
    def finite(n: int) -> "CardinalityTier":
        return CardinalityTier("finite", n)

    @staticmethod
    def infinite(k: int) -> "CardinalityTier":
        return CardinalityTier("tier", k)

    @staticmethod
    def proper() -> "CardinalityTier":
        return CardinalityTier("proper", 0)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind != "finite"

    def successor(self) -> "CardinalityTier":
        """Tier of a power class over a class of this tier."""
        if self.kind == "tier":
            return CardinalityTier.infinite(self.index + 1)
        if self.kind == "proper":
            return CardinalityTier.proper()
        return CardinalityTier.finite(2 ** self.index)

    def _order_key(self) -> tuple[int, int]:
        return ({"finite": 0, "tier": 1, "proper": 2}[self.kind], self.index)

    def __lt__(self, other: "CardinalityTier") -> bool:
        return self._order_key() < other._order_key()

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite({self.index})"
        if self.kind == "tier":
            return f"tier({self.index})"
        return "proper"


# ---------------------------------------------------------------------------
# Memoised walks


# The iterator a memo whose walk has ended keeps in place of the walk.
_ENDED: Iterator[SetValue] = iter(())


class Memo:
    """The first PREFIX_MEMO_CAP items of a walk, kept as readers reach them.

    `walk` builds the walk afresh on every call, and every call gives the
    same items; `whole`, when given, is every item of the walk, known at
    once.  One shared walk grows `items` as far as any reader has gone,
    under a lock, so threads sharing a memo see one walk.  Past the cap
    each reader goes on with a fresh walk of its own.  A walk that
    raises is spent: the next reader that needs an item the memo lacks
    starts a fresh one where the memo ends.
    """

    __slots__ = ("items", "_walk", "_live", "_lock")

    def __init__(self, walk: Callable[[], Iterator[SetValue]],
                 whole: Iterable[SetValue] | None = None):
        self.items: list[SetValue] = [] if whole is None else list(whole)
        self._walk = walk
        self._live: Iterator[SetValue] | None = None if whole is None else _ENDED
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[SetValue]:
        items = self.items
        i = 0
        while True:
            n = len(items)
            while i < n:
                yield items[i]
                i += 1
            if i >= PREFIX_MEMO_CAP or self._grow(i + 1) == i:
                break
        if i >= PREFIX_MEMO_CAP:
            yield from itertools.islice(self._walk(), i, None)

    def reader(self) -> Callable[[int], list[SetValue]]:
        """take(n): the walk's next n items, fewer only where it ends.  The
        memo grows only as far as a reader takes."""
        items, pos, rest = self.items, 0, None

        def take(n: int) -> list[SetValue]:
            nonlocal pos, rest
            if rest is not None:
                return list(itertools.islice(rest, n))
            end = pos + n
            if len(items) < end and pos < PREFIX_MEMO_CAP:
                self._grow(min(end, PREFIX_MEMO_CAP))
            got = items[pos:end]
            pos += len(got)
            if len(got) < n and pos >= PREFIX_MEMO_CAP:
                rest = itertools.islice(self._walk(), pos, None)
                got += itertools.islice(rest, n - len(got))
            return got

        return take

    def _grow(self, n: int) -> int:
        """Grow the memo to n items from the shared walk, or as far as the
        walk goes; the number of items kept."""
        items = self.items
        if self._live is _ENDED:
            return len(items)
        with self._lock:
            live = self._live
            if live is None:
                live = self._live = itertools.islice(self._walk(), len(items), None) \
                    if items else self._walk()
            try:
                while len(items) < n:
                    items.append(next(live))
            except StopIteration:
                self._live = _ENDED
            except BaseException:
                self._live = None  # a walk that raised is spent; restart it
                raise
            return len(items)


def _distinct(stream: Callable[[], Iterator[SetValue]]) -> Callable[[], Iterator[SetValue]]:
    """The walk of a stream's distinct values, each at its first occurrence."""
    def walk() -> Iterator[SetValue]:
        seen: set[str] = set()
        for v in stream():
            if v.code not in seen:
                seen.add(v.code)
                yield v
    return walk


# ---------------------------------------------------------------------------
# Class specifications


# Held while a class makes its memo, so threads sharing the class share one.
_MAKING = threading.Lock()


class ClassSpec:
    """A class over the universe: name, membership, enumerator, tier.

    A class is its object: equality and hashing are identity, so two
    classes that share a name are still two classes.  The name is a
    label for reports.  The enumerator is a stateless generator factory;
    `memo`, made on first use, keeps the first PREFIX_MEMO_CAP of its
    distinct values, which `enumerate` reads with exclusion skipping.
    `subset_tags` lists names of classes this one is declared to be
    contained in.  A value-list class (`class_from_values`) ignores them
    for containment, which is decided exactly from its values.

    `term` records how the class was built: a tuple whose first element
    names the builder and whose rest holds the objects it was built from
    (the name, tier and tags are not repeated):
      ("builtin", handle, name)     V and the ORDINAL_BUILTINS
      ("rank_level", handle, k)
      ("residue", handle, modulus, residue, span)
      ("values", values)            `class_from_values`, canonical
      ("power", base), ("finite_subsets", base)
      ("translate", base, shift)
      ("image", rv, base)
      ("opaque",)                   a class built by hand

    A copy or deep copy of a class is the class itself.  A builtin or
    rank level pickles through its handle, so it loads as that
    universe's own class; any other class cannot be pickled, since one
    rebuilt elsewhere would be another class.
    """

    __slots__ = ("name", "membership", "_stream", "_memo", "tier", "subset_tags", "term")

    def __init__(
        self,
        name: str,
        membership: Callable[[SetValue], bool],
        stream: Callable[[], Iterator[SetValue]],
        tier: CardinalityTier,
        subset_tags: Iterable[str] = (),
        term: tuple = ("opaque",),
    ):
        self.name = name
        self.membership = membership
        self._stream = stream
        self.tier = tier
        self.subset_tags = frozenset(subset_tags)
        self.term = term
        self._memo: Memo | None = None

    def __repr__(self):
        return f"ClassSpec({self.name}, {self.tier.describe()})"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        builder = self.term[0]
        if builder == "builtin":
            return (self.term[1].builtin_class, (self.term[2],))
        if builder == "rank_level":
            return (self.term[1].rank_level_class, (self.term[2],))
        raise TypeError(f"class {self.name} cannot be pickled: only builtins "
                        "and rank levels load as the same class")

    @property
    def memo(self) -> Memo:
        """The memo of the class's distinct members, made on first use.  A
        value list (`class_from_values`) is canonical, so its stream is
        distinct, and known whole: its memo starts full."""
        memo = self._memo
        if memo is None:
            with _MAKING:
                memo = self._memo
                if memo is None:
                    memo = self._memo = Memo(self._stream, self.term[1]) \
                        if self.term[0] == "values" else Memo(_distinct(self._stream))
        return memo

    def enumerate(self, exclusions: Iterable[SetValue] = ()) -> Iterator[SetValue]:
        """Distinct members in canonical stream order, skipping exclusions
        (read when it is called): the first PREFIX_MEMO_CAP from the
        class's memo, the rest from a fresh walk of the stream."""
        excl = {x.code for x in exclusions}
        members = iter(self.memo)
        return (v for v in members if v.code not in excl) if excl else members

    def members(self) -> list[SetValue]:
        """Materialize a finite-tier class whole.  The stream is read one
        member past the declared size: if it goes on, the tier is false
        and EnumerationExhausted is raised, as for an infinite tier."""
        if not self.tier.is_finite:
            raise EnumerationExhausted(
                f"refusing to materialize infinite-tier class {self.name}"
            )
        size = self.tier.index
        out = list(itertools.islice(self.enumerate(), size + 1))
        if len(out) > size:
            raise EnumerationExhausted(f"class {self.name} has more members than its "
                                       f"tier {self.tier.describe()} declares")
        return out

    def take_fresh(
        self,
        count: int,
        exclusions: Iterable[SetValue] = (),
        predicate: Callable[[SetValue], bool] | None = None,
    ) -> list[SetValue]:
        """First `count` fresh members passing `predicate`; none for a
        count below 1.

        Raises EnumerationExhausted when the stream ends, or when
        ENUM_SCAN_CAP candidates were inspected without success.
        """
        if count < 1:
            return []
        out: list[SetValue] = []
        scanned = 0
        for v in self.enumerate(exclusions):
            scanned += 1
            if predicate is None or predicate(v):
                out.append(v)
                if len(out) == count:
                    return out
            if scanned >= ENUM_SCAN_CAP:
                break
        if len(out) < count:
            raise EnumerationExhausted(
                f"class {self.name}: needed {count} fresh elements, found {len(out)}"
            )
        return out

    def is_subset_of(self, other: "ClassSpec") -> bool | None:
        """True/False when decidable, None when unknown.

        A value-list class is decided exactly from its values, whatever
        it declares.  Every class lies inside itself, the object and not
        its name.  Other finite-tier classes are checked by enumeration
        unless a declared subset tag settles it first, and infinite ones
        rely on those declarations.  A finite tier that `members` finds
        false leaves containment unknown.
        """
        if self.term[0] == "values":
            return all(other.membership(v) for v in self.term[1])
        if self is other:
            return True
        if other.name in self.subset_tags:
            return True
        if other.term[0] == "builtin" and other.term[2] == "V":
            return True
        if self.tier.is_finite:
            try:
                return all(other.membership(m) for m in self.members())
            except EnumerationExhausted:
                pass
        return None


def class_from_values(
    name: str,
    values: Iterable[SetValue],
    tier: CardinalityTier | None = None,
    subset_tags: Iterable[str] = (),
) -> ClassSpec:
    """Extensional class over an explicit finite value set."""
    vals = canonical(values)
    codes = frozenset(v.code for v in vals)
    spec_tier = tier if tier is not None else CardinalityTier.finite(len(vals))
    return ClassSpec(
        name,
        lambda x: x.code in codes,
        lambda: iter(vals),
        spec_tier,
        subset_tags,
        term=("values", vals),
    )


def class_of_set(sv: SetValue) -> ClassSpec:
    """The members of one extensional set, as a class."""
    return class_from_values(f"els{sv.code}", sv.children)


# ---------------------------------------------------------------------------
# Power classes and finite-subset classes


def power_class(base: ClassSpec, name: str | None = None) -> ClassSpec:
    """The class of subsets of `base`.

    A value is a member when it is an extensional set whose children all
    lie in `base`; nothing else about the value, and no name, is read.
    For a finite-tier base, enumeration is size-then-lex over the base's
    canonical order.  For an infinite-tier base the enumerator yields
    the finite subsets diagonally over growing prefixes, and the declared
    tier is the successor of the base's.
    """
    cname = name if name is not None else f"P({base.name})"

    def member(x: SetValue) -> bool:
        return x.is_set and all(base.membership(c) for c in x.children)

    if base.tier.is_finite:
        def stream() -> Iterator[SetValue]:
            ground = base.members()
            for size in range(len(ground) + 1):
                for combo in itertools.combinations(ground, size):
                    yield hf_set(combo)
    else:
        def stream() -> Iterator[SetValue]:
            yield EMPTY_SET
            prefix: list[SetValue] = []
            for v in base.enumerate():
                prefix.append(v)
                n = len(prefix)
                for size in range(1, n + 1):
                    for combo in itertools.combinations(prefix[: n - 1], size - 1):
                        yield hf_set(combo + (prefix[-1],))

    return ClassSpec(
        cname,
        member,
        stream,
        base.tier.successor(),
        term=("power", base),
    )


def finite_subsets_class(base: ClassSpec, name: str | None = None) -> ClassSpec:
    """The class of finite subsets of `base`.

    Membership and enumeration are power_class's: every value is a
    finite set, so the two classes hold the same values.  Only the
    declared tier differs: for an infinite base it stays that of the
    base.
    """
    cname = name if name is not None else f"Fin({base.name})"
    inner = power_class(base, name=cname)
    tier = base.tier if base.tier.is_infinite else base.tier.successor()
    return ClassSpec(cname, inner.membership, inner._stream, tier,
                     term=("finite_subsets", base))


# ---------------------------------------------------------------------------
# Random variables


class RandomVariable:
    """A state-to-outcome assignment over the universe.

    Diagonal variables are bijections with preimages produced on demand;
    they are the ones whose events enjoy exact pointwise uniformity.
    As for ClassSpec, a variable is its object and the name only labels
    it: a copy or deep copy is the variable itself, the shared
    `identity_rv` and `even_shift_permutation` pickle through those
    accessors, and any other variable cannot be pickled.
    """

    __slots__ = ("name", "kind", "diagonal", "_apply", "_preimage")

    def __init__(
        self,
        name: str,
        kind: str,
        apply_fn: Callable[[SetValue], SetValue],
        preimage_fn: Callable[[SetValue], SetValue] | None,
        diagonal: bool,
    ):
        self.name = name
        self.kind = kind
        self._apply = apply_fn
        self._preimage = preimage_fn
        self.diagonal = diagonal

    def __repr__(self):
        return f"RandomVariable({self.name})"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        for shared in (identity_rv, even_shift_permutation):
            if shared() is self:
                return (shared, ())
        raise TypeError(f"variable {self.name} cannot be pickled: only identity "
                        "and even-shift load as the same variable")

    def __call__(self, x: SetValue) -> SetValue:
        return self._apply(x)

    def preimage(self, y: SetValue) -> SetValue:
        if self._preimage is None:
            raise WrongMode(f"variable {self.name} has no preimage map")
        return self._preimage(y)


_IDENTITY = RandomVariable("identity", "identity", lambda x: x, lambda y: y, True)


def identity_rv() -> RandomVariable:
    """The identity variable: one object, shared by every caller."""
    return _IDENTITY


def table_rv(mapping: dict[SetValue, SetValue], name: str) -> RandomVariable:
    """Explicit finite map with identity default off its support.

    When the mapping permutes its own support the variable is diagonal
    and carries an exact preimage map.
    """
    fwd = {k.code: v for k, v in mapping.items()}
    keys = {k.code for k in mapping}
    values = {v.code for v in mapping.values()}
    is_perm = keys == values and len(values) == len(mapping)
    inv = {v.code: k for k, v in mapping.items()} if is_perm else None

    def apply_fn(x: SetValue) -> SetValue:
        return fwd.get(x.code, x)

    def preimage_fn(y: SetValue) -> SetValue:
        got = inv.get(y.code)
        return got if got is not None else y

    return RandomVariable(
        name,
        "table",
        apply_fn,
        preimage_fn if is_perm else None,
        is_perm,
    )


def even_shift_permutation() -> RandomVariable:
    """The bijection of the naturals that shifts evens up and odds down,
    one object shared by every caller, as `identity_rv` is.

    Even n goes to n+2, 1 goes to 0, odd n > 1 goes to n-2; everything
    outside the finite ordinals is fixed.  Its image of the even
    naturals is the evens without 0, a proper subclass of the evens.
    """
    return _EVEN_SHIFT


def _even_shift() -> RandomVariable:

    def apply_fn(x: SetValue) -> SetValue:
        if not x.is_ordinal:
            return x
        a, b = x.ord_parts
        if a != 0:
            return x
        if b % 2 == 0:
            return nat(b + 2)
        if b == 1:
            return nat(0)
        return nat(b - 2)

    def preimage_fn(y: SetValue) -> SetValue:
        if not y.is_ordinal:
            return y
        a, b = y.ord_parts
        if a != 0:
            return y
        if b % 2 == 0:
            return nat(b - 2) if b >= 2 else nat(1)
        return nat(b + 2)

    return RandomVariable("even-shift", "permutation", apply_fn, preimage_fn, True)


_EVEN_SHIFT = _even_shift()


def image_class(
    rv: RandomVariable,
    base: ClassSpec,
    name: str | None = None,
    subset_tags: Iterable[str] = (),
) -> ClassSpec:
    """The image of a class under a diagonal variable.

    Membership is exact via the preimage map; the tier is inherited
    because the variable is a bijection.
    """
    if not rv.diagonal:
        raise WrongMode("image_class needs a diagonal variable")
    cname = name if name is not None else f"{rv.name}[{base.name}]"
    return ClassSpec(
        cname,
        lambda y: base.membership(rv.preimage(y)),
        lambda: (rv(x) for x in base.enumerate()),
        base.tier,
        subset_tags,
        term=("image", rv, base),
    )


# ---------------------------------------------------------------------------
# Ordinal translation


def ordinal_add(gamma: SetValue, alpha: SetValue) -> SetValue:
    """Ordinal addition gamma + alpha on pair codes."""
    a1, b1 = gamma.ord_parts
    a2, b2 = alpha.ord_parts
    if a2 == 0:
        return ord_value(a1, b1 + b2)
    return ord_value(a1 + a2, b2)  # left finite part is absorbed


def translate_class(
    base: ClassSpec,
    alpha: SetValue,
    name: str | None = None,
    subset_tags: Iterable[str] = (),
) -> ClassSpec:
    """The pointwise translate {g + alpha : g in base}.

    Membership is exact for finite shifts.  For shifts with a limit part
    the required witness has an absorbed finite part, so membership
    falls back to an enumerator probe: exact for finite-tier bases, over
    the first 512 members for infinite ones.
    """
    a2, b2 = alpha.ord_parts
    cname = name if name is not None else f"{base.name}+{alpha.code}"

    def member(x: SetValue) -> bool:
        if not x.is_ordinal:
            return False
        a, b = x.ord_parts
        if a2 == 0:
            return b >= b2 and base.membership(ord_value(a, b - b2))
        if b != b2 or a < a2:
            return False
        want = a - a2
        if base.tier.is_finite:
            return any(m.is_ordinal and m.ord_parts[0] == want for m in base.members())
        for m in itertools.islice(base.enumerate(), 512):
            if m.is_ordinal and m.ord_parts[0] == want:
                return True
        return False

    # A limit shift absorbs finite parts, so a value can come more than
    # once; ClassSpec.enumerate keeps its first occurrence.
    return ClassSpec(
        cname,
        member,
        lambda: (ordinal_add(g, alpha) for g in base.enumerate() if g.is_ordinal),
        base.tier,
        subset_tags,
        term=("translate", base, alpha),
    )


# ---------------------------------------------------------------------------
# Universe handles


_LEVEL_SIZES = (0, 1, 2, 4, 16, 65536, 2 ** 65536)  # |V_0| .. |V_6|


def level_size(k: int) -> int:
    """|V_k|, the number of hereditarily finite sets of rank below k.
    |V_7| = 2**(2**65536) is too large to compute: k >= 7 raises
    EnumerationExhausted."""
    if k >= len(_LEVEL_SIZES):
        raise EnumerationExhausted(f"|V_{k}| is too large to compute")
    return _LEVEL_SIZES[k]


# The ordinal builtins: name -> (predicate on (a, b) for the ordinal
# w*a+b, declared supersets, largest b a member can have or None).  A
# builtin's membership and its stream both come from its predicate.
# Limit ordinals count as even: the finite distance from the nearest
# limit below is what carries parity.
ORDINAL_BUILTINS = {
    "On": (lambda a, b: True, frozenset({"V"}), None),
    "Even": (lambda a, b: b % 2 == 0, frozenset({"On", "V"}), None),
    "Odd": (lambda a, b: b % 2 == 1, frozenset({"On", "V"}), None),
    "Lim": (lambda a, b: b == 0 and a >= 1, frozenset({"On", "Even", "V"}), 0),
    "Nat": (lambda a, b: a == 0, frozenset({"On", "V"}), None),
}


# The padding states p0, p1, ..., the same in every ordinal universe.
_PADS = Memo(lambda: map(pad, itertools.count()))


def _next_rank(levels: list[list[SetValue]]) -> Iterator[SetValue]:
    """The sets of rank k = len(levels), given the levels of ranks 0..k-1:
    the subsets of V_k holding an element of rank k-1.  Combinations of
    the sorted V_k come out in canonical order."""
    ground = sorted((v for level in levels for v in level), key=lambda v: v._key)
    top_codes = {v.code for v in levels[-1]}
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            if any(c.code in top_codes for c in combo):
                yield hf_set(combo)


class UniverseHandle:
    """Configured universe: a mode, a bound, and the builtin classes.

    The universe itself is potentially infinite (ordinal mode) or merely
    large (HF mode); the handle enumerates it on demand.  The first
    PREFIX_MEMO_CAP states are kept in a memo (`Memo`) once a query
    touches them, so repeated candidate pools reuse the same values;
    states past the cap are rebuilt by every walk that reaches them.
    Each builtin class is built once per handle, so every caller that
    asks for it gets one object.  `make_universe` gives one handle per
    (mode, bound), so the memos and builtins are shared by every caller
    of that universe until `clear_caches`.
    """

    __slots__ = ("mode", "bound", "_by_rank", "_states", "_builtins")

    def __init__(self, mode: str, bound: int):
        self.mode = mode
        self.bound = bound
        self._by_rank: list[list[SetValue]] | None = None
        self._states = Memo(self._walk)
        self._builtins: dict[object, ClassSpec] = {}

    def __repr__(self):
        return f"UniverseHandle({self.mode}, {self.bound})"

    def __reduce__(self):
        # A copy or pickle is the shared handle of its (mode, bound), so
        # its builtin classes are the ones events are built over.
        return (make_universe, (self.mode, self.bound))

    # -- HF levels -----------------------------------------------------

    def _materialized_ranks(self) -> list[list[SetValue]]:
        """Rank levels 0..3 are tiny and kept whole; higher ranks stay lazy."""
        if self._by_rank is None:
            levels = [[EMPTY_SET]]
            for _ in range(3):
                levels.append(list(_next_rank(levels)))
            self._by_rank = levels
        return self._by_rank

    def level_members(self, k: int) -> Iterator[SetValue]:
        """Elements of rank exactly k, in size-then-canonical order."""
        if self.mode != HF_MODE:
            raise WrongMode("rank levels exist in HF mode only")
        if k > 4:
            raise EnumerationExhausted(f"V_{k} is too large to materialize")
        levels = self._materialized_ranks()
        yield from levels[k] if k <= 3 else _next_rank(levels)

    # -- enumeration ---------------------------------------------------

    def enumerate_universe(self) -> Iterator[SetValue]:
        """All states of the configured universe, in a fixed order.

        HF mode walks ranks upward; ordinal mode interleaves a diagonal
        walk of the ordinals below w*bound with the padding states.  The
        first PREFIX_MEMO_CAP states come from the handle's memo
        (`Memo`), which one shared walk fills as far as any iterator has
        reached; past the cap each iterator continues on a fresh walk of
        its own.
        """
        return iter(self._states)

    def states(self) -> Memo:
        """The states of `enumerate_universe` in the handle's memo: iterate
        it, or read it with `reader`."""
        return self._states

    def _walk(self) -> Iterator[SetValue]:
        """The enumeration itself, built afresh on every call."""
        if self.mode == HF_MODE:
            for k in range(self.bound):
                yield from self.level_members(k)
            return
        n = 0
        while True:
            for a in range(0, min(n, self.bound - 1) + 1):
                yield ord_value(a, n - a)
            yield pad(n)
            n += 1

    def pads(self) -> Memo:
        """The padding states p0, p1, ... in a memo (`Memo`): iterate it, or
        read it with `reader`."""
        if self.mode != ORDINAL_MODE:
            raise WrongMode("padding states exist in ordinal mode only")
        return _PADS

    # -- builtin classes ----------------------------------------------

    def _once(self, key: object, build: Callable[[], ClassSpec]) -> ClassSpec:
        """The builtin under key, built on first use; `setdefault` keeps the
        first one stored when threads sharing the handle race to build it."""
        got = self._builtins.get(key)
        return got if got is not None else self._builtins.setdefault(key, build())

    def universe_class(self) -> ClassSpec:
        return self._once("V", lambda: ClassSpec(
            "V",
            lambda x: True,
            self.enumerate_universe,
            CardinalityTier.proper(),
            term=("builtin", self, "V"),
        ))

    def _ordinal_stream(self, keep: Callable[[int, int], bool],
                        b_max: int | None) -> Callable[[], Iterator[SetValue]]:
        """The ordinals below w*bound with keep(a, b), one diagonal a + b at
        a time, ending once every b on a diagonal exceeds b_max."""
        bound = self.bound

        def stream() -> Iterator[SetValue]:
            n = 0
            while b_max is None or n < b_max + bound:
                for a in range(0, min(n, bound - 1) + 1):
                    b = n - a
                    if keep(a, b):
                        yield ord_value(a, b)
                n += 1

        return stream

    def residue_class(self, name: str, modulus: int, residue: int, span: int,
                      tier: CardinalityTier,
                      subset_tags: Iterable[str] = ()) -> ClassSpec:
        """Ordinals w*a+b with a <= span and b = residue (mod modulus).

        Blocks at or above the bound lie outside the universe, so the
        span is capped at bound - 1.  The stream is block-major: for each
        admissible b it yields the blocks 0..span before moving to the
        next b.  An HF universe holds no ordinals, so it has no residue
        classes.
        """
        if self.mode != ORDINAL_MODE:
            raise WrongMode(f"residue class {name} needs an ordinal-mode universe")
        span = min(span, self.bound - 1)
        r = residue % modulus

        def member(v: SetValue) -> bool:
            if not v.is_ordinal:
                return False
            a, b = v.ord_parts
            return a <= span and b % modulus == r

        def stream() -> Iterator[SetValue]:
            b = r
            while True:
                for a in range(span + 1):
                    yield ord_value(a, b)
                b += modulus

        return ClassSpec(name, member, stream, tier, subset_tags,
                         term=("residue", self, modulus, r, span))

    def builtin_class(self, name: str, **kw) -> ClassSpec:
        """Builtins: V, RankLevel(k) (k given as kw) and the
        ORDINAL_BUILTINS, each one object per handle; V and an ordinal
        builtin carry the term ("builtin", handle, name) the forcing
        rules read."""
        if name == "V":
            return self.universe_class()
        if name == "RankLevel":
            return self.rank_level_class(kw["k"])
        if self.mode != ORDINAL_MODE:
            raise WrongMode(f"builtin {name} needs an ordinal-mode universe")
        if name not in ORDINAL_BUILTINS:
            raise KeyError(f"unknown builtin class {name}")
        keep, supersets, b_max = ORDINAL_BUILTINS[name]
        return self._once(name, lambda: ClassSpec(
            name,
            lambda x: x.kind == KIND_ORD and keep(*x.data),
            self._ordinal_stream(keep, b_max),
            CardinalityTier.infinite(0),
            subset_tags=supersets,
            term=("builtin", self, name),
        ))

    def rank_level_class(self, k: int) -> ClassSpec:
        if self.mode != HF_MODE:
            raise WrongMode("rank levels exist in HF mode only")
        if k >= self.bound:
            raise BoundTooSmall(f"rank level {k} above universe bound {self.bound}")
        count = level_size(k + 1) - level_size(k)
        return self._once(("RankLevel", k), lambda: ClassSpec(
            f"RankLevel({k})",
            lambda x: x.is_set and rank(x) == k,
            lambda: self.level_members(k),
            CardinalityTier.finite(count),
            subset_tags={"V"},
            term=("rank_level", self, k),
        ))


@functools.lru_cache(maxsize=64)
def make_universe(mode: str, bound: int) -> UniverseHandle:
    """The universe of this mode and bound: one handle per (mode, bound),
    kept until `clear_caches` (or until 64 others were asked for since),
    so its state memo and builtin classes are shared by every caller.

    HF mode enumerates V_bound and needs bound >= 3 for any interesting
    structure.  Ordinal mode covers ordinals below w*bound; bound >= 1,
    with bound 1 giving the finite ordinals only (no limits).
    """
    if mode not in (HF_MODE, ORDINAL_MODE):
        raise ValueError(f"unknown universe mode {mode!r}")
    if mode == HF_MODE and bound < 3:
        raise BoundTooSmall(f"HF universe needs bound >= 3, got {bound}")
    if mode == ORDINAL_MODE and bound < 1:
        raise BoundTooSmall(f"ordinal universe needs bound >= 1, got {bound}")
    return UniverseHandle(mode, bound)


# The clear functions `clear_caches` runs: this module's interning tables,
# rank cache and shared handles; modules with process-wide tables of their
# own append theirs at import.  `_PADS` is left out: its items are the
# same in every process, and readers hold its list.
_CLEARS: list[Callable[[], None]] = [
    ord_value.cache_clear, pad.cache_clear, parse_code.cache_clear,
    _SETS.clear, _RANK_CACHE.clear, make_universe.cache_clear,
]


def clear_caches() -> None:
    """Empty every process-wide table: the next `make_universe` builds a
    new handle, with new builtin classes, and values are interned anew
    (an old value still equals its twin, since equality goes by code)."""
    for clear in _CLEARS:
        clear()
