"""Plain-Python answers the benchmark checks setprob against.

Everything here reads canonical value codes and counts with its own
class definitions.  It never calls setprob's evaluator, so a wrong
answer from the engine cannot also make the reference wrong.

Codes: ``oA.B`` is the ordinal w*A+B, ``pK`` a padding state, and brace
terms such as ``{{},{{}}}`` are hereditarily finite sets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def ord_parts(code: str) -> tuple[int, int] | None:
    if not code.startswith("o"):
        return None
    a, b = code[1:].split(".")
    return int(a), int(b)


def hf_rank(code: str) -> int | None:
    """Von Neumann rank of a brace term: its nesting depth minus one."""
    if not code.startswith("{"):
        return None
    depth = deepest = 0
    for ch in code:
        if ch == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "}":
            depth -= 1
    return deepest - 1


# -- class definitions: predicates on codes ---------------------------


def builtin(name: str):
    """Membership of the builtin ordinal classes and V."""
    if name == "V":
        return lambda c: True

    def member(code: str) -> bool:
        p = ord_parts(code)
        if p is None:
            return False
        a, b = p
        return {"On": True, "Even": b % 2 == 0, "Odd": b % 2 == 1,
                "Nat": a == 0, "Lim": b == 0 and a >= 1}[name]

    return member


def residue(modulus: int, span: int):
    """Ordinals w*a+b with a <= span and b a multiple of modulus."""
    def member(code: str) -> bool:
        p = ord_parts(code)
        return p is not None and p[0] <= span and p[1] % modulus == 0
    return member


def rank_level(k: int):
    return lambda code: hf_rank(code) == k


def values(codes):
    members = frozenset(codes)
    return lambda code: code in members


# -- constraints and snapshots ----------------------------------------


def ordinal_runs(codes) -> list[int]:
    """Lengths of the maximal runs of consecutive ordinals in one block."""
    blocks: dict[int, set[int]] = {}
    for c in codes:
        p = ord_parts(c)
        if p is not None:
            blocks.setdefault(p[0], set()).add(p[1])
    runs = []
    for bs in blocks.values():
        for b in bs:
            if b - 1 not in bs:
                end = b
                while end + 1 in bs:
                    end += 1
                runs.append(end - b + 1)
    return runs


def count(codes, member) -> int:
    return sum(1 for c in codes if member(c))


# -- window enumeration -----------------------------------------------


def window_answer(window: list[str], constraints: list[tuple],
                  germ: tuple, max_size: int | None):
    """Evaluate a germ on every admissible snapshot of a window.

    `constraints` holds tuples ("fineness", code), ("ratio", A, B, k),
    ("order_lt", A, B), ("order_ge", A, B), ("subset_bound", codes, a),
    ("min_size", n), with classes given as predicates.  `germ` is
    ("event", A), ("joint", A, B), ("cond", A, B) or ("diff", G, H) for
    two event germs.  Returns the list of germ values at admitted
    snapshots, with None where the germ has no value there.
    """
    n = len(window)
    bit = {c: 1 << i for i, c in enumerate(window)}

    def mask(member) -> int:
        return sum(bit[c] for c in window if member(c))

    checks = []
    for con in constraints:
        tag = con[0]
        if tag == "fineness":
            m = bit[con[1]]
            checks.append(lambda s, m=m: s & m == m)
        elif tag == "ratio":
            ma, mb, k = mask(con[1]), mask(con[2]), con[3]
            checks.append(lambda s, ma=ma, mb=mb, k=k:
                          k * (s & ma).bit_count() <= (s & mb).bit_count())
        elif tag == "order_lt":
            ma, mb = mask(con[1]), mask(con[2])
            checks.append(lambda s, ma=ma, mb=mb:
                          (s & ma).bit_count() < (s & mb).bit_count())
        elif tag == "order_ge":
            ma, mb = mask(con[1]), mask(con[2])
            checks.append(lambda s, ma=ma, mb=mb:
                          (s & ma).bit_count() >= (s & mb).bit_count())
        elif tag == "subset_bound":
            mw = sum(bit[c] for c in con[1] if c in bit)
            a = con[2]
            checks.append(lambda s, mw=mw, a=a: (s & mw).bit_count() < a)
        elif tag == "min_size":
            checks.append(lambda s, k=con[1]: s.bit_count() >= k)
        else:
            raise ValueError(f"unknown constraint {tag}")

    def value_of(g):
        kind = g[0]
        if kind == "event":
            ma = mask(g[1])
            return lambda s: Fraction((s & ma).bit_count(), s.bit_count())
        if kind == "joint":
            mab = mask(g[1]) & mask(g[2])
            return lambda s: Fraction((s & mab).bit_count(), s.bit_count())
        if kind == "cond":
            mab, mb = mask(g[1]) & mask(g[2]), mask(g[2])

            def cond(s):
                den = (s & mb).bit_count()
                return Fraction((s & mab).bit_count(), den) if den else None
            return cond
        if kind == "diff":
            f, h = value_of(g[1]), value_of(g[2])
            return lambda s: f(s) - h(s)
        raise ValueError(f"unknown germ {kind}")

    value = value_of(germ)
    top = n if max_size is None else min(n, max_size - 1)
    out = []
    for size in range(1, top + 1):
        for combo in combinations(range(n), size):
            s = 0
            for i in combo:
                s |= 1 << i
            if all(check(s) for check in checks):
                out.append(value(s))
    return out


RELATIONS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "le": lambda a, b: a <= b, "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b, "gt": lambda a, b: a > b,
}


def window_verdict(vals, rel: str, rhs) -> tuple[str | None, dict]:
    """Status and evidence counts over the admitted values.

    The status is forced / forced_not / undetermined, or None when no
    admitted snapshot gives the germ a value.  Evidence counts the
    snapshots where the relation holds, fails, or has no value.
    """
    holds = sum(1 for v in vals if v is not None and RELATIONS[rel](v, rhs))
    vacuous = sum(1 for v in vals if v is None)
    fails = len(vals) - holds - vacuous
    evidence = {"holds": holds, "fails": fails, "vacuous": vacuous}
    if holds and not fails:
        return "forced", evidence
    if fails and not holds:
        return "forced_not", evidence
    if holds and fails:
        return "undetermined", evidence
    return None, evidence
