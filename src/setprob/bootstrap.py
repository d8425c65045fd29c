"""Tiered snapshot spaces, base restriction, and coherence checks.

The engine grounds its probabilities in finite counting, so unbounded
snapshot spaces are approached through a tower of restricted spaces:
snapshots below the first size threshold form tier 0, where probability
is literal counting; each later tier adds larger snapshots and treats
the tier below as its space of admissible probes.

Moving a filter base from a space to a smaller one is NOT automatic.
Restriction maps every constraint set through intersection with the
sub-window plus a size cap, and a perfectly good base can restrict to a
family containing the empty set.  `restrict_base` therefore demands an
explicit license (a subset-bound constraint covering the sub-window)
and re-audits the restricted base; `non_restriction_counterexample`
exhibits the failure and its repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import ConditionNull, MissingSubsetBound
from .filters import (
    TAG_FINENESS,
    TAG_SUBSET_BOUND,
    Constraint,
    FilterBase,
    FipResult,
    check_fip,
    expand_base,
    fineness,
    fineness_base,
    find_witness,
    min_size,
    parametric_fineness,
    subset_bound,
)
from .germs import germ_of_event
from .snapshots import Snapshot, snapshot_prob
from .universe import ClassSpec, RandomVariable, SetValue, UniverseHandle, \
    canonical, class_from_values, identity_rv

# Window states at which a restriction audit checks fineness and dichotomy.
AUDIT_SAMPLES = 3


@dataclass(frozen=True)
class TierConfig:
    """Strictly increasing size thresholds; tier i holds sizes < thresholds[i].

    The first threshold must be at least 2 so that tier-0 snapshots can
    hold a state and still admit proper sub-probes.
    """

    thresholds: tuple[int, ...]

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("at least one size threshold is required")
        if self.thresholds[0] < 2:
            raise ValueError("the first threshold must be at least 2")
        for a, b in zip(self.thresholds, self.thresholds[1:]):
            if b <= a:
                raise ValueError("thresholds must increase strictly")

    @property
    def t0(self) -> int:
        return self.thresholds[0]

    def tier(self, size: int) -> int:
        """Least tier whose threshold exceeds the size; one past the last
        threshold for sizes none of them covers."""
        for i, th in enumerate(self.thresholds):
            if size < th:
                return i
        return len(self.thresholds)

    def snapshot_threshold(self, size: int) -> int:
        """Admissible probe size bound for a snapshot of this size.

        One tier down: probes must be smaller than the next threshold
        below, and for tier-0 snapshots smaller than the snapshot itself.
        """
        t = self.tier(size)
        if t == 0:
            return size
        return self.thresholds[t - 1]


# ---------------------------------------------------------------------------
# Restriction of constraint sets and bases


def restrict_constraint_set(
    snapshots: Iterable[Snapshot],
    sub_window: Iterable[SetValue],
    alpha: int,
) -> list[Snapshot]:
    """Image of a constraint set in the restricted space.

    Each snapshot is intersected with the sub-window; images at or above
    the size cap fall outside the restricted space and are dropped.  An
    image can be empty, and the caller must care: one empty image makes
    the restricted family useless as a filter base.
    """
    window = list(sub_window)
    out: list[Snapshot] = []
    seen: set[Snapshot] = set()
    for z in snapshots:
        image = z.intersect(window)
        if len(image) < alpha and image not in seen:
            seen.add(image)
            out.append(image)
    return out


@dataclass
class RestrictionAudit:
    """Budgeted re-audit of a restricted base, property by property."""

    fineness_ok: bool
    fip_ok: bool
    dichotomy_ok: bool
    nonprincipal_ok: bool
    exclusion_ok: bool
    fip_result: FipResult | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (self.fineness_ok and self.fip_ok and self.dichotomy_ok
                and self.nonprincipal_ok and self.exclusion_ok)

    def summary(self) -> str:
        bits = [
            ("fineness", self.fineness_ok),
            ("fip", self.fip_ok),
            ("dichotomy", self.dichotomy_ok),
            ("non-principality", self.nonprincipal_ok),
            ("empty-set exclusion", self.exclusion_ok),
        ]
        return ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in bits)


def _map_constraint(c: Constraint, window_codes: set[str]) -> Constraint | None:
    if c.tag == TAG_FINENESS:
        return c if c.x.code in window_codes else None
    if c.tag == TAG_SUBSET_BOUND:
        inner = tuple(v for v in c.window if v.code in window_codes)
        # an untrimmed bound stays the parent's object, so the keys of
        # kept searches meet it by identity, not field by field
        return c if len(inner) == len(c.window) else subset_bound(inner, c.param)
    return c


def restrict_base(
    fb: FilterBase,
    sub_window: Iterable[SetValue],
    alpha: int,
    require_license: bool = True,
) -> tuple[FilterBase, RestrictionAudit]:
    """Carry a filter base into the restricted snapshot space.

    The license is a subset-bound constraint already in the base whose
    window covers the target and whose cap is at most alpha: it certifies
    that admitted snapshots were small inside the window all along.
    Without one the restriction is unjustified and refused.

    The restricted base keeps count-shape constraints verbatim, drops
    fineness pins that left the window, trims subset bounds, confines
    the space to the window below the size cap, and is then re-audited.
    The audit result is returned rather than enforced; a failing audit
    means the restriction does not yield a usable base.
    """
    window = canonical(sub_window)
    window_codes = {v.code for v in window}
    if require_license:
        licensed = any(
            c.tag == TAG_SUBSET_BOUND
            and c.param <= alpha
            and window_codes <= {v.code for v in c.window}
            for c in fb.constraints
        )
        if not licensed:
            raise MissingSubsetBound(
                f"no subset-bound constraint covers the target window at "
                f"cap {alpha}; restriction is not justified")
    mapped: list[Constraint] = []
    for c in fb.constraints:
        m = _map_constraint(c, window_codes)
        if m is not None and m not in mapped:
            mapped.append(m)
    restricted = FilterBase(
        tuple(mapped),
        universe=fb.universe,
        window=window,
        max_size=alpha,
        provenance=f"{fb.provenance}|restricted@{alpha}" if fb.provenance
        else f"restricted@{alpha}",
    )
    audit = audit_restricted_base(restricted)
    return restricted, audit


def audit_restricted_base(fb: FilterBase) -> RestrictionAudit:
    """Budgeted five-property audit of a (restricted) base; the fineness
    and dichotomy properties are sampled at the first AUDIT_SAMPLES
    window states."""
    window = fb.window or ()
    concrete = expand_base(fb)
    details: dict = {}

    fip = check_fip(fb)
    fip_ok = fip.witnessed
    details["fip"] = fip.status

    # Each sampled state's constraint list, the base with the state
    # pinned, serves both loops.  A state the base pins already (a
    # parametric fineness pins the first window states) takes the base as
    # it is, check_fip's kept search of the full base; the dichotomy
    # loop's `pin_w` repeats the fineness loop's search and returns its
    # kept witness.
    pinned = {c.x for c in concrete if c.tag == TAG_FINENESS}
    samples = [(x, concrete if x in pinned else concrete + [fineness(x)])
               for x in window[:AUDIT_SAMPLES]]

    # Fineness: every sampled window state extends the base consistently.
    fineness_ok = True
    for x, cs in samples:
        w = find_witness(cs, fb.universe,
                         window=fb.window, max_size=fb.max_size)
        if w is None:
            fineness_ok = False
            details["fineness_failure"] = x.code
            break

    # Ultrafilter dichotomy, budgeted: for each sampled state, the base
    # extends with the state pinned in or with the state shut out.
    # Shutting out is a subset bound of cap 1 over the singleton.
    def without_pin(x: SetValue) -> list[Constraint]:
        return [c for c in concrete
                if not (c.tag == TAG_FINENESS and c.x.code == x.code)]

    dichotomy_ok = True
    nonprincipal_ok = True
    for x, cs in samples:
        pin_w = find_witness(cs, fb.universe,
                             window=fb.window, max_size=fb.max_size)
        shut = without_pin(x) + [subset_bound((x,), 1)]
        shut_w = find_witness(shut, fb.universe, window=fb.window,
                              max_size=fb.max_size)
        if pin_w is None and shut_w is None:
            dichotomy_ok = False
            details["dichotomy_failure"] = x.code
        if shut_w is None:
            # No witness avoids x: the base concentrates on a principal atom.
            nonprincipal_ok = False
            details["principal_at"] = x.code

    # Empty-set exclusion: check_fip refutes a subfamily exactly when it
    # proves its intersection empty, a size floor at the cap included.
    exclusion_ok = fip.status != "refuted"
    if not exclusion_ok:
        details["empty_member"] = "; ".join(c.describe() for c in fip.refuted_subset)
    return RestrictionAudit(fineness_ok, fip_ok, dichotomy_ok,
                            nonprincipal_ok, exclusion_ok, fip, details)


# ---------------------------------------------------------------------------
# Tiered probability


class TieredProb:
    """Probability tower over a finite top window.

    Tier i's snapshot space is the window's snapshots of size below
    thresholds[i]; the top space carries all of them.  Bases for the
    lower tiers are built once by licensed restriction and memoized,
    audits included.
    """

    def __init__(self, universe: UniverseHandle, config: TierConfig,
                 window: Iterable[SetValue]):
        self.universe = universe
        self.config = config
        self.window = canonical(window)
        # One license suffices: concentration below the tier-0 threshold
        # justifies restriction to every tier's space at once.
        license_c = subset_bound(self.window, config.t0)
        self.base = fineness_base(universe, self.window).with_constraints([license_c])
        self._restricted: dict[int, tuple[FilterBase, RestrictionAudit]] = {}

    def space_cap(self, tier: int) -> int:
        return self.config.thresholds[tier]

    def restricted(self, tier: int) -> tuple[FilterBase, RestrictionAudit]:
        """The base carried into tier i's snapshot space, memoized."""
        if tier not in self._restricted:
            self._restricted[tier] = restrict_base(
                self.base, self.window, self.space_cap(tier))
        return self._restricted[tier]


@dataclass
class CoherenceLevel:
    snapshot_size: int
    probe_size: int
    tier: int
    direct: Fraction
    via_germ_quotient: Fraction

    @property
    def equal(self) -> bool:
        return self.direct == self.via_germ_quotient


@dataclass
class CoherenceReport:
    levels: list[CoherenceLevel]

    @property
    def ok(self) -> bool:
        return all(level.equal for level in self.levels)

    def summary(self) -> str:
        parts = [
            f"|T|={lv.snapshot_size} probe={lv.probe_size} tier={lv.tier} "
            f"value={lv.direct} {'ok' if lv.equal else 'MISMATCH'}"
            for lv in self.levels
        ]
        return "; ".join(parts)


def coherence_check(config: TierConfig, rv: RandomVariable, cls: ClassSpec,
                    t: Snapshot, probe: Iterable[SetValue]) -> CoherenceReport:
    """Check that probe-relative frequency agrees with direct counting.

    An admissible probe meets the snapshot in a nonempty set smaller
    than the snapshot's tier threshold.  At each level two exact
    rationals must coincide: direct counting over the meet
    (`snapshot_prob`), and the quotient of the two window-event germs
    evaluated at the probe.  Probes above tier 0 recurse with the meet
    as the new snapshot.  A probe is a set, so a repeated state counts
    once, in each level's `probe_size` too.
    """
    probe_snap = Snapshot(probe)
    meet = t.intersect(probe_snap)
    if len(meet) == 0:
        raise ConditionNull("the probe misses the snapshot entirely")
    threshold = config.snapshot_threshold(len(t))
    if len(meet) >= threshold:
        raise ValueError(
            f"inadmissible probe: meets {len(meet)} states, the tier allows "
            f"fewer than {threshold}")

    direct = snapshot_prob(rv, cls, meet)

    ident = identity_rv()
    hit_states = [s for s in t if cls.membership(rv(s))]
    hits_cls = class_from_values(f"hits:{cls.name}:{len(t)}", hit_states)
    all_cls = class_from_values(f"states:{len(t)}", list(t))
    num = germ_of_event(ident, hits_cls).eval_at(probe_snap)
    den = germ_of_event(ident, all_cls).eval_at(probe_snap)
    via_germ = num / den  # den > 0: the meet is nonempty

    level = CoherenceLevel(len(t), len(probe_snap), config.tier(len(t)),
                           direct, via_germ)
    levels = [level]
    if config.tier(len(meet)) >= 1 and len(meet) >= 2:
        sub_threshold = config.snapshot_threshold(len(meet))
        sub_probe = list(meet)[: max(1, sub_threshold - 1)]
        levels.extend(
            coherence_check(config, rv, cls, meet, sub_probe).levels)
    return CoherenceReport(levels)


# ---------------------------------------------------------------------------
# The restriction counterexample and its repair


@dataclass
class RestrictionCounterexample:
    """A base that is fine upstairs and breaks under restriction.

    The bad base pairs the fineness family with a size floor.  Over the
    full window every finite subfamily has witnesses, but in the tier-0
    space (sizes below the floor) the floor's constraint set restricts
    to nothing at all, so the restricted family fails the empty-set
    exclusion audit.  The repair states the same smallness as a subset
    bound, which survives restriction, and licenses it.
    """

    bad_base: FilterBase
    bad_top_check: FipResult
    bad_restricted: FilterBase
    bad_restricted_audit: RestrictionAudit
    dropped_images: int
    repair_base: FilterBase
    repair_top_check: FipResult
    repair_restricted: FilterBase
    repair_restricted_audit: RestrictionAudit

    @property
    def demonstrates_failure(self) -> bool:
        return (self.bad_top_check.witnessed
                and not self.bad_restricted_audit.exclusion_ok
                and self.repair_top_check.witnessed
                and self.repair_restricted_audit.passed)

    def narrative(self) -> str:
        lines = [
            "bad base upstairs: " + self.bad_top_check.status,
            "bad base restricted: " + self.bad_restricted_audit.summary(),
            f"size-floor constraint set lost all {self.dropped_images} "
            "sampled members under restriction",
            "repair upstairs: " + self.repair_top_check.status,
            "repair restricted: " + self.repair_restricted_audit.summary(),
        ]
        return "\n".join(lines)


def non_restriction_counterexample(
    universe: UniverseHandle,
    config: TierConfig,
    window: Iterable[SetValue],
) -> RestrictionCounterexample:
    """Build the failing restriction and its subset-bound repair."""
    win = canonical(window)
    t0 = config.t0

    bad = FilterBase((parametric_fineness(), min_size(t0)),
                     universe=universe, window=win, provenance="bad-floor")
    bad_top = check_fip(bad)
    bad_restricted, bad_audit = restrict_base(bad, win, t0, require_license=False)

    # The floor's constraint set, sampled: snapshots of size >= t0.  Its
    # image in the tier-0 space is empty because every image either keeps
    # its size (too big) or would need to lose states it cannot lose.
    sample_members = [
        Snapshot(win[i:i + t0]) for i in range(0, max(1, len(win) - t0))
    ]
    images = restrict_constraint_set(sample_members, win, t0)
    dropped = len(sample_members) - len(images)

    repair = FilterBase((parametric_fineness(), subset_bound(win, t0)),
                        universe=universe, window=win, provenance="repair-bound")
    repair_top = check_fip(repair)
    repair_restricted, repair_audit = restrict_base(repair, win, t0)

    return RestrictionCounterexample(
        bad_base=bad,
        bad_top_check=bad_top,
        bad_restricted=bad_restricted,
        bad_restricted_audit=bad_audit,
        dropped_images=dropped,
        repair_base=repair,
        repair_top_check=repair_top,
        repair_restricted=repair_restricted,
        repair_restricted_audit=repair_audit,
    )
