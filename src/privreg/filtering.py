"""Representative filtering of irreducible subclasses and the stability filter.

filter_step assigns every sufficiently irreducible finite restriction subclass
a representative whose per-point labeling is sup-close to its own, keeping the
set of distinct representatives per dimension small.  soa_filter uses those
representatives plus reducing trees to turn a hypothesis that is merely close
to the labeling of a stable subclass into a small set of classes guaranteed to
contain one that depends only on that subclass.

filter_step reads the restriction subclasses grouped by sfat2, in canonical
order within each group, from the root's memo entry ("subclasses", mask); its
agreement search ANDs the masks of (point, label) pairs and builds no class.

soa_filter builds no tree: it reads each reducing tree's nonempty leaves,
(pairs, mask), from reducing_leaves, kept in the root's memo under
("reducing_leaves", mask, x_a, y, ell_seq) beside the ("witness_leaves", mask,
l) entries they are made of, and freed with it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .classes import (DiscreteClass, DomainError, canonical_restriction, class_order,
                      enumerate_restriction_subclasses, memoized, sup_distance)
from .dimensions import sfat2, sfat2_mask
from .irreducibility import is_l_irreducible, reducing_leaves, soa, soa_partial


def _point_gap(label: "int | None", target: int) -> float:
    """Distance from a possibly-undefined labeling entry to a target label."""
    return float("inf") if label is None else abs(label - target)


@dataclass(frozen=True)
class LadderSchedule:
    """Level ladder ell(r,t) = ell_bar*(r+2)^t with the filter parameters."""

    ell_bar: int
    r_max: int
    tau_max: int
    chi: int

    def __post_init__(self):
        if self.ell_bar < 1:
            raise DomainError("ell_bar must be >= 1")
        if self.chi < 1:
            raise DomainError("chi must be >= 1")
        if self.r_max < 0 or self.tau_max < 0:
            raise DomainError("r_max and tau_max must be >= 0")

    def ell(self, r: int, t: int) -> int:
        return self.ell_bar * (r + 2) ** t


@dataclass
class FilteredSets:
    levels: dict          # sfat2 value b -> tuple of classes, class order
    rep: dict             # class hyps -> representative class

    def representative(self, H: DiscreteClass) -> DiscreteClass:
        return self.rep[H.hyps]


@dataclass
class RepSet:
    members: tuple        # classes, canonical order


def _subclasses_by_dim(F: DiscreteClass) -> dict:
    """sfat2 value b -> the finite restriction subclasses of F with sfat2 = b,
    in canonical order."""
    by_dim: dict = {}
    for H in enumerate_restriction_subclasses(F):
        by_dim.setdefault(sfat2(H), []).append(H)
    return by_dim


def irreducible_subclasses(F: DiscreteClass, l: int, b: int) -> list:
    """Finite restriction subclasses of F with sfat2 = b that are
    l-irreducible, in canonical order."""
    by_dim = memoized(F.memo, ("subclasses", F.mask), _subclasses_by_dim, F)
    return [H for H in by_dim.get(b, ()) if is_l_irreducible(H, l)]


def _agreement_restriction(F: DiscreteClass, L: DiscreteClass, H: DiscreteClass,
                           max_size: int, b: int):
    """Smallest set of (point, label) pairs on which soa(L) and soa(H) agree
    with that common label, whose restriction of F has sfat2 = b; None if no
    set of size <= max_size works."""
    soa_l, soa_h, eq = soa(L), soa(H), F.bits.eq
    agree = [(i, soa_h[i]) for i in range(F.domain.size) if soa_h[i] == soa_l[i]]
    for size in range(0, min(max_size, len(agree)) + 1):
        for combo in itertools.combinations(agree, size):
            mask = F.mask
            for i, k in combo:
                mask &= eq[i][k]
            if sfat2_mask(F, mask) == b:
                return combo
    return None


def filter_step(F: DiscreteClass, schedule: LadderSchedule, r_max: int) -> FilteredSets:
    if r_max < 0:
        raise DomainError("r_max must be >= 0")
    d = sfat2(F)
    if d < 0:
        raise DomainError("filter_step requires a nonempty class")
    return memoized(F.memo, ("filter_step", F.mask, schedule, r_max),
                    _filter_step, F, schedule, r_max, d)


def _filter_step(F: DiscreteClass, schedule: LadderSchedule, r_max: int,
                 d: int) -> FilteredSets:
    levels = {b: [] for b in range(d + 1)}
    rep: dict = {}
    for t in range(d + 1):
        b = d - t
        members = {r: irreducible_subclasses(F, schedule.ell(r, t), b)
                   for r in range(r_max + 1)}
        members[r_max + 1] = []
        for r in range(r_max, -1, -1):
            upper = {H.mask for H in members[r + 1]}
            for H in members[r]:
                if H.mask in upper or H.hyps in rep:
                    continue
                rep[H.hyps] = next((L for L in levels[b] if _agreement_restriction(
                    F, L, H, schedule.ell(r, t) - 1, b) is not None), H)
                if rep[H.hyps] is H:
                    bisect.insort(levels[b], H, key=class_order)
    return FilteredSets({b: tuple(v) for b, v in levels.items()}, rep)


def soa_filter(F: DiscreteClass, g_hat: tuple, schedule: LadderSchedule,
               trace=None) -> RepSet:
    """trace, if given, is a list that receives (j, s, a) for every restriction
    set queued at stage s of pass j; tracing bypasses the memo of results, not
    that of reducing-tree leaves, which does not depend on g_hat."""
    d = sfat2(F)
    if d < 0:
        raise DomainError("soa_filter requires a nonempty class")
    if schedule.r_max % (d + 1) != 0 or schedule.tau_max % (d + 1) != 0:
        raise DomainError("r_max and tau_max must be multiples of d+1")
    if len(g_hat) != F.domain.size or not all(type(v) is int and 1 <= v <= F.K for v in g_hat):
        raise DomainError(f"g_hat must be {F.domain.size} labels in 1..{F.K}")
    if trace is not None:
        return _soa_filter(F, g_hat, schedule, d, trace)
    return memoized(F.memo, ("soa_filter", F.mask, schedule, tuple(g_hat)),
                    _soa_filter, F, g_hat, schedule, d, None)


def _soa_filter(F: DiscreteClass, g_hat: tuple, schedule: LadderSchedule, d: int,
                trace) -> RepSet:
    r0 = schedule.r_max // (d + 1)
    tau0 = schedule.tau_max // (d + 1)
    filtered = filter_step(F, schedule, schedule.r_max)
    result: dict = {}
    for j in range(d + 1):
        r = schedule.r_max - j * r0 - 1
        tau = j * tau0 + 2 + schedule.chi
        # scans[t]: (L, the (point, label) pairs of soa(L)) for the
        # ell(r, t)-irreducible L of sfat2 d - t.
        scans = [[(L, frozenset(enumerate(soa(L)))) for L in filtered.levels[d - t]
                  if is_l_irreducible(L, schedule.ell(r, t))] for t in range(d + 1)]
        # Restriction set -> F restricted to it; only nonempty classes queue.
        queue = {(): F}
        for s in range(d + 1):
            if trace is not None:
                trace.extend((j, s, a) for a in queue)
            next_queue: dict = {}
            for a, H in queue.items():
                soa_h = soa_partial(H)
                t = d - sfat2(H)
                gaps = [_point_gap(soa_h[i], g_hat[i]) for i in range(F.domain.size)]
                if max(gaps) <= tau:
                    L = next((L for L, sl in scans[t] if sl.issuperset(a)), None)
                    if L is not None:
                        result[L.mask] = L
                    continue
                x_a = next(i for i in range(F.domain.size) if gaps[i] >= tau + 1)
                k = g_hat[x_a]
                ell_seq = tuple(schedule.ell(r, t + tt) for tt in range(d - t + 1))
                for y in range(max(1, k - tau + 1), min(F.K, k + tau - 1) + 1):
                    key = ("reducing_leaves", H.mask, x_a, y, ell_seq)
                    for pairs, m in memoized(H.memo, key, reducing_leaves, H, x_a, y, ell_seq):
                        if all(abs(g_hat[i] - yy) <= tau - 1 for i, yy in pairs):
                            next_queue[canonical_restriction(a + pairs)] = H.with_mask(m)
            queue = next_queue
    members = [L for L in result.values()
               if sup_distance(soa(L), g_hat) <= schedule.tau_max]
    return RepSet(tuple(sorted(members, key=class_order)))
