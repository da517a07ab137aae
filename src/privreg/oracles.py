"""Brute-force oracles for dimensions, irreducibility, and stability targets.

Everything here enumerates explicitly and refuses instances above hard caps;
the implementations in the other modules are tested against these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classes import (DiscreteClass, DomainError, EmpiricalDistribution, class_order,
                      enumerate_restriction_subclasses, sup_distance)
from .dimensions import sfat2
from .filtering import LadderSchedule, filter_step
from .irreducibility import is_l_irreducible, soa
from .tree_learner import ALPHA_DELTA, level_class


class OracleRefusal(ValueError):
    """Instance exceeds the oracle's enumeration caps."""


def _guard(F: DiscreteClass, depth_cap: "int | None" = None,
           l: "int | None" = None) -> None:
    if F.domain.size > 3:
        raise OracleRefusal(f"oracle cap: |X| <= 3, got {F.domain.size}")
    if F.K > 4:
        raise OracleRefusal(f"oracle cap: K <= 4, got {F.K}")
    if len(F.hyps) > 20:
        raise OracleRefusal(f"oracle cap: |F| <= 20, got {len(F.hyps)}")
    if depth_cap is not None and depth_cap > 3:
        raise OracleRefusal(f"oracle cap: depth <= 3, got {depth_cap}")
    if l is not None and l > 2:
        raise OracleRefusal(f"oracle cap: l <= 2, got {l}")


def _shattered(F: DiscreteClass, depth: int, constraints=()) -> bool:
    """Does some complete binary (point, threshold) tree of this depth have a
    hypothesis realizing every leaf path with margin 1 on both sides?

    Depth-first over tree shapes: a subtree exists iff some (point, threshold)
    node has realizable low and high subtrees.  Constraints accumulate as
    (point, threshold, side) triples along the current path.
    """
    realizable = any(all((f[i] >= s + 1) if hi else (f[i] <= s - 1)
                         for i, s, hi in constraints) for f in F.hyps)
    if depth == 0 or not realizable:
        return realizable
    return any(
        _shattered(F, depth - 1, constraints + ((i, s, 0),))
        and _shattered(F, depth - 1, constraints + ((i, s, 1),))
        for i in range(F.domain.size) for s in range(2, F.K))


def sfat2_bruteforce(F: DiscreteClass, depth_cap: int = 3) -> int:
    _guard(F, depth_cap=depth_cap)
    if F.is_empty:
        return -1
    for depth in range(depth_cap, 0, -1):
        if _shattered(F, depth):
            return depth
    return 0


def _kary_trees(F: DiscreteClass, l: int):
    """All K-ary domain-labeled tree shapes of depth between 1 and l, allowing
    any child to stop early as a leaf.  A tree is (point, children) with
    children a tuple of l-1 subtrees or None, one slot per label."""
    if l < 1:
        return
    for i in range(F.domain.size):
        child_options = [None] + list(_kary_trees(F, l - 1))
        for kids in itertools.product(child_options, repeat=F.K):
            yield (i, kids)


def _tree_reduces(F: DiscreteClass, tree, prefix: tuple, d: int) -> bool:
    i, kids = tree
    for k in range(1, F.K + 1):
        path = prefix + ((i, k),)
        child = kids[k - 1]
        if child is None:
            if sfat2(F.restrict(path)) >= d:
                return False
        else:
            if not _tree_reduces(F, child, path, d):
                return False
    return True


def irreducible_bruteforce(F: DiscreteClass, l: int) -> bool:
    _guard(F, l=l)
    if l < 0:
        raise DomainError(f"irreducibility level {l} must be nonnegative")
    if l == 0 or F.is_empty:
        return True
    d = sfat2(F)
    return not any(_tree_reduces(F, tree, (), d) for tree in _kary_trees(F, l))


@dataclass
class WeakStabilityTarget:
    m_set: tuple          # admissible restriction sets, canonical order
    s_star: "tuple | None"
    q_star: "int | None"
    sigma_star: "tuple | None"

    @property
    def nonempty(self) -> bool:
        return bool(self.m_set)


def weak_stability_target(F: DiscreteClass, P: EmpiricalDistribution,
                          alpha: float, t: int, ell_prime: int,
                          alpha_delta: float = ALPHA_DELTA) -> WeakStabilityTarget:
    """Exhaustive construction of the data-independent weak-stability target.

    Enumerates restriction sets S of size <= ell_t - ell_prime, keeps those
    where the class at alpha - alpha_delta/3 is ell_t-irreducible and nonempty
    with the same sfat2 as at alpha + alpha_delta/3, and takes the argmax of
    sfat2 at alpha itself (ties: smaller S first, then lexicographic).
    """
    _guard(F)
    ell_t = ell_prime * 2 ** t
    pairs = [(i, k) for i in range(F.domain.size) for k in range(1, F.K + 1)]
    max_size = min(ell_t - ell_prime, len(pairs))
    lo = level_class(F, P, alpha - alpha_delta / 3)
    mid = level_class(F, P, alpha)
    hi = level_class(F, P, alpha + alpha_delta / 3)
    m_set = []
    for size in range(0, max_size + 1):
        for S in itertools.combinations(pairs, size):
            sub_lo = lo.restrict(S)
            if sub_lo.is_empty or not is_l_irreducible(sub_lo, ell_t):
                continue
            if sfat2(sub_lo) != sfat2(hi.restrict(S)):
                continue
            m_set.append(S)
    if not m_set:
        return WeakStabilityTarget((), None, None, None)
    q_star = max(sfat2(mid.restrict(S)) for S in m_set)
    s_star = next(S for S in m_set if sfat2(mid.restrict(S)) == q_star)
    sigma_star = soa(mid.restrict(s_star))
    return WeakStabilityTarget(tuple(m_set), s_star, q_star, sigma_star)


@dataclass
class StrongStabilityTarget:
    mu: dict              # (r, tau) -> max sfat2 over admissible subclasses
    r_star: int
    tau_star: int
    h_star: DiscreteClass
    l_star: DiscreteClass


def strong_stability_target(F: DiscreteClass, G: DiscreteClass, chi: int,
                            ell_bar: int) -> StrongStabilityTarget:
    """Oracle for the class that must appear in every filtered output near G.

    Builds the table mu(r, tau) = max sfat2 over restriction subclasses H that
    are ell(r, d - sfat2(H))-irreducible with soa(H) within tau of soa(G),
    scans j = 0..d for the first stable pair, takes the canonical maximizer
    H*, and reads its representative off filter_step.
    """
    _guard(F)
    d = sfat2(F)
    if d < 0:
        raise DomainError("strong stability target needs a nonempty class")
    if G.is_empty:
        raise DomainError("G must be nonempty")
    r_max = d + 1
    tau_max = (2 + 2 * chi) * (d + 1)
    schedule = LadderSchedule(ell_bar, r_max, tau_max, chi)
    if not is_l_irreducible(G, ell_bar * (d + 3) ** d):
        raise DomainError("G is not sufficiently irreducible")
    soa_g = soa(G)
    candidates = []
    for H in enumerate_restriction_subclasses(F):
        # Every admissible level is >= ell_bar >= 1, so classes that are not
        # even 1-irreducible never enter the table (and have no soa).
        if H.is_empty or not is_l_irreducible(H, 1):
            continue
        t = d - sfat2(H)
        candidates.append((H, t, sup_distance(soa(H), soa_g)))

    def mu_val(r: int, tau: int) -> int:
        best = -1
        for H, t, dist in candidates:
            if dist <= tau and is_l_irreducible(H, schedule.ell(r, t)):
                best = max(best, sfat2(H))
        return best

    mu = {(r, tau): mu_val(r, tau)
          for r in range(0, r_max + 1) for tau in range(0, tau_max + 2 + 2 * chi + 1)}
    step = 2 + 2 * chi
    j_star = next(j for j in range(d + 1)
                  if mu[(r_max - j, step * j)] == mu[(r_max - j - 1, step * j + step)])
    r_star, tau_star = r_max - j_star, step * j_star
    target = mu[(r_star, tau_star)]
    pool = sorted((H for H, t, dist in candidates
                   if dist <= tau_star and sfat2(H) == target
                   and is_l_irreducible(H, schedule.ell(r_star, t))),
                  key=class_order)
    h_star = pool[0]
    filtered = filter_step(F, schedule, r_max)
    l_star = filtered.representative(h_star)
    return StrongStabilityTarget(mu, r_star, tau_star, h_star, l_star)


def oracle_agreement_grid(classes) -> dict:
    """Run the equivalence suite over an iterable of classes at levels 0, 1
    and 2; returns counts and the list of disagreements (expected empty)."""
    checked = 0
    disagreements = []
    for F in classes:
        bf = sfat2_bruteforce(F)
        if bf != sfat2(F):
            disagreements.append(("sfat2", F.hyps, bf, sfat2(F)))
        for l in (0, 1, 2):
            bi = irreducible_bruteforce(F, l)
            if bi != is_l_irreducible(F, l):
                disagreements.append(("irred", F.hyps, l, bi))
        checked += 1
    return {"checked": checked, "disagreements": disagreements}
