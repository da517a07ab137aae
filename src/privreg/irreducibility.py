"""Irreducibility levels, the standard optimal labeling, and reduction trees.

A class F is l-irreducible when every K-ary domain-labeled tree of depth
between 1 and l has a leaf v with sfat2(F|a(v)) = sfat2(F).  The equivalent
recursive form is used for computation: F is l-irreducible iff l = 0, or F is
empty, or for every point x some label k has sfat2(F|(x,k)) = sfat2(F) with
F|(x,k) being (l-1)-irreducible.
"""

from __future__ import annotations

import math

from .classes import DiscreteClass, DomainError, memoized
from .dimensions import sfat2, sfat2_mask
from .trees import KTree, TreeError, augmented_root, validate_kary

INFINITE = math.inf


def is_l_irreducible(F: DiscreteClass, l: int) -> bool:
    if l < 0:
        raise DomainError(f"irreducibility level {l} must be nonnegative")
    if l == 0 or F.is_empty:
        return True
    d = sfat2(F)
    if d == 0:
        # No tree can preserve a positive dimension that is not there; every
        # restriction of a nonempty sfat2=0 class along its own values stays
        # nonempty, so some leaf always keeps sfat2 = 0.
        return True
    # Past the constant points skipped below, every step strictly shrinks
    # the class, so levels beyond |F| all give the same answer.
    l = min(l, len(F.hyps))
    return memoized(F.memo, ("is_l_irreducible", F.mask, l), _every_point_preserves, F, l, d)


def _keepers(F: DiscreteClass, eq: list, d: int) -> dict:
    """Label k -> F restricted to (x, k), for each label k at a point x (eq,
    its masks) whose restriction keeps sfat2 = d."""
    return {k: F.with_mask(sub) for k in range(1, F.K + 1)
            if (sub := F.mask & eq[k]) and sfat2_mask(F, sub) == d}


def _every_point_preserves(F: DiscreteClass, l: int, d: int) -> bool:
    for eq in F.bits.eq:
        keep = _keepers(F, eq, d).values()
        # At a constant point the condition reads "F is (l-1)-irreducible",
        # which, the property being monotone in l, the other points imply.
        if any(G.mask == F.mask for G in keep):
            continue
        if not any(is_l_irreducible(G, l - 1) for G in keep):
            return False
    return True


def irreducibility_level(F: DiscreteClass):
    """Largest l with F l-irreducible, or INFINITE.

    Classes with sfat2 <= 0 are l-irreducible for every l.  When sfat2 >= 1
    each extra level forces the property through a strictly smaller subclass
    of equal dimension, so the level is below |F|, which bounds the search.
    """
    d = sfat2(F)
    if d <= 0:
        return INFINITE
    level = 0
    while level < len(F.hyps) and is_l_irreducible(F, level + 1):
        level += 1
    return level


def soa(G: DiscreteClass) -> tuple:
    """Standard optimal labeling of a nonempty 1-irreducible class.

    A class is 1-irreducible exactly when some label preserves sfat2 at every
    point, that is, when soa_partial is total on it.
    """
    if G.is_empty:
        raise DomainError("soa requires a nonempty class")
    labels = soa_partial(G)
    if None in labels:
        raise DomainError("soa requires a 1-irreducible class")
    return labels


def soa_partial(G: DiscreteClass) -> tuple:
    """Per-point labeling defined on every nonempty class, with None at points
    where no label preserves sfat2.

    Where defined it is the label whose restriction preserves sfat2.  At most
    two labels can (a third would give a split of depth sfat2+1), and two are
    adjacent; of two, the one with the higher irreducibility level wins, then
    the smaller label.  A None entry means the labeling is undefined there,
    which consumers treat as infinitely far from any target label.
    """
    if G.is_empty:
        raise DomainError("labeling requires a nonempty class")
    return memoized(G.memo, ("soa_partial", G.mask), _preserving_labels, G)


def _preserving_labels(G: DiscreteClass) -> tuple:
    d = sfat2(G)
    out = []
    for eq in G.bits.eq:
        keep = _keepers(G, eq, d)
        if len(keep) < 2:
            out.append(next(iter(keep), None))
        else:
            out.append(max(keep, key=lambda k: (irreducibility_level(keep[k]), -k)))
    return tuple(out)


def witness_leaves(F: DiscreteClass, l: int) -> "tuple | None":
    """Nonempty leaves (pairs, mask) of F's level-l witness tree, depth-first
    in edge-label order, or None iff F is l-irreducible; kept in F's memo
    under ("witness_leaves", mask, l)."""
    if l < 1:
        raise DomainError(f"witness tree needs level >= 1, got {l}")
    return memoized(F.memo, ("witness_leaves", F.mask, l), _witness_leaves, F, l)


def _witness_leaves(F: DiscreteClass, l: int) -> "tuple | None":
    if is_l_irreducible(F, l):
        return None
    d = sfat2(F)
    for i, eq in enumerate(F.bits.eq):
        keep = _keepers(F, eq, d)
        if any(is_l_irreducible(G, l - 1) for G in keep.values()):
            continue
        # Here every child keeping sfat2 = d is not (l-1)-irreducible, so l >= 2
        # and it has witness leaves; the tree stops at every other label.
        out = []
        for k in range(1, F.K + 1):
            below = witness_leaves(keep[k], l - 1) if k in keep else [((), F.mask & eq[k])]
            out.extend((((i, k),) + pairs, m) for pairs, m in below if m)
        return tuple(out)
    raise AssertionError("non-irreducible class must have a failing point")


def reduction_witness_tree(F: DiscreteClass, l: int) -> "KTree | None":
    """K-ary tree of depth <= l whose every leaf strictly reduces sfat2, grown
    afresh from witness_leaves; None iff F is l-irreducible."""
    leaves = witness_leaves(F, l)
    return None if leaves is None else KTree().grow(leaves, F.K)


def validate_witness_tree(F: DiscreteClass, tree: KTree, l: int) -> None:
    """Check the witness-tree contract; raises TreeError on violation."""
    validate_kary(tree, F.domain.size, F.K)
    if tree.is_leaf:
        raise TreeError("witness tree must have depth >= 1")
    if tree.depth() > l:
        raise TreeError(f"witness tree depth {tree.depth()} exceeds {l}")
    d = sfat2(F)
    for path, _, mask in tree.leaves(F):
        if sfat2_mask(F, mask) >= d:
            raise TreeError(f"leaf {path} does not reduce sfat2")


def reducing_leaves(H: DiscreteClass, x_index: int, y: int, ell_seq) -> tuple:
    """Nonempty leaves (pairs, mask), depth-first in edge-label order, of the
    augmented tree rooted by (x,y) whose leaves are empty or irreducible at
    their level: ell_seq, of sfat2(H)+1 entries, requires ell_seq[t] of leaves
    v with sfat2(H|a(v)) = sfat2(H) - t.  From the rooted pair on, a leaf
    failing its level is replaced by its witness leaves."""
    if H.is_empty:
        raise DomainError("reducing tree requires a nonempty class")
    d = sfat2(H)
    ell_seq = tuple(ell_seq)
    if len(ell_seq) < d + 1:
        raise DomainError(f"level sequence needs {d + 1} entries, got {len(ell_seq)}")
    if any(l < 1 for l in ell_seq):
        raise DomainError("level sequence entries must be >= 1")

    def expand(pairs: tuple, G: DiscreteClass) -> list:
        below = witness_leaves(G, ell_seq[d - sfat2(G)])
        if below is None:
            return [(pairs, G.mask)]
        return [leaf for p, m in below for leaf in expand(pairs + p, G.with_mask(m))]

    rooted = H.restrict([(x_index, y)])
    return tuple(expand(((x_index, y),), rooted)) if rooted.mask else ()


def build_reducing_tree(H: DiscreteClass, x_index: int, y: int, ell_seq,
                        require_reduction: bool = True) -> KTree:
    """The augmented reducing tree grown afresh from reducing_leaves(H,
    x_index, y, ell_seq); every other child of a node is an empty leaf."""
    leaves = reducing_leaves(H, x_index, y, ell_seq)
    if require_reduction and not sfat2(H.restrict([(x_index, y)])) < sfat2(H):
        raise DomainError("rooted pair does not reduce sfat2")
    return augmented_root(x_index, y).grow(leaves, H.K)


def validate_reducing_tree(H: DiscreteClass, tree: KTree, ell_seq) -> None:
    """Check the reducing-tree contract; raises TreeError on violation.

    Conditions per leaf v with t = sfat2(H) - sfat2(H|a(v)):
      - H|a(v) is empty, or ell_seq[t]-irreducible with
        height(v) <= ell_seq[0] + ... + ell_seq[t-1];
      - for each 1 <= u < t some ancestor v' has sfat2(H|a(v')) <= sfat2(H)-u
        and height(v') <= ell_seq[0] + ... + ell_seq[u-1].
    """
    if H.is_empty:
        raise TreeError("reducing tree requires a nonempty class")
    d = sfat2(H)
    validate_kary(tree, H.domain.size, H.K, augmented=True)
    (label,) = tree.children
    if not sfat2(H.restrict([(tree.point_index, label)])) < d:
        raise TreeError("rooted pair does not reduce sfat2")
    prefix = [0]
    for l in ell_seq:
        prefix.append(prefix[-1] + l)
    for path, _, mask in tree.leaves(H):
        if not mask:
            continue
        sub = H.with_mask(mask)
        t = d - sfat2(sub)
        if t >= len(ell_seq):
            raise TreeError(f"level sequence too short for dimension gap {t}")
        if not is_l_irreducible(sub, ell_seq[t]):
            raise TreeError(f"leaf {path} not {ell_seq[t]}-irreducible at dimension gap {t}")
        if len(path) > prefix[t]:
            raise TreeError(f"leaf {path} exceeds height bound {prefix[t]}")
        if t < 2:
            continue
        # dims[j] is the sfat2 of H restricted to the ancestor set of path[:j].
        dims, anc, node = [d], H.mask, tree
        for k in path:
            anc &= H.bits.eq[node.point_index][k]
            node = node.children[k]
            dims.append(sfat2_mask(H, anc))
        for u in range(1, t):
            if not any(w <= d - u for w in dims[:prefix[u] + 1]):
                raise TreeError(f"leaf {path} misses the depth-{u} ancestor condition")
