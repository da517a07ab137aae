"""Finite domains, hypothesis classes, restrictions, discretization, and error functionals.

Hypotheses are stored as value vectors aligned with the domain's point order.
Classes are kept in a canonical form (sorted, deduplicated vectors) so that
extensional equality is plain equality.

A discrete class built by its constructor is a root: it checks its rows once
and keeps a BitIndex of them in its memo, where bit j stands for its j-th
canonical row.  Its subclasses share that memo and carry an int mask over
the bits; restrict ANDs the masks of the rows with a given label at a point,
and a subclass's rows are the root's rows in bit order, which is canonical.
Results on a class and its subclasses are kept in the root's memo, keyed by
(tag, mask, *args), and freed with it; a real class's by (tag, hyps, *args).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


class DomainError(ValueError):
    """Raised when a value, point, or label is outside its declared range."""


@dataclass(frozen=True)
class Domain:
    """Ordered finite input space; the point order is the determinism anchor."""

    points: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise DomainError("domain must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise DomainError("domain points must be unique")

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise DomainError(f"unknown point {point!r}") from None


def _canonical(hypotheses: Iterable[Sequence]) -> tuple:
    return tuple(sorted(set(tuple(h) for h in hypotheses)))


_MISSING = object()


def memoized(memo: dict, key: tuple, compute: Callable, *args):
    """memo[key], filled by compute(*args) on a miss."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


@dataclass(frozen=True)
class RealClass:
    """Hypotheses mapping the domain into [-1, 1]."""

    domain: Domain
    hyps: tuple = field(default=())
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        canon = _canonical(self.hyps)
        for h in canon:
            if len(h) != self.domain.size:
                raise DomainError("hypothesis arity mismatch with domain")
            for v in h:
                if not (-1.0 <= v <= 1.0):
                    raise DomainError(f"real hypothesis value {v} outside [-1,1]")
        object.__setattr__(self, "hyps", canon)

    def __len__(self) -> int:
        return len(self.hyps)


class BitIndex:
    """A root class's rows, row -> bit, and eq[i][k], the mask of the rows
    with h[i] == k (k in 1..K; eq[i][0] is 0)."""

    def __init__(self, rows: tuple, npoints: int, K: int):
        self.rows = rows
        self.bit = {h: 1 << j for j, h in enumerate(rows)}
        self.eq = [[0] * (K + 1) for _ in range(npoints)]
        for h, b in self.bit.items():
            for i, v in enumerate(h):
                self.eq[i][v] |= b


@dataclass(frozen=True)
class DiscreteClass:
    """Hypotheses mapping the domain into {1..K}; may be empty (sfat2 = -1)."""

    domain: Domain
    K: int
    hyps: tuple = field(default=())
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    mask: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.K < 1:
            raise DomainError("label count K must be positive")
        canon = _canonical(self.hyps)
        for h in canon:
            if len(h) != self.domain.size:
                raise DomainError("hypothesis arity mismatch with domain")
            for v in h:
                if not (isinstance(v, int) and 1 <= v <= self.K):
                    raise DomainError(f"label {v} outside 1..{self.K}")
        object.__setattr__(self, "hyps", canon)
        object.__setattr__(self, "mask", (1 << len(canon)) - 1)
        self.memo["bits"] = BitIndex(canon, self.domain.size, self.K)

    def __len__(self) -> int:
        return len(self.hyps)

    @property
    def is_empty(self) -> bool:
        return not self.mask

    @property
    def bits(self) -> BitIndex:
        """The root's bit index, which mask is over."""
        return self.memo["bits"]

    def with_mask(self, mask: int) -> "DiscreteClass":
        """Subclass of the root with the rows in mask, sharing its memo."""
        rows, hyps, rest = self.bits.rows, [], mask
        while rest:
            low = rest & -rest
            hyps.append(rows[low.bit_length() - 1])
            rest ^= low
        # The rows were checked in the root and come in bit order, which is
        # canonical, so the fields are set past __init__ and its checks.
        sub = object.__new__(DiscreteClass)
        vars(sub).update(vars(self), hyps=tuple(hyps), mask=mask)
        return sub

    def with_hyps(self, hyps: Iterable[Sequence]) -> "DiscreteClass":
        """Subclass of the root with these hypotheses, sharing its memo."""
        try:
            mask = sum({self.bits.bit[tuple(h)] for h in hyps})
        except KeyError as e:
            raise DomainError(f"hypothesis {e.args[0]} is not in the root class") from None
        return self.with_mask(mask)

    def restrict(self, constraints) -> "DiscreteClass":
        """Subclass agreeing with every (point_index, label) constraint.

        Conflicting constraints are legal and yield the empty class.
        """
        eq, mask, K = self.bits.eq, self.mask, self.K
        for i, k in constraints:
            if not (0 <= i < len(eq)):
                raise DomainError(f"point index {i} outside domain")
            if not (1 <= k <= K):
                raise DomainError(f"label {k} outside 1..{K}")
            mask &= eq[i][k]
        return self.with_mask(mask)


def class_order(G: DiscreteClass) -> tuple:
    """Sort key of the canonical class order: larger classes first, then by
    hypothesis list."""
    return (-len(G.hyps), G.hyps)


def canonical_restriction(constraints) -> tuple:
    """Canonical form of a restriction set: sorted (point_index, label) pairs."""
    return tuple(sorted(set((int(i), int(k)) for i, k in constraints)))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted finite set of (point_index, label) atoms; weights sum to 1."""

    atoms: tuple  # of (point_index, label, weight)

    def __post_init__(self):
        total = sum(w for _, _, w in self.atoms)
        if self.atoms and abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {total}, expected 1")
        for _, _, w in self.atoms:
            if w < 0:
                raise DomainError("negative weight")

    @staticmethod
    def from_samples(samples: Sequence) -> "EmpiricalDistribution":
        """Uniform weights over a list of (point_index, label) samples."""
        n = len(samples)
        if n == 0:
            raise DomainError("empty dataset has no empirical distribution")
        return EmpiricalDistribution(tuple((i, y, 1.0 / n) for i, y in samples))


def label_count(eta: float) -> int:
    if not (0.0 < eta < 1.0):
        raise DomainError(f"discretization scale {eta} outside (0,1)")
    return math.ceil(2.0 / eta)


def discretize_value(y: float, eta: float) -> int:
    """Round y in [-1,1] into one of K = ceil(2/eta) integer buckets."""
    K = label_count(eta)
    if not (-1.0 <= y <= 1.0):
        raise DomainError(f"value {y} outside [-1,1]")
    k = 1 + math.floor((y + 1.0) / 2.0 * K)
    # y = 1, and values just below 1 whose y + 1.0 rounds to 2.0, land one
    # past the top bucket.
    return K if k > K else k


def discretize_class(H: RealClass, eta: float) -> DiscreteClass:
    """The discretized class, memoized on H so repeated calls share its memo."""
    return memoized(H.memo, ("discretize_class", H.hyps, eta), lambda: DiscreteClass(
        H.domain, label_count(eta),
        tuple(tuple(discretize_value(v, eta) for v in h) for h in H.hyps)))


def discretize_dataset(samples: Sequence, eta: float) -> list:
    """Per-sample label discretization; order preserved, errors carry the index."""
    out = []
    for idx, (i, y) in enumerate(samples):
        try:
            out.append((i, discretize_value(y, eta)))
        except DomainError as e:
            raise DomainError(f"sample {idx}: {e}") from None
    return out


def abs_error(f: Sequence, P: EmpiricalDistribution) -> float:
    """err_P(f) = sum of weight * |f(x) - y| over the atoms of P."""
    n = len(f)
    total = 0.0
    for i, y, w in P.atoms:
        if not (0 <= i < n):
            raise DomainError(f"atom point index {i} outside hypothesis arity")
        total += w * abs(f[i] - y)
    return total


def min_error(F: DiscreteClass, P: EmpiricalDistribution) -> float:
    if F.is_empty:
        raise DomainError("empty class has no minimum error")
    return min(abs_error(f, P) for f in F.hyps)


def enumerate_restriction_subclasses(F: DiscreteClass) -> list:
    """All extensionally distinct nonempty classes F|_S for finite S.

    Closure of {F} under single-point restrictions; canonical order is
    descending size, then lexicographic hypothesis lists.
    """
    if F.is_empty:
        return []
    masks = {F.mask}
    frontier = [F.mask]
    while frontier:
        mask = frontier.pop()
        for eq in F.bits.eq:
            for e in eq:
                sub = mask & e
                if sub and sub not in masks:
                    masks.add(sub)
                    frontier.append(sub)
    return sorted(map(F.with_mask, masks), key=class_order)


def undisc_hypothesis(g: Sequence, K: int) -> tuple:
    """Map a discrete hypothesis back into [-1,1] via k -> -1 + 2(k-1)/K."""
    for v in g:
        if not (1 <= v <= K):
            raise DomainError(f"label {v} outside 1..{K}")
    return tuple(-1.0 + (2.0 / K) * (v - 1) for v in g)


def sup_distance(g1: Sequence, g2: Sequence) -> int:
    """L-infinity distance between two label vectors."""
    return max(abs(a - b) for a, b in zip(g1, g2))
