"""Exact sequential and i.i.d. fat-shattering dimensions with certificates.

sfat2 on integer-labeled classes uses the threshold recursion

    sfat2(F) = max over points x and integer thresholds s in {2..K-1} of
               1 + min(sfat2({f: f(x) >= s+1}), sfat2({f: f(x) <= s-1}))

when both restricted classes are nonempty (0 for nonempty F otherwise, -1 for
empty F).  Integer thresholds suffice: any real witness value induces the same
or smaller child classes than the nearest integer in {2..K-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import DiscreteClass, DomainError, RealClass, memoized


def _split(hyps: tuple, i: int, lo: float, hi: float) -> tuple:
    """(functions with f(x_i) >= hi, functions with f(x_i) <= lo)."""
    up = tuple(h for h in hyps if h[i] >= hi)
    down = tuple(h for h in hyps if h[i] <= lo)
    return up, down


def sfat2(F: DiscreteClass) -> int:
    """Sequential fat-shattering dimension at scale 2; -1 for the empty class."""
    return _sfat2_rec(F.hyps, F.domain.size, F.K, F.memo)


def _sfat2_rec(hyps: tuple, npoints: int, K: int, memo: dict) -> int:
    return memoized(memo, ("sfat2", hyps), _sfat2_best_split, hyps, npoints, K, memo)


def _sfat2_best_split(hyps: tuple, npoints: int, K: int, memo: dict) -> int:
    if not hyps:
        return -1
    best = 0
    for i in range(npoints):
        values = sorted({h[i] for h in hyps})
        if len(values) < 2:
            continue
        for s in range(2, K):
            up, down = _split(hyps, i, s - 1, s + 1)
            if not up or not down:
                continue
            cand = 1 + min(_sfat2_rec(up, npoints, K, memo),
                           _sfat2_rec(down, npoints, K, memo))
            if cand > best:
                best = cand
    return best


@dataclass(frozen=True)
class CertNode:
    """Node of a shattering certificate: the point, a real witness value, and
    the two subtrees (high side first, per edge label k=1)."""

    point_index: int
    witness: float
    high: "CertNode | None"
    low: "CertNode | None"

    @property
    def depth(self) -> int:
        sub = 0
        if self.high is not None:
            sub = max(sub, self.high.depth)
        if self.low is not None:
            sub = max(sub, self.low.depth)
        return 1 + sub


def extract_sfat_certificate(F: DiscreteClass) -> CertNode:
    """Depth-sfat2(F) certificate rebuilt from the recursion's argmax choices."""
    d = sfat2(F)
    if d < 1:
        raise DomainError(f"no certificate: sfat2 = {d} < 1")

    def build(hyps: tuple, depth: int):
        if depth == 0:
            return None
        for i in range(F.domain.size):
            for s in range(2, F.K):
                up, down = _split(hyps, i, s - 1, s + 1)
                if not up or not down:
                    continue
                if min(_sfat2_rec(up, F.domain.size, F.K, F.memo),
                       _sfat2_rec(down, F.domain.size, F.K, F.memo)) >= depth - 1:
                    return CertNode(i, float(s), build(up, depth - 1), build(down, depth - 1))
        raise AssertionError("recursion promised a shattering split")

    return build(F.hyps, d)


def verify_certificate(F: DiscreteClass, cert: CertNode, alpha: float = 2.0) -> bool:
    """Exhaustive Definition-style check: every leaf path admits a hypothesis
    meeting the margin (3-2k)(f(x)-s) >= alpha/2 at all ancestors."""
    if F.is_empty:
        return False

    def shape_depth(node):
        if node is None:
            return 0
        if (node.high is None) != (node.low is None):
            raise DomainError("certificate tree is not complete")
        a, b = shape_depth(node.high), shape_depth(node.low)
        if a != b:
            raise DomainError("certificate tree is not complete")
        return 1 + a

    shape_depth(cert)

    def ok(node, hyps) -> bool:
        if node is None:
            return bool(hyps)
        i, s = node.point_index, node.witness
        up = tuple(h for h in hyps if h[i] - s >= alpha / 2)
        down = tuple(h for h in hyps if s - h[i] >= alpha / 2)
        return ok(node.high, up) and ok(node.low, down)

    return ok(cert, F.hyps)


def _midpoint_thresholds(values) -> list:
    """Candidate witness values: midpoints of realized value pairs."""
    vals = sorted(set(values))
    out = set()
    for a in vals:
        for b in vals:
            out.add((a + b) / 2.0)
    return sorted(out)


def fat_alpha(H: RealClass, alpha: float) -> int:
    """Exact i.i.d. fat-shattering dimension at margin alpha.

    Searches point subsets with per-point thresholds drawn from midpoints of
    realized value pairs, with early pruning on unsplittable points.  The
    result is memoized on H.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return memoized(H.memo, ("fat_alpha", H.hyps, alpha), _fat_alpha, H, alpha)


def _fat_alpha(H: RealClass, alpha: float) -> int:
    if not H.hyps:
        return -1
    n = H.domain.size
    hyps = H.hyps

    usable = []
    for i in range(n):
        cands = [s for s in _midpoint_thresholds(h[i] for h in hyps)
                 if any(h[i] >= s + alpha for h in hyps)
                 and any(h[i] <= s - alpha for h in hyps)]
        if cands:
            usable.append((i, cands))

    def shattered(points_thresholds) -> bool:
        d = len(points_thresholds)
        for b in range(2 ** d):
            bits = [(b >> j) & 1 for j in range(d)]
            if not any(
                all((h[i] >= s + alpha) if bit else (h[i] <= s - alpha)
                    for (i, s), bit in zip(points_thresholds, bits))
                for h in hyps
            ):
                return False
        return True

    best = 0

    def search_exact(start: int, chosen: list) -> None:
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (len(usable) - start) <= best:
            return
        for idx in range(start, len(usable)):
            i, cands = usable[idx]
            for s in cands:
                trial = chosen + [(i, s)]
                if shattered(trial):
                    search_exact(idx + 1, trial)

    search_exact(0, [])
    return best


def sfat_alpha(H: RealClass, alpha: float) -> int:
    """Exact sequential fat-shattering dimension at margin alpha for real classes.

    Same recursion as sfat2 with real thresholds enumerated over midpoints of
    realized value pairs and required gap alpha/2 on each side.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    memo: dict = {}

    def rec(hyps: tuple) -> int:
        if not hyps:
            return -1
        cached = memo.get(hyps)
        if cached is not None:
            return cached
        best = 0
        for i in range(H.domain.size):
            for s in _midpoint_thresholds(h[i] for h in hyps):
                up = tuple(h for h in hyps if h[i] - s >= alpha / 2)
                down = tuple(h for h in hyps if s - h[i] >= alpha / 2)
                if not up or not down:
                    continue
                cand = 1 + min(rec(up), rec(down))
                if cand > best:
                    best = cand
        memo[hyps] = best
        return best

    return rec(H.hyps)
