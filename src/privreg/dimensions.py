"""Exact sequential and i.i.d. fat-shattering dimensions with certificates.

sfat2 on integer-labeled classes uses the threshold recursion

    sfat2(F) = max over points x and integer thresholds s in {2..K-1} of
               1 + min(sfat2({f: f(x) >= s+1}), sfat2({f: f(x) <= s-1}))

when both restricted classes are nonempty (0 for nonempty F otherwise, -1 for
empty F).  Integer thresholds suffice: any real witness value induces the same
or smaller child classes than the nearest integer in {2..K-1}.

The recursion runs on bit masks over the root's rows, one (up, down) mask
pair per threshold split, and keeps its values in one dict per root, keyed by
mask.  A depth-r tree needs 2^r hypotheses, so sfat2(G) <= floor(log2 |G|):
the search over G's splits stops once it reaches that cap, and skips any
split whose smaller side has fewer than 2^best rows, since such a split
cannot beat the best one found so far.  Both prunings are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import DiscreteClass, DomainError, RealClass, memoized


def sfat2(F: DiscreteClass) -> int:
    """Sequential fat-shattering dimension at scale 2; -1 for the empty class."""
    splits, dims = _context(F)
    return _sfat(splits, dims, F.mask)


def _context(F: DiscreteClass) -> tuple:
    """The root's integer-threshold splits and its sfat2 values by mask."""
    return memoized(F.memo, "sfat2", lambda: (_split_masks(
        F.bits.rows, [(i, s) for i in range(F.domain.size) for s in range(2, F.K)], 1), {}))


def _split_masks(rows: tuple, thresholds: list, margin: float) -> list:
    """(i, s, up, down) for each threshold s at point i, in the given order:
    up holds the rows with h[i] - s >= margin, down those with s - h[i] >=
    margin.  A split with an empty side on all rows is left out."""
    out = []
    for i, s in thresholds:
        up = sum(1 << j for j, h in enumerate(rows) if h[i] - s >= margin)
        down = sum(1 << j for j, h in enumerate(rows) if s - h[i] >= margin)
        if up and down:
            out.append((i, s, up, down))
    return out


def _sfat(splits: list, dims: dict, mask: int) -> int:
    """sfat2 of the rows in mask, memoized in dims."""
    best = dims.get(mask)
    if best is not None:
        return best
    # A depth-r tree needs 2^r rows, so floor(log2 |G|) caps the value; for
    # the empty mask the cap is -1.
    cap = mask.bit_count().bit_length() - 1
    best = min(cap, 0)
    for _, _, up, down in splits:
        if best == cap:
            break
        up, down = up & mask, down & mask
        # A split beats best only if both sides hold 2^best rows.
        if not up or not down or min(up.bit_count(), down.bit_count()).bit_length() <= best:
            continue
        best = max(best, 1 + min(_sfat(splits, dims, up), _sfat(splits, dims, down)))
    dims[mask] = best
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

    splits, dims = _context(F)

    def build(mask: int, depth: int):
        if depth == 0:
            return None
        for i, s, up, down in splits:
            up, down = up & mask, down & mask
            if up and down and min(_sfat(splits, dims, up),
                                   _sfat(splits, dims, down)) >= depth - 1:
                return CertNode(i, float(s), build(up, depth - 1), build(down, depth - 1))
        raise AssertionError("recursion promised a shattering split")

    return build(F.mask, d)


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
    realized value pairs and required gap alpha/2 on each side.  A subclass's
    own midpoints realize each of its splits (the midpoint of the lowest high
    value and the highest low value), so the class's midpoints serve them all.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    rows = H.hyps
    thresholds = [(i, s) for i in range(H.domain.size)
                  for s in _midpoint_thresholds(h[i] for h in rows)]
    return _sfat(_split_masks(rows, thresholds, alpha / 2), {}, (1 << len(rows)) - 1)
