"""Exact sequential and i.i.d. fat-shattering dimensions with certificates.

sfat2 on integer-labeled classes uses the threshold recursion

    sfat2(F) = max over points x and integer thresholds s in {2..K-1} of
               1 + min(sfat2({f: f(x) >= s+1}), sfat2({f: f(x) <= s-1}))

when both restricted classes are nonempty (0 for nonempty F otherwise, -1 for
empty F).  Integer thresholds suffice: any real witness value induces the same
or smaller child classes than the nearest integer in {2..K-1}.

The recursion runs on bit masks over the root's rows, one (up, down) mask
pair per threshold split, and keeps its values in one dict per root, keyed by
mask; the splits and that dict are the root's memo entry "sfat2".  A query
(sfat2, or sfat2_mask with no class built) reads that entry once and looks
its mask up in the dict, and runs the recursion only on a miss.  A depth-r
tree needs 2^r hypotheses, so sfat2(G) <= floor(log2 |G|): the search over
G's splits stops once it reaches that cap, and skips any split whose smaller
side has fewer than 2^best rows, since such a split cannot beat the best one
found so far.  Both prunings are exact.

fat_alpha runs on masks too: each point keeps the distinct (up, down) row
masks of its thresholds, less any pair inside another on both sides, and the
search splits every cell of a partition of the rows by one pair per point, in
point order.  A set is shattered exactly when every cell stays nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import DiscreteClass, DomainError, RealClass, memoized


def sfat2(F: DiscreteClass) -> int:
    """Sequential fat-shattering dimension at scale 2; -1 for the empty class."""
    return sfat2_mask(F, F.mask)


def sfat2_mask(F: DiscreteClass, mask: int) -> int:
    """sfat2 of the rows in mask of F's root, with no class built for them."""
    context = F.memo.get("sfat2")
    if context is None:
        context = _context(F)
    value = context[1].get(mask)
    return _sfat(*context, mask) if value is None else value


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


def verify_certificate(F: DiscreteClass, cert: CertNode) -> bool:
    """Exhaustive Definition-style check: every leaf path admits a hypothesis
    meeting the margin (3-2k)(f(x)-s) >= 1 at all ancestors."""
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
        up = tuple(h for h in hyps if h[i] - s >= 1)
        down = tuple(h for h in hyps if s - h[i] >= 1)
        return ok(node.high, up) and ok(node.low, down)

    return ok(cert, F.hyps)


def _midpoint_thresholds(values) -> list:
    """Candidate witness values: midpoints of realized value pairs."""
    vals = set(values)
    return sorted({(a + b) / 2.0 for a in vals for b in vals})


def fat_alpha(H: RealClass, alpha: float) -> int:
    """Exact i.i.d. fat-shattering dimension at margin alpha, memoized on H.

    A threshold s, a midpoint of realized values at point i, sends the rows
    with h[i] >= s + alpha up and those with h[i] <= s - alpha down.  A branch
    of the cell-refinement search stops once its points left or its smallest
    cell cannot beat the best depth.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return memoized(H.memo, ("fat_alpha", H.hyps, alpha), _fat_alpha, H, alpha)


def _fat_alpha(H: RealClass, alpha: float) -> int:
    if not H.hyps:
        return -1
    rows = H.hyps
    points = []
    for i in range(H.domain.size):
        pairs = dict.fromkeys(
            (sum(1 << j for j, h in enumerate(rows) if h[i] >= s + alpha),
             sum(1 << j for j, h in enumerate(rows) if h[i] <= s - alpha))
            for s in _midpoint_thresholds(h[i] for h in rows))
        # A pair inside another on both sides shatters no set the other does not.
        kept = [(u, d) for u, d in pairs if u and d and not any(
            (u, d) != q and u & q[0] == u and d & q[1] == d for q in pairs)]
        if kept:
            points.append(kept)
    best = 0

    def search(start: int, cells: list, chosen: int) -> None:
        nonlocal best
        best = max(best, chosen)
        # A cell of c rows splits at most floor(log2 c) more times.
        room = min(c.bit_count() for c in cells).bit_length() - 1
        if chosen + min(len(points) - start, room) <= best:
            return
        for idx in range(start, len(points)):
            for up, down in points[idx]:
                split = [c & side for c in cells for side in (up, down)]
                if all(split):
                    search(idx + 1, split, chosen + 1)

    search(0, [(1 << len(rows)) - 1], 0)
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
