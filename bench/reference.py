"""Independent reference combinatorics for the benchmark's checks.

Written apart from the library: a class is a list of label vectors, and a
subclass is an int bitmask over their indices.  Nothing here imports privreg,
so a fault in the library cannot hide itself in its own check.

Definitions (alpha = 2, labels 1..K):
  sfat2(G) = -1 if G is empty, else the largest depth of a complete binary
  tree of (point, threshold s) nodes such that every root-to-leaf path is
  realised by some h in G with h(x) >= s+1 on high edges and h(x) <= s-1
  on low edges.
"""

from __future__ import annotations

import math

INFINITE = math.inf


class RefClass:
    """A finite class of label vectors with memoised reference quantities."""

    def __init__(self, hyps, K: int):
        self.hyps = [tuple(h) for h in hyps]
        if len(set(self.hyps)) != len(self.hyps):
            raise ValueError("reference class needs distinct hypotheses")
        self.index = {h: j for j, h in enumerate(self.hyps)}
        self.K = K
        self.npoints = len(self.hyps[0]) if self.hyps else 0
        self.full = (1 << len(self.hyps)) - 1
        # eq[i][k]: hypotheses with h[i] == k; ge/le: h[i] >= s, h[i] <= s.
        self.eq = [[0] * (K + 2) for _ in range(self.npoints)]
        for j, h in enumerate(self.hyps):
            for i, v in enumerate(h):
                if not 1 <= v <= K:
                    raise ValueError(f"label {v} outside 1..{K}")
                self.eq[i][v] |= 1 << j
        self.ge = [[0] * (K + 2) for _ in range(self.npoints)]
        self.le = [[0] * (K + 2) for _ in range(self.npoints)]
        for i in range(self.npoints):
            for s in range(K, 0, -1):
                self.ge[i][s] = self.ge[i][s + 1] | self.eq[i][s]
            for s in range(1, K + 1):
                self.le[i][s] = self.le[i][s - 1] | self.eq[i][s]
        self._dim: dict = {}
        self._irred: dict = {}

    def mask_of(self, hyps) -> int:
        """Mask of a subclass given as hypotheses; KeyError if one is not in F."""
        mask = 0
        for h in hyps:
            mask |= 1 << self.index[tuple(h)]
        return mask

    def members(self, mask: int) -> list:
        return [h for j, h in enumerate(self.hyps) if mask >> j & 1]

    # ------------------------------------------------------------ sfat2

    def sfat2(self, mask: int) -> int:
        """Exact sfat2 of a subclass, by the threshold recursion.

        A depth-r tree needs 2^r distinct hypotheses, so floor(log2 |G|) caps
        the value and the search stops once it is reached.
        """
        if mask == 0:
            return -1
        got = self._dim.get(mask)
        if got is not None:
            return got
        cap = mask.bit_count().bit_length() - 1
        best = 0
        for i in range(self.npoints):
            if best >= cap:
                break
            for s in range(2, self.K):
                up = mask & self.ge[i][s + 1]
                down = mask & self.le[i][s - 1]
                if not up or not down:
                    continue
                # 1 + min(...) can beat best only if both sides are big enough.
                if min(up.bit_count(), down.bit_count()).bit_length() <= best:
                    continue
                cand = 1 + min(self.sfat2(up), self.sfat2(down))
                if cand > best:
                    best = cand
                    if best >= cap:
                        break
        self._dim[mask] = best
        return best

    def certificate(self, mask: int):
        """A shattering tree of depth sfat2(mask): (point, s, high, low) or None."""
        depth = self.sfat2(mask)
        if depth < 1:
            return None

        def build(m: int, r: int):
            if r == 0:
                return None
            for i in range(self.npoints):
                for s in range(2, self.K):
                    up = m & self.ge[i][s + 1]
                    down = m & self.le[i][s - 1]
                    if up and down and min(self.sfat2(up), self.sfat2(down)) >= r - 1:
                        return (i, s, build(up, r - 1), build(down, r - 1))
            raise AssertionError("no split realises the computed dimension")

        return build(mask, depth)

    # ------------------------------------------------- irreducibility, soa

    def keeps_dim(self, mask: int, i: int) -> list:
        """Labels k at point i whose restriction keeps sfat2 (nonempty)."""
        d = self.sfat2(mask)
        return [k for k in range(1, self.K + 1)
                if (sub := mask & self.eq[i][k]) and self.sfat2(sub) == d]

    def is_irreducible(self, mask: int, l: int) -> bool:
        if l == 0 or mask == 0 or self.sfat2(mask) == 0:
            return True
        key = (mask, l)
        got = self._irred.get(key)
        if got is None:
            d = self.sfat2(mask)
            got = all(
                any((sub := mask & self.eq[i][k]) and self.sfat2(sub) == d
                    and self.is_irreducible(sub, l - 1)
                    for k in range(1, self.K + 1))
                for i in range(self.npoints))
            self._irred[key] = got
        return got

    def level(self, mask: int):
        """Largest l <= |G| with G l-irreducible; INFINITE when sfat2 <= 0."""
        if self.sfat2(mask) <= 0:
            return INFINITE
        level = 0
        while level < mask.bit_count() and self.is_irreducible(mask, level + 1):
            level += 1
        return level

    def soa(self, mask: int) -> tuple:
        """Standard optimal labeling of a nonempty 1-irreducible subclass:
        the sfat2-keeping label at each point; of two, the one whose
        restriction has the higher level, else the smaller label."""
        out = []
        for i in range(self.npoints):
            keep = self.keeps_dim(mask, i)
            if not keep:
                raise ValueError(f"no label keeps sfat2 at point {i}")
            if len(keep) == 1:
                out.append(keep[0])
            else:
                k1, k2 = keep[0], keep[1]
                lv1 = self.level(mask & self.eq[i][k1])
                lv2 = self.level(mask & self.eq[i][k2])
                out.append(k2 if lv2 > lv1 else k1)
        return tuple(out)

    # ------------------------------------------------------- subclasses

    def restriction_closure(self, mask: int) -> set:
        """Every distinct nonempty F|S for finite S, as masks."""
        if mask == 0:
            return set()
        seen = {mask}
        frontier = [mask]
        while frontier:
            m = frontier.pop()
            for i in range(self.npoints):
                for k in range(1, self.K + 1):
                    sub = m & self.eq[i][k]
                    if sub and sub not in seen:
                        seen.add(sub)
                        frontier.append(sub)
        return seen

    def constant_restriction(self, mask: int) -> int:
        """F restricted to the coordinates on which the subclass is constant."""
        rows = self.members(mask)
        out = self.full
        for i in range(self.npoints):
            values = {h[i] for h in rows}
            if len(values) == 1:
                out &= self.eq[i][values.pop()]
        return out


def check_certificate(hyps, cert, depth: int) -> bool:
    """Definition check: cert is a complete binary tree of the given depth
    and every root-to-leaf path is realised with margin 1 by some h."""

    def shape(node) -> int:
        if node is None:
            return 0
        _, _, high, low = node
        a, b = shape(high), shape(low)
        if a != b:
            raise ValueError("certificate tree is not complete")
        return 1 + a

    if depth < 1:
        return cert is None and bool(hyps)
    if shape(cert) != depth:
        return False

    def realised(node, rows) -> bool:
        if node is None:
            return bool(rows)
        i, s, high, low = node
        return (realised(high, [h for h in rows if h[i] >= s + 1])
                and realised(low, [h for h in rows if h[i] <= s - 1]))

    return realised(cert, [tuple(h) for h in hyps])


def discretize(y: float, K: int) -> int:
    """Bucket of y in [-1, 1] among K equal-width buckets, 1-based."""
    if y >= 1.0:
        return K
    return 1 + int((y + 1.0) * K / 2.0)


def undiscretize(g, K: int) -> tuple:
    return tuple(-1.0 + 2.0 * (k - 1) / K for k in g)
