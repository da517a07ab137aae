"""Output checks for the benchmark workloads, made apart from the program.

Every check takes plain data (tuples, lists, dicts) and raises CheckError on
the first violation.  The quantities it compares against come from
reference.py or are recomputed here, never from the library.
"""

from __future__ import annotations

import hashlib
import json
import math

from reference import RefClass, check_certificate, discretize, undiscretize


class CheckError(AssertionError):
    """A workload output broke one of the benchmark's checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------------- desk

def winner_id(g_hat) -> str:
    """sha256 of the compact JSON of a label vector."""
    return hashlib.sha256(json.dumps(list(g_hat), separators=(",", ":")).encode()).hexdigest()


def optimal_error(rows, samples, K: int) -> float:
    """min over rows of the mean |f(x) - y|, y discretised by our own rounding."""
    disc = [(i, discretize(y, K)) for i, y in samples]
    return min(sum(abs(f[i] - y) for i, y in disc) / len(disc) for f in rows)


def check_desk(real_hyps, eta: float, epsilon: float, n1: int, m: int,
               samples, out: dict) -> None:
    """One reg_learn output against its input.

    out has "transcript" and, unless the run ended in BOTTOM, "h_hat",
    "g_hat" and "L_hat" (rows).
    """
    K = math.ceil(2.0 / eta)
    rows = {tuple(discretize(v, K) for v in h) for h in real_hyps}
    tr = out["transcript"]
    _require(len(tr["s_sizes"]) == m and len(tr["r_sizes"]) == m,
             f"transcript has {len(tr['s_sizes'])} groups, expected {m}")
    opt = optimal_error(rows, samples[:n1], K)
    bound = 30 * 2 * K / (epsilon * n1)
    _require(abs(tr["eta_hat"] - opt) <= bound,
             f"|eta_hat - OPT_T| = {abs(tr['eta_hat'] - opt):.4g} exceeds {bound:.4g}")
    if tr["winner"] is None:
        _require("g_hat" not in out, "a BOTTOM run returned a hypothesis")
        return
    g_hat = tuple(out["g_hat"])
    _require(tr["winner"] == winner_id(g_hat), "winner is not the hash of g_hat")
    expect = undiscretize(g_hat, K)
    _require(len(out["h_hat"]) == len(expect)
             and all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(out["h_hat"], expect)),
             f"h_hat {out['h_hat']} is not g_hat {g_hat} mapped back")
    L_hat = [tuple(r) for r in out["L_hat"]]
    _require(bool(L_hat), "L_hat is empty")
    for r in L_hat:
        _require(r in rows, f"L_hat row {r} is not in the discretised class")
    for i, k in enumerate(g_hat):
        _require(any(r[i] == k for r in L_hat), f"g_hat label {k} at point {i} not taken by L_hat")


def check_same_run(a: dict, b: dict) -> None:
    """Two runs of one seed on one dataset must give identical outputs."""
    _require(a == b, "the same seed and dataset gave different outputs")


# ----------------------------------------------------------------- ladder

def check_ladder(hyps, K: int, out: dict) -> None:
    """sfat2, level >= 1 and the restriction subclasses of one class.

    out has "sfat2", "level" (a number or math.inf) and "subclasses" (a list
    of hypothesis lists).
    """
    ref = RefClass(hyps, K)
    full = ref.full
    d = ref.sfat2(full)
    cert = ref.certificate(full)
    _require(check_certificate(hyps, cert, d), "reference certificate does not shatter")
    # The certificate gives d <= sfat2, and d <= floor(log2 |F|) by the
    # reference's cap; the library must give exactly d.
    got = out["sfat2"]
    _require(got == d, f"sfat2 {got} differs from the reference {d}, which a certificate "
             f"shows and floor(log2 |F|) = {len(hyps).bit_length() - 1} caps")
    keeps = all(ref.keeps_dim(full, i) for i in range(ref.npoints))
    _require((out["level"] >= 1) == keeps,
             f"level {out['level']} but a dimension-keeping label at every point is {keeps}")
    try:
        masks = [ref.mask_of(G) for G in out["subclasses"]]
    except KeyError as e:
        raise CheckError(f"subclass holds a hypothesis outside F: {e}") from None
    _require(len(masks) == len(set(masks)), "subclass list has duplicates")
    closure = ref.restriction_closure(full)
    _require(len(masks) == len(closure),
             f"{len(masks)} subclasses, the independent closure has {len(closure)}")
    _require(set(masks) == closure, "subclasses differ from the independent closure")


# ----------------------------------------------------------------- filter

def check_filter(hyps, K: int, tau_max: int, g_hats, out: dict) -> None:
    """filter_step levels and soa_filter members of one class.

    out has "levels" ({b: list of classes}) and "members" (one list of
    classes per g_hat); a class is a list of hypotheses.
    """
    ref = RefClass(hyps, K)

    def mask(G) -> int:
        try:
            return ref.mask_of(G)
        except KeyError as e:
            raise CheckError(f"class holds a hypothesis outside F: {e}") from None

    for b, classes in out["levels"].items():
        for G in classes:
            mk = mask(G)
            _require(ref.sfat2(mk) == b, f"filter_step level {b} holds a class of sfat2 {ref.sfat2(mk)}")
            _require(ref.constant_restriction(mk) == mk,
                     "filter_step class is not a restriction of F")
    _require(len(out["members"]) == len(g_hats), "one member list per g_hat expected")
    for g_hat, members in zip(g_hats, out["members"]):
        for L in members:
            mk = mask(L)
            _require(mk != 0, "empty member")
            _require(ref.constant_restriction(mk) == mk,
                     "member is not F restricted to its own constant coordinates")
            _require(ref.is_irreducible(mk, 1), "member is not 1-irreducible")
            dist = max(abs(a - b) for a, b in zip(ref.soa(mk), g_hat))
            _require(dist <= tau_max, f"member soa is {dist} from g_hat, tau_max {tau_max}")
