"""Command-line entry point: seeded experiment commands over JSON artifacts.

Every command reads a JSON config, writes a JSON report whose "body" section
is byte-identical across re-runs with the same config and seed (wall time and
timestamp live in "meta"), and maps typed failures to documented exit codes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
import warnings

from . import __version__
from .classes import DiscreteClass, Domain, DomainError, EmpiricalDistribution, RealClass
from .dimensions import fat_alpha, sfat2, sfat_alpha
from .dp import BOTTOM, PrivacyParams, SelectionInstance, dp_audit, sparse_select
from .filtering import LadderSchedule, filter_step, soa_filter
from .irreducibility import INFINITE, irreducibility_level, is_l_irreducible, soa
from .oracles import oracle_agreement_grid
from .pipeline import (RegLearnConfig, RunFailure, TheoreticalScaleError,
                       excess_risk, reg_learn)
from .tree_learner import ReduceTreeError, ReduceTreeParams, reduce_tree_reg

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_REDUCE_TREE_ERROR = 4
EXIT_BOTTOM = 5

_EPILOG = """exit codes:
  0  success
  1  internal error, a bug in privreg (one line: "internal error: <Type>: <msg>")
  2  schema or config error (bad JSON, unknown keys, invalid values)
  3  precondition violation (domain errors, scale refusal, missing seed)
  4  reduce-tree learner signalled ERROR (empty level classes)
  5  sparse selection returned BOTTOM (no consensus candidate)
"""


class SchemaError(ValueError):
    pass


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")


_DEFAULTS = {"chi": 5, "random_classes": 50}


def _number(cfg: dict, key: str, kind):
    """cfg[key], or its default when absent, converted by kind (int or float);
    an int must not have a fractional part, and JSON true/false is no number."""
    value = cfg.get(key, _DEFAULTS.get(key))
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"config: {key!r} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def load_class_file(path: str):
    """Parse a hypothesis-class JSON file into a RealClass or DiscreteClass."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be an object")
    _require_keys(obj, {"domain", "K", "real", "hypotheses"},
                  {"domain", "hypotheses"}, path)
    domain = obj["domain"]
    if (not isinstance(domain, list) or not domain
            or not all(isinstance(p, str) for p in domain)):
        raise SchemaError(f"{path}: field 'domain' must be a nonempty list of strings")
    hyps = obj["hypotheses"]
    if not isinstance(hyps, list):
        raise SchemaError(f"{path}: field 'hypotheses' must be a list")
    for row_no, h in enumerate(hyps):
        if not isinstance(h, list) or len(h) != len(domain):
            raise SchemaError(
                f"{path}: hypothesis {row_no} must be a list of {len(domain)} values")
    if len({tuple(h) for h in hyps}) < len(hyps):
        warnings.warn(f"{path}: duplicate hypotheses removed")
    dom = Domain(tuple(domain))
    if obj.get("real"):
        if "K" in obj:
            raise SchemaError(f"{path}: 'real' and 'K' are mutually exclusive")
        for row_no, h in enumerate(hyps):
            for v in h:
                if type(v) not in (int, float) or not -1.0 <= v <= 1.0:
                    raise SchemaError(
                        f"{path}: hypothesis {row_no}: value {v!r} outside [-1,1]")
        return RealClass(dom, tuple(tuple(float(v) for v in h) for h in hyps))
    K = obj.get("K")
    if type(K) is not int or K < 1:  # JSON true/false load as bools, which are ints
        raise SchemaError(f"{path}: field 'K' must be a positive integer")
    for row_no, h in enumerate(hyps):
        for v in h:
            if type(v) is not int or not 1 <= v <= K:
                raise SchemaError(
                    f"{path}: hypothesis {row_no}: label {v!r} outside [1..{K}]")
    return DiscreteClass(dom, K, tuple(tuple(h) for h in hyps))


def load_dataset_file(path: str, domain: Domain) -> list:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be an object")
    _require_keys(obj, {"samples"}, {"samples"}, path)
    samples = obj["samples"]
    if not isinstance(samples, list):
        raise SchemaError(f"{path}: field 'samples' must be a list")
    out = []
    for row_no, row in enumerate(samples):
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"{path}: sample {row_no} must be [point_id, y]")
        pid, y = row
        if pid not in domain.points:
            raise SchemaError(f"{path}: sample {row_no}: unknown point {pid!r}")
        if type(y) not in (int, float):
            raise SchemaError(f"{path}: sample {row_no}: label {y!r} not numeric")
        out.append((domain.index(pid), float(y)))
    return out


def _digest(config: dict, files: dict) -> str:
    payload = json.dumps({"config": config, "files": files}, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def _as_discrete(cls) -> DiscreteClass:
    if isinstance(cls, DiscreteClass):
        return cls
    raise DomainError("this command requires a discrete class (integer labels)")


def _schedule_from(cfg: dict) -> LadderSchedule:
    return LadderSchedule(_number(cfg, "ell_bar", int), _number(cfg, "r_max", int),
                          _number(cfg, "tau_max", int), _number(cfg, "chi", int))


def _cmd_dims(cfg: dict, seed):
    _require_keys(cfg, {"class", "alpha"}, {"class"}, "config")
    cls = load_class_file(cfg["class"])
    if isinstance(cls, DiscreteClass):
        return {"sfat2": sfat2(cls)}
    if cfg.get("alpha") is None:
        raise SchemaError("config: real classes need 'alpha' for dimensions")
    alpha = _number(cfg, "alpha", float)
    return {"fat_alpha": fat_alpha(cls, alpha), "sfat_alpha": sfat_alpha(cls, alpha)}


def _cmd_irred(cfg: dict, seed):
    _require_keys(cfg, {"class", "l"}, {"class", "l"}, "config")
    F = _as_discrete(load_class_file(cfg["class"]))
    level = irreducibility_level(F)
    return {"l": cfg["l"], "irreducible": is_l_irreducible(F, _number(cfg, "l", int)),
            "level": "infinite" if level == INFINITE else level}


def _cmd_soa(cfg: dict, seed):
    _require_keys(cfg, {"class"}, {"class"}, "config")
    F = _as_discrete(load_class_file(cfg["class"]))
    return {"soa": list(soa(F))}


def _cmd_reduce_tree(cfg: dict, seed):
    _require_keys(cfg, {"class", "dataset", "alpha1", "alpha_delta", "ell_prime"},
                  {"class", "dataset", "alpha1", "alpha_delta", "ell_prime"},
                  "config")
    F = _as_discrete(load_class_file(cfg["class"]))
    data = load_dataset_file(cfg["dataset"], F.domain)
    for i, y in data:
        if not (y.is_integer() and 1 <= y <= F.K):
            raise SchemaError(f"dataset label {y} is not an integer in [1..{F.K}]")
    samples = [(i, int(y)) for i, y in data]
    emp = EmpiricalDistribution.from_samples(samples)
    params = ReduceTreeParams(_number(cfg, "alpha1", float), _number(cfg, "alpha_delta", float),
                              _number(cfg, "ell_prime", int))
    out = reduce_tree_reg(F, emp, params)
    return {"t_final": out.t_final,
            "candidate_set": [list(g) for g in out.candidate_set],
            "tree": out.tree.to_json(F.domain)}


def _cmd_filter(cfg: dict, seed):
    _require_keys(cfg, {"class", "ell_bar", "r_max", "tau_max", "chi"},
                  {"class", "ell_bar", "r_max", "tau_max"}, "config")
    F = _as_discrete(load_class_file(cfg["class"]))
    filtered = filter_step(F, _schedule_from(cfg), _number(cfg, "r_max", int))
    return {"levels": {str(b): [list(map(list, L.hyps)) for L in classes]
                       for b, classes in sorted(filtered.levels.items())}}


def _cmd_soafilter(cfg: dict, seed):
    _require_keys(cfg, {"class", "g_hat", "ell_bar", "r_max", "tau_max", "chi"},
                  {"class", "g_hat", "ell_bar", "r_max", "tau_max"}, "config")
    F = _as_discrete(load_class_file(cfg["class"]))
    g_hat = cfg["g_hat"]
    if (not isinstance(g_hat, list) or len(g_hat) != F.domain.size
            or not all(type(v) is int and 1 <= v <= F.K for v in g_hat)):
        raise SchemaError(f"config: 'g_hat' must be {F.domain.size} labels in [1..{F.K}]")
    rep = soa_filter(F, tuple(g_hat), _schedule_from(cfg))
    return {"members": [list(map(list, L.hyps)) for L in rep.members]}


def _cmd_reglearn(cfg: dict, seed):
    allowed = {"class", "dataset", "test_dataset", "epsilon", "delta", "eta_bar",
               "beta", "ell_bar", "chi", "m", "n0", "n1", "ell_prime"}
    _require_keys(cfg, allowed, {"class", "dataset", "epsilon", "delta",
                                 "eta_bar", "beta", "ell_bar"}, "config")
    cls = load_class_file(cfg["class"])
    if not isinstance(cls, RealClass):
        raise DomainError("reglearn requires a real-valued class file")
    data = load_dataset_file(cfg["dataset"], cls.domain)
    rc = RegLearnConfig(
        epsilon=_number(cfg, "epsilon", float), delta=_number(cfg, "delta", float),
        eta_bar=_number(cfg, "eta_bar", float), beta=_number(cfg, "beta", float),
        ell_bar=_number(cfg, "ell_bar", int), chi=_number(cfg, "chi", int),
        **{key: _number(cfg, key, int) for key in ("m", "n0", "n1", "ell_prime")
           if key in cfg})
    out = reg_learn(cls, data, rc, seed=seed)
    body = {"h_hat": list(out.h_hat), "g_hat": list(out.g_hat),
            "L_hat": [list(h) for h in out.L_hat.hyps],
            "transcript": out.transcript,
            "resolved": {"K": out.params.K, "d": out.params.d, "m": out.params.m,
                         "n0": out.params.n0, "n1": out.params.n1,
                         "ell_prime": out.params.ell_prime,
                         "overridden": list(out.params.overridden)}}
    if "test_dataset" in cfg:
        test = load_dataset_file(cfg["test_dataset"], cls.domain)
        body["excess_risk"] = excess_risk(out.h_hat, test, cls)
    return body


def _cmd_audit(cfg: dict, seed):
    _require_keys(cfg, {"users", "users_prime", "sparsity", "epsilon", "delta",
                        "trials"},
                  {"users", "users_prime", "sparsity", "epsilon", "delta",
                   "trials"}, "config")
    users, users_p = cfg["users"], cfg["users_prime"]
    for name, u in (("users", users), ("users_prime", users_p)):
        if not isinstance(u, list) or not all(isinstance(s, list) for s in u):
            raise SchemaError(f"config: '{name}' must be a list of candidate lists")
    priv = PrivacyParams(_number(cfg, "epsilon", float), _number(cfg, "delta", float))
    sparsity = _number(cfg, "sparsity", int)

    def mech(dataset, rng):
        inst = SelectionInstance([list(s) for s in dataset], sparsity)
        got = sparse_select(inst, priv, rng)
        return "BOTTOM" if got is BOTTOM else got

    report = dp_audit(mech, [tuple(s) for s in users], [tuple(s) for s in users_p],
                      priv, _number(cfg, "trials", int), seed)
    return {"violation": report.violation, "trials": report.trials,
            "events": report.events}


def _cmd_oracle_check(cfg: dict, seed):
    _require_keys(cfg, {"random_classes"}, set(), "config")
    dom2 = Domain(("a", "b"))
    grid = [DiscreteClass(dom2, 3, sub)
            for r in range(10)
            for sub in itertools.combinations(
                list(itertools.product(range(1, 4), repeat=2)), r)]
    report = oracle_agreement_grid(grid)
    n_random = _number(cfg, "random_classes", int)
    rng = random.Random(seed)
    dom3 = Domain(("a", "b", "c"))
    rand_classes = []
    for _ in range(n_random):
        n = rng.randint(0, 12)
        hyps = {tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(n)}
        rand_classes.append(DiscreteClass(dom3, 4, tuple(sorted(hyps))))
    report_r = oracle_agreement_grid(rand_classes)
    disagreements = report["disagreements"] + report_r["disagreements"]
    return {"exhaustive_checked": report["checked"],
            "random_checked": report_r["checked"],
            "disagreements": [list(map(repr, d)) for d in disagreements]}


_COMMANDS = {
    "dims": (_cmd_dims, False),
    "irred": (_cmd_irred, False),
    "soa": (_cmd_soa, False),
    "reduce-tree": (_cmd_reduce_tree, False),
    "filter": (_cmd_filter, False),
    "soafilter": (_cmd_soafilter, False),
    "reglearn": (_cmd_reglearn, True),
    "audit": (_cmd_audit, True),
    "oracle-check": (_cmd_oracle_check, True),
}


def _collect_file_digests(cfg: dict) -> dict:
    files = {}
    for key in ("class", "dataset", "test_dataset"):
        if key in cfg and isinstance(cfg[key], str):
            try:
                with open(cfg[key], "rb") as fh:
                    files[key] = hashlib.sha256(fh.read()).hexdigest()
            except FileNotFoundError:
                pass
    return files


def _parse_override(text: str):
    if "=" not in text:
        raise SchemaError(f"override {text!r} must be KEY=VALUE")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="privreg", epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Private nonparametric regression experiments.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (required for randomized commands)")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VAL", help="config override, JSON value")
    args = parser.parse_args(argv)

    handler, needs_seed = _COMMANDS[args.command]
    started = time.time()
    try:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise SchemaError(f"{args.config}: config must be an object")
        for text in args.override:
            key, value = _parse_override(text)
            cfg[key] = value
        if needs_seed and args.seed is None:
            return _fail(EXIT_PRECONDITION,
                         f"command {args.command!r} is randomized; --seed is required")
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise SchemaError("--seed must fit in an unsigned 64-bit integer")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outputs = handler(cfg, args.seed)
        exit_code = EXIT_OK
        failure = None
    except SchemaError as e:
        return _fail(EXIT_SCHEMA, str(e))
    except (DomainError, TheoreticalScaleError) as e:
        return _fail(EXIT_PRECONDITION, str(e))
    except ReduceTreeError as e:
        return _fail(EXIT_REDUCE_TREE_ERROR, f"reduce-tree ERROR: {e}")
    except RunFailure as e:
        outputs = {"failure": "BOTTOM", "transcript": e.transcript}
        exit_code = EXIT_BOTTOM
        failure = str(e)
    except Exception as e:
        return _fail(EXIT_INTERNAL, f"internal error: {type(e).__name__}: {e}")

    body = {
        "command": args.command,
        "config": cfg,
        "seed": args.seed,
        "inputs_digest": _digest(cfg, _collect_file_digests(cfg)),
        "outputs": outputs,
        "version": __version__,
    }
    report = {"body": body,
              "meta": {"wall_time_s": round(time.time() - started, 6),
                       "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}}
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
