import json
import random

import numpy as np
import pytest

import privreg.cli
from privreg import sfat2
from privreg.cli import (EXIT_BOTTOM, EXIT_INTERNAL, EXIT_OK, EXIT_PRECONDITION,
                         EXIT_REDUCE_TREE_ERROR, EXIT_SCHEMA, main)

from helpers import F_DESK, F_TOY, H_DESK, dclass


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _discrete_class_file(tmp_path, cls, name="class.json"):
    return _write(tmp_path / name, {
        "domain": list(cls.domain.points), "K": cls.K,
        "hypotheses": [list(h) for h in cls.hyps]})


def _real_class_file(tmp_path, cls, name="class.json"):
    return _write(tmp_path / name, {
        "domain": list(cls.domain.points), "real": True,
        "hypotheses": [list(h) for h in cls.hyps]})


def _dataset_file(tmp_path, samples, domain, name="data.json"):
    return _write(tmp_path / name, {
        "samples": [[domain.points[i], y] for i, y in samples]})


def _desk_samples(n, seed):
    rng = np.random.default_rng(seed)
    target = H_DESK.hyps[0]
    out = []
    for _ in range(n):
        i = int(rng.integers(0, 2))
        out.append((i, round(float(np.clip(target[i] + rng.uniform(-0.2, 0.2),
                                           -1.0, 1.0)), 6)))
    return out


def _run(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_dims_discrete(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY)})
    code, report = _run(tmp_path, ["dims", "--config", cfg])
    assert code == EXIT_OK
    assert report["body"]["outputs"] == {"sfat2": 2}
    assert report["body"]["command"] == "dims"


def test_unknown_config_key_is_schema_error(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY), "bogus": 1})
    assert main(["dims", "--config", cfg]) == EXIT_SCHEMA


def test_missing_class_file_is_schema_error(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"class": str(tmp_path / "nope.json")})
    assert main(["dims", "--config", cfg]) == EXIT_SCHEMA


def test_non_numeric_config_value_is_schema_error(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY), "l": "two"})
    assert main(["irred", "--config", cfg]) == EXIT_SCHEMA


def test_non_integral_config_value_is_schema_error(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY), "l": 2.7})
    assert main(["irred", "--config", cfg]) == EXIT_SCHEMA
    # An integral float is an integer.
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY), "l": 2.0})
    assert main(["irred", "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_OK


def test_non_integral_dataset_label_is_schema_error(tmp_path):
    cls = _discrete_class_file(tmp_path, F_TOY)
    data = _dataset_file(tmp_path, [(0, 1), (1, 2.5)], F_TOY.domain)
    cfg = _write(tmp_path / "cfg.json", {
        "class": cls, "dataset": data, "alpha1": 60.0, "alpha_delta": 18.0,
        "ell_prime": 6})
    assert main(["reduce-tree", "--config", cfg]) == EXIT_SCHEMA


def _bool_case(tmp_path, case):
    """(command, config) where one number, label or K is a JSON true."""
    disc = _discrete_class_file(tmp_path, F_TOY)
    real = _real_class_file(tmp_path, H_DESK, name="real.json")
    data = _dataset_file(tmp_path, [(0, 1), (1, 3)], F_TOY.domain)
    tree = {"class": disc, "dataset": data, "alpha1": 60.0, "alpha_delta": 18.0,
            "ell_prime": 6}
    soaf = {"class": disc, "g_hat": [2, 2], "ell_bar": 1, "r_max": 3, "tau_max": 36}
    return {
        "int-config": ("irred", {"class": disc, "l": True}),
        "float-config": ("dims", {"class": real, "alpha": True}),
        "class-label": ("irred", {"l": 1, "class": _write(tmp_path / "b1.json", {
            "domain": ["x1", "x2"], "K": 4, "hypotheses": [[1, True]]})}),
        "class-K": ("dims", {"class": _write(tmp_path / "b2.json", {
            "domain": ["x1"], "K": True, "hypotheses": [[1]]})}),
        "real-value": ("dims", {"alpha": 0.5, "class": _write(tmp_path / "b3.json", {
            "domain": ["x1", "x2"], "real": True, "hypotheses": [[True, 0.5]]})}),
        "dataset-label": ("reduce-tree", dict(tree, dataset=_write(
            tmp_path / "d.json", {"samples": [["x1", 1], ["x2", True]]}))),
        "g_hat": ("soafilter", dict(soaf, g_hat=[2, True])),
    }[case]


@pytest.mark.parametrize("case", ["int-config", "float-config", "class-label", "class-K",
                                  "real-value", "dataset-label", "g_hat"])
def test_json_bool_is_not_a_number(tmp_path, case):
    command, cfg = _bool_case(tmp_path, case)
    assert main([command, "--config", _write(tmp_path / "cfg.json", cfg)]) == EXIT_SCHEMA


def test_config_number_too_large_for_a_float_is_schema_error(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _real_class_file(tmp_path, H_DESK), "alpha": 10 ** 400})
    assert main(["dims", "--config", cfg]) == EXIT_SCHEMA


def test_internal_error_is_not_a_precondition(tmp_path, monkeypatch, capsys):
    def broken(F):
        raise ValueError("boom")

    monkeypatch.setattr(privreg.cli, "sfat2", broken)
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY)})
    assert main(["dims", "--config", cfg]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: ValueError: boom" in err
    assert len(err.strip().splitlines()) == 1


def test_reglearn_requires_seed(tmp_path):
    cls = _real_class_file(tmp_path, H_DESK)
    data = _dataset_file(tmp_path, _desk_samples(10, 0), H_DESK.domain)
    cfg = _write(tmp_path / "cfg.json", {
        "class": cls, "dataset": data, "epsilon": 1.0, "delta": 0.05,
        "eta_bar": 0.5, "beta": 0.2, "ell_bar": 1})
    assert main(["reglearn", "--config", cfg]) == EXIT_PRECONDITION


def test_reduce_tree_error_exit_code(tmp_path):
    cls = _discrete_class_file(tmp_path, F_TOY)
    data = _dataset_file(tmp_path, [(0, 1), (1, 3)], F_TOY.domain)
    cfg = _write(tmp_path / "cfg.json", {
        "class": cls, "dataset": data, "alpha1": -5.0, "alpha_delta": 2.0,
        "ell_prime": 2})
    assert main(["reduce-tree", "--config", cfg]) == EXIT_REDUCE_TREE_ERROR


def test_irred_large_level_on_constant_point_class(tmp_path):
    # x1 is constant: restricting there gives F back, so l must not set the
    # depth of the level recursion.
    F = dclass([(5, 1, 1, 6, 3), (5, 2, 5, 2, 2), (5, 3, 5, 4, 5), (5, 5, 3, 2, 2),
                (5, 5, 4, 2, 2), (5, 5, 6, 6, 3), (5, 6, 1, 5, 1), (5, 6, 2, 2, 2),
                (5, 6, 5, 6, 6)], K=6, nx=5)
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F), "l": 2401})
    code, report = _run(tmp_path, ["irred", "--config", cfg])
    assert code == EXIT_OK
    assert report["body"]["outputs"] == {"l": 2401, "irreducible": False, "level": 0}


@pytest.mark.parametrize("r_max, tau_max, code", [(-3, 3, EXIT_PRECONDITION),
                                                  (3, -3, EXIT_PRECONDITION), (3, 3, EXIT_OK)])
def test_soafilter_negative_schedule_is_a_precondition(tmp_path, capsys, r_max, tau_max, code):
    cfg = _write(tmp_path / "cfg.json", {
        "class": _discrete_class_file(tmp_path, F_DESK), "g_hat": [2, 2],
        "ell_bar": 1, "r_max": r_max, "tau_max": tau_max, "chi": 1})
    code_out, report = _run(tmp_path, ["soafilter", "--config", cfg])
    assert code_out == code
    if code == EXIT_OK:
        assert report["body"]["outputs"]["members"]
    else:
        assert report is None
        assert "r_max and tau_max must be >= 0" in capsys.readouterr().err


def test_soafilter_on_an_sfat2_5_class(tmp_path, capsys):
    # The filter asks for witness trees up to level (d+3)^d = 32,768 here; a
    # constant point must not make the tree's depth follow that level.
    rng = random.Random(0)
    F = dclass({tuple(rng.randint(1, 8) for _ in range(5)) for _ in range(48)}, K=8, nx=5)
    g_hat = [rng.randint(1, 8) for _ in range(5)]
    assert g_hat == [6, 1, 8, 8, 7] and sfat2(F) == 5
    cfg = _write(tmp_path / "cfg.json", {
        "class": _discrete_class_file(tmp_path, F), "g_hat": g_hat,
        "ell_bar": 1, "r_max": 6, "tau_max": 72, "chi": 5})
    code, report = _run(tmp_path, ["soafilter", "--config", cfg])
    assert code == EXIT_OK, capsys.readouterr().err
    assert report["body"]["outputs"]["members"]


def test_reglearn_bottom_exit_code(tmp_path):
    # Discretizes to a product-structure class where selection cannot reach
    # consensus, so the run ends in BOTTOM.
    from privreg.classes import RealClass
    H = RealClass(H_DESK.domain, ((-0.75, -0.75), (-0.75, 0.25),
                                  (0.25, -0.75), (0.25, 0.25)))
    cls = _real_class_file(tmp_path, H)
    data = _dataset_file(tmp_path, _desk_samples(80, 1), H.domain)
    cfg = _write(tmp_path / "cfg.json", {
        "class": cls, "dataset": data, "epsilon": 1.0, "delta": 0.05,
        "eta_bar": 0.5, "beta": 0.2, "ell_bar": 1,
        "m": 5, "n0": 10, "n1": 20, "ell_prime": 6})
    code, report = _run(tmp_path, ["reglearn", "--config", cfg, "--seed", "0"])
    assert code == EXIT_BOTTOM
    assert report["body"]["outputs"]["failure"] == "BOTTOM"
    assert report["body"]["outputs"]["transcript"]["winner"] is None


@pytest.mark.parametrize("m, code", [(5, EXIT_BOTTOM), (5.0, EXIT_BOTTOM), (2.5, EXIT_SCHEMA),
                                     ("five", EXIT_SCHEMA), (True, EXIT_SCHEMA)])
def test_reglearn_override_must_be_an_integer(tmp_path, m, code):
    # The BOTTOM configuration above, with m given as an integral float,
    # a fraction, a string and a JSON true.
    from privreg.classes import RealClass
    H = RealClass(H_DESK.domain, ((-0.75, -0.75), (-0.75, 0.25),
                                  (0.25, -0.75), (0.25, 0.25)))
    cfg = _write(tmp_path / "cfg.json", {
        "class": _real_class_file(tmp_path, H),
        "dataset": _dataset_file(tmp_path, _desk_samples(80, 1), H.domain),
        "epsilon": 1.0, "delta": 0.05, "eta_bar": 0.5, "beta": 0.2, "ell_bar": 1,
        "m": m, "n0": 10, "n1": 20, "ell_prime": 6})
    got, report = _run(tmp_path, ["reglearn", "--config", cfg, "--seed", "0"])
    assert got == code
    if code == EXIT_BOTTOM:
        assert len(report["body"]["outputs"]["transcript"]["s_sizes"]) == 5


def test_reglearn_success_and_determinism(tmp_path):
    cls = _real_class_file(tmp_path, H_DESK)
    data = _dataset_file(tmp_path, _desk_samples(2600, 2), H_DESK.domain)
    test = _dataset_file(tmp_path, _desk_samples(400, 3), H_DESK.domain,
                         name="test.json")
    cfg = _write(tmp_path / "cfg.json", {
        "class": cls, "dataset": data, "test_dataset": test, "epsilon": 1.0,
        "delta": 0.05, "eta_bar": 0.5, "beta": 0.2, "ell_bar": 1,
        "m": 60, "n0": 40, "n1": 200, "ell_prime": 6})
    code_a, rep_a = _run(tmp_path, ["reglearn", "--config", cfg, "--seed", "7"],
                         name="a.json")
    code_b, rep_b = _run(tmp_path, ["reglearn", "--config", cfg, "--seed", "7"],
                         name="b.json")
    assert code_a == code_b == EXIT_OK
    body_a = json.dumps(rep_a["body"], sort_keys=True)
    body_b = json.dumps(rep_b["body"], sort_keys=True)
    assert body_a == body_b
    out = rep_a["body"]["outputs"]
    assert all(-1.0 <= v <= 1.0 for v in out["h_hat"])
    assert out["excess_risk"] >= 0.0
    assert rep_a["body"]["outputs"]["resolved"]["overridden"] == \
        ["m", "n0", "n1", "ell_prime"]


def test_override_flag(tmp_path):
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, F_TOY), "l": 1})
    code, report = _run(tmp_path,
                        ["irred", "--config", cfg, "--override", "l=2"])
    assert code == EXIT_OK
    assert report["body"]["outputs"]["l"] == 2
    assert report["body"]["config"]["l"] == 2


def test_audit_smoke(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "users": [["a"], ["a"], ["a"]], "users_prime": [["b"], ["a"], ["a"]],
        "sparsity": 1, "epsilon": 0.5, "delta": 1e-6, "trials": 200})
    code, report = _run(tmp_path, ["audit", "--config", cfg, "--seed", "3"])
    assert code == EXIT_OK
    out = report["body"]["outputs"]
    assert out["trials"] == 200
    assert isinstance(out["violation"], bool)


def test_audit_refuses_zero_trials(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {
        "users": [["a"]], "users_prime": [["b"]],
        "sparsity": 1, "epsilon": 0.5, "delta": 1e-6, "trials": 0})
    code, report = _run(tmp_path, ["audit", "--config", cfg, "--seed", "3"])
    assert code == EXIT_PRECONDITION and report is None


def test_stdout_when_no_out_flag(tmp_path, capsys):
    low = dclass([(1, 1), (1, 2), (2, 1), (2, 2)])
    cfg = _write(tmp_path / "cfg.json",
                 {"class": _discrete_class_file(tmp_path, low)})
    assert main(["soa", "--config", cfg]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["body"]["outputs"]["soa"] == [1, 1]
