import json
from pathlib import Path

import numpy as np
import pytest

from nctheta import cli, holomorphy, theta
from nctheta.errors import ConfigError
from nctheta.heisenberg import GaussianVector
from nctheta.lattice import ball, embedding_from_config


WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads"
VERIFY_CONT = WORKLOADS / "verify_cont.json"
VERIFY_MIXED = WORKLOADS / "verify_mixed.json"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def baseline_q0(tmp_path, **overrides):
    data = {
        "embedding": {"p": 1, "q": 0, "theta": [0.5]},
        "complex_structure": {"kind": "full", "t1": [[[0.0, 0.5]]],
                              "t2": [[1.0]]},
        "truncation_R": 4,
        "seed": 7,
    }
    data.update(overrides)
    return write_config(tmp_path, data)


def mixed_q2(tmp_path, delta=None, **overrides):
    data = {
        "embedding": {"p": 1, "q": 2, "theta": [0.5],
                      "Q": [[1, 0], [0, 1]],
                      "Delta": delta or [[0.2, 0.0], [0.0, 0.7]]},
        "complex_structure": {"kind": "full",
                              "t1": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
                              "t2": [[1, 0], [0, 1]]},
        "truncation_R": 4,
        "seed": 11,
    }
    data.update(overrides)
    return write_config(tmp_path, data)


def test_baseline_q0_pipeline(tmp_path):
    cfg = baseline_q0(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["all", "--config", cfg, "--out", str(out)])
    assert code == 0
    classify = json.loads((out / "classify.json").read_text())
    assert classify["classification"]["variant"] == "unique"
    verify = json.loads((out / "verify.json").read_text())
    assert verify["kind"] == "manin"
    assert verify["overall_pass"] is True
    assert all(entry["pass"] for entry in verify["functional_equation"])
    assert verify["additivity"]["verdict"] == "additive"
    theta_rep = json.loads((out / "theta.json").read_text())
    assert theta_rep["coefficient_formula_residual"] < 1e-10
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 0


def test_mixed_full_structure_pipeline(tmp_path):
    cfg = mixed_q2(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["all", "--config", cfg, "--out", str(out)])
    assert code == 0
    classify = json.loads((out / "classify.json").read_text())
    assert classify["classification"]["variant"] == "nonexistent"
    assert classify["classification"]["witness"]["left_rank"] < \
        classify["classification"]["witness"]["required_rank"]
    verify = json.loads((out / "verify.json").read_text())
    assert verify["kind"] == "modified"
    assert verify["overall_pass"] is True
    assert verify["additivity"]["verdict"] == "witness_found"


def test_malformed_config_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    code = cli.main(["all", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0,
                                                "theta": [0.0]}})
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0,
                                                "theta": [0.5]},
                                  "bogus": 1})
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 1


def test_degenerate_instance_exits_two(tmp_path):
    cfg = mixed_q2(tmp_path, delta=[[0.5, 0.0], [0.0, 0.3]])
    out = tmp_path / "out"
    code = cli.main(["all", "--config", cfg, "--out", str(out)])
    assert code == 2
    verify = json.loads((out / "verify.json").read_text())
    assert verify["degenerate"] is True
    entries = [e for e in verify["functional_equation"] if e.get("degenerate")]
    assert entries and entries[0]["witnesses"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2 and summary["failures"]


def test_residual_tolerance_is_not_widened(tmp_path):
    # the residuals here are about 6e-16, far below the decay certificate's
    # tail_bound; the verdict compares them with residual_abs alone
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 2, "theta": [0.5],
                      "Q": [[1, 0], [0, 1]],
                      "Delta": [[0.2, 0.0], [0.0, 0.7]]},
        "truncation_R": 2,
        "seed": 123,
        "tolerances": {"residual_abs": 1e-18},
    })
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    theta_rep = json.loads((out / "theta.json").read_text())
    assert theta_rep["tail_bound"] > 1.0
    verify = json.loads((out / "verify.json").read_text())
    failed = [e for e in verify["functional_equation"] if not e["pass"]]
    assert failed and all(e["max_residual"] >= 1e-18 for e in failed)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2
    fe_failures = [f for f in summary["failures"]
                   if f.startswith("functional equation residual")]
    assert len(fe_failures) == len(failed)


def test_inner_rel_tolerance_is_applied(tmp_path):
    # the two coefficient routes differ by about 2e-16 here; an inner_rel
    # below that relative gap must fail the run
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 2, "theta": [0.5],
                      "Q": [[1, 0], [0, 1]],
                      "Delta": [[0.2, 0.0], [0.0, 0.7]]},
        "truncation_R": 2,
        "seed": 123,
        "tolerances": {"inner_rel": 1e-30},
    })
    out = tmp_path / "out"
    assert cli.main(["theta", "--config", cfg, "--out", str(out)]) == 2
    theta_rep = json.loads((out / "theta.json").read_text())
    assert theta_rep["coefficient_formula_residual"] > 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 2
    assert [f for f in summary["failures"]
            if f.startswith("coefficient formula residual")]


def test_determinism_byte_identical(tmp_path):
    cfg = mixed_q2(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["all", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["all", "--config", cfg, "--out", str(out2)]) == 0
    for name in ["classify.json", "theta.json", "verify.json", "summary.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_changes_are_recorded(tmp_path):
    cfg = baseline_q0(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", "--config", cfg, "--out", str(out1),
                     "--seed", "5"]) == 0
    assert cli.main(["verify", "--config", cfg, "--out", str(out2),
                     "--seed", "5"]) == 0
    assert (out1 / "verify.json").read_bytes() == \
        (out2 / "verify.json").read_bytes()
    report = json.loads((out1 / "verify.json").read_text())
    assert report["seed"] == 5


def test_subcommand_scopes(tmp_path):
    cfg = baseline_q0(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "classify.json").exists()
    assert not (out / "theta.json").exists()
    assert not (out / "verify.json").exists()
    out2 = tmp_path / "out2"
    assert cli.main(["theta", "--config", cfg, "--out", str(out2)]) == 0
    assert (out2 / "theta.json").exists()
    assert not (out2 / "verify.json").exists()



MIXED_EMBEDDING = {"p": 1, "q": 2, "theta": [0.5], "Q": [[1, 0], [0, 1]],
                   "Delta": [[0.2, 0.0], [0.0, 0.7]]}
FULL_MIXED = {"kind": "full", "t1": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
              "t2": [[1, 0], [0, 1]]}
# one config per structure branch: (config, classification variant, exit code)
STRUCTURE_BRANCHES = {
    "full_q0": ({"embedding": {"p": 1, "q": 0, "theta": [0.5]},
                 "complex_structure": {"kind": "full", "t1": [[[0.0, 0.5]]],
                                       "t2": [[1.0]]}}, "unique", 0),
    "full_mixed": ({"embedding": MIXED_EMBEDDING,
                    "complex_structure": FULL_MIXED}, "nonexistent", 0),
    "partial": ({"embedding": MIXED_EMBEDDING,
                 "complex_structure": {"kind": "partial", "t1": [[[0, 1]]],
                                       "t2": [[1.0]]}}, "partial", 0),
    "delta_only": ({"embedding": {"p": 0, "q": 2, "Q": [[2, 1], [0, 1]],
                                  "Delta": [[0.15, 0.0], [0.0, 0.25]]}},
                   "delta_only", 0),
    "skipped": ({"embedding": {"p": 0, "q": 1, "Q": [[1]], "Delta": [[0.3]]}},
                "skipped", 0),
    "failing_full": ({"embedding": {"p": 1, "q": 0, "theta": [0.5]},
                      "complex_structure": {"kind": "full", "t1": [[[0, -0.5]]],
                                            "t2": [[1.0]]}}, "nonexistent", 2),
}


@pytest.mark.parametrize("branch", sorted(STRUCTURE_BRANCHES))
def test_subcommands_write_the_bytes_of_all(tmp_path, branch):
    config, variant, code = STRUCTURE_BRANCHES[branch]
    cfg = write_config(tmp_path, dict(config, truncation_R=2, seed=3))
    scopes = {"all": ["classify", "theta", "verify"], "classify": ["classify"],
              "theta": ["classify", "theta"], "verify": ["verify"]}
    outs = {command: tmp_path / command for command in scopes}
    for command, out in outs.items():
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == \
            (0 if command == "classify" else code)
    classify = json.loads((outs["all"] / "classify.json").read_text())
    assert classify["classification"]["variant"] == variant
    # a failed theta vector leaves an error theta report and no verify report
    made = ["classify", "theta", "verify"] if code == 0 else ["classify", "theta"]
    for command, out in outs.items():
        written = [name for name in scopes[command] if name in made]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reports_written"] == written
        assert sorted(path.name for path in out.iterdir()) == \
            sorted([f"{name}.json" for name in written] + ["summary.json"])
        for name in written:
            assert (out / f"{name}.json").read_bytes() == \
                (outs["all"] / f"{name}.json").read_bytes(), (command, name)


@pytest.mark.parametrize("overrides", [
    {"truncation_R": True, "seed": False},
    {"truncation_R": True},
    {"seed": False},
    {"seed": True},
    {"tolerances": {"inner_rel": True}},
    {"tolerances": {"residual_abs": True}},
    {"tolerances": {"tail_eps": True}},
])
def test_boolean_numbers_rejected(tmp_path, overrides):
    # bool is an int subclass: JSON true/false must not stand in for numbers
    cfg = write_config(tmp_path, dict(
        {"embedding": {"p": 1, "q": 0, "theta": [0.5]}}, **overrides))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()

@pytest.mark.parametrize("config", [
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[[0, True]]], "t2": [[True]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[{"re": 0, "im": True}]],
                           "t2": [[1]]}},
    {"embedding": {"p": 1, "q": 1, "theta": [True], "Q": [[True]],
                   "Delta": [[0.3]]}},
    {"embedding": {"p": 1, "q": 1, "theta": [0.5], "Q": [[1]],
                   "Delta": [[False]]}},
    {"embedding": {"p": True, "q": 0, "theta": [0.5]}},
    {"embedding": {"p": 1, "q": 0, "phi": [[0.5, 0.0], [0.0, True]]}},
    # numbers beyond double range: JSON's 1e400 reads as inf, a 339-digit
    # integer does not convert to a float
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[[0, 1e400]]], "t2": [[1.0]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[[0, 0.5]]], "t2": [[10 ** 338]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [1e400]}},
], ids=["t1_pair_t2", "t1_object", "theta_Q", "Delta", "p", "phi",
        "t1_inf", "t2_339_digits", "theta_inf"])
def test_boolean_matrix_entries_rejected(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    for command in ("classify", "all"):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("solver, workload", [
    ("classify_holomorphic", VERIFY_CONT),  # full structure on q = 0
    ("solve_partial", VERIFY_MIXED),  # default partial structure
], ids=["full_q0", "partial"])
def test_structure_classified_once(tmp_path, monkeypatch, solver, workload):
    # the classify and theta reports read one classifier result
    calls = []
    solve = getattr(holomorphy, solver)

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(holomorphy, solver, counted)
    config = json.loads(workload.read_text())
    cfg = write_config(tmp_path, config)
    assert cli.main(["all", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 2


def test_partial_structure_config(tmp_path):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 2, "theta": [0.5],
                      "Q": [[1, 0], [0, 1]],
                      "Delta": [[0.2, 0.0], [0.0, 0.7]]},
        "complex_structure": {"kind": "partial", "t1": [[[0, 1]]],
                              "t2": [[1.0]]},
        "truncation_R": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 0
    classify = json.loads((out / "classify.json").read_text())
    assert classify["classification"]["variant"] == "partial"
    theta_rep = json.loads((out / "theta.json").read_text())
    assert theta_rep["omega"][0][0]["im"] == pytest.approx(2.0)


def test_lattice_only_config(tmp_path):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 0, "q": 2, "Q": [[2, 1], [0, 1]],
                      "Delta": [[0.15, 0.0], [0.0, 0.25]]},
        "truncation_R": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 0
    classify = json.loads((out / "classify.json").read_text())
    assert classify["classification"]["variant"] == "delta_only"
    verify = json.loads((out / "verify.json").read_text())
    assert verify["overall_pass"] is True


def test_raw_phi_config_pipeline(tmp_path):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 1,
                      "phi": [[0.4, 0.1, 0.0],
                              [0.3, 1.0, 0.0],
                              [1.0, 0.0, 2.0],
                              [0.05, 0.1, 0.1]]},
        "truncation_R": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 0
    verify = json.loads((out / "verify.json").read_text())
    assert verify["kind"] == "modified" and verify["overall_pass"] is True


def test_structure_dimension_validation(tmp_path):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 1, "theta": [0.5], "Q": [[1]],
                      "Delta": [[0.2]]},
        "complex_structure": {"kind": "full", "t1": [[1.0]], "t2": [[1.0]]},
    })
    assert cli.main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.json"))
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0,
                                                "theta": [0.5]},
                                  "truncation_R": 0})
    with pytest.raises(ConfigError):
        cli.load_config(cfg)
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0,
                                                "theta": [0.5]},
                                  "tolerances": {"inner_rel": -1.0}})
    with pytest.raises(ConfigError):
        cli.load_config(cfg)


def test_non_finite_coefficients_exit_two(tmp_path, capsys, monkeypatch):
    # no valid config is known to reach a non-finite coefficient since the
    # far rows of the inner-product route sum their exponents (see
    # test_far_coefficients_match_closed_zeros); a kernel returning NaN
    # stands in for one
    kernel = theta._closed_inner_products

    def with_nan(*args):
        values = kernel(*args)
        values[3] = complex("nan")
        return values

    monkeypatch.setattr(theta, "_closed_inner_products", with_nan)
    cfg = write_config(tmp_path, {
        "embedding": {"p": 1, "q": 0, "theta": [0.5]},
        "truncation_R": 2,
    })
    assert cli.main(["theta", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NCThetaError"
    assert "not a finite double" in err["reason"]


def test_far_coefficients_match_closed_zeros(tmp_path):
    # theta = 1000 puts |w1| up to 2000 on the R = 2 ball: the Gaussian
    # factor overflows where its phase factor underflows, so the
    # continuous factor of those rows is one exp of the summed exponents;
    # the coefficients underflow to the closed formula's zeros
    config = {"embedding": {"p": 1, "q": 0, "theta": [1000.0]}, "truncation_R": 2}
    cfg = write_config(tmp_path, config)
    assert cli.main(["theta", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "theta.json").read_text())
    omega = np.array([[complex(v["re"], v["im"]) for v in row]
                      for row in report["omega"]])
    emb = embedding_from_config(config["embedding"])
    values = theta.quantum_theta(emb, GaussianVector.pure(omega, 0), 2).values
    closed, _ = theta.theta_coefficients(theta.HermitianFormContext(omega), emb,
                                         ball(emb.d, 2))
    zeros = closed == 0
    assert np.count_nonzero(zeros) == 24
    np.testing.assert_array_equal(values.ravel()[zeros], 0)
    assert len(report["element"]["coeffs"]) == 1


@pytest.mark.parametrize("embedding, R, code", [
    ({"p": 1, "q": 0, "theta": [10.0]}, 4, 0),
    ({"p": 1, "q": 0, "theta": [50.0]}, 4, 2),
    ({"p": 1, "q": 1, "theta": [50.0], "Q": [[1]], "Delta": [[0.3]]}, 2, 2),
    # C_g underflows and T overflows where theta_h has underflowed to 0
    ({"p": 1, "q": 0, "theta": [1000.0]}, 2, 2)])
def test_multipliers_beyond_double_range(tmp_path, capsys, embedding, R, code):
    # translation multipliers overflow or their products underflow: the
    # run either writes finite reports or stops with a typed NCThetaError at
    # the first translation, g = (-R/2, ..., -R/2), and writes no report
    cfg = write_config(tmp_path, {"embedding": embedding, "truncation_R": R})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == code
    if code == 0:
        additivity = json.loads((out / "verify.json").read_text())["additivity"]
        assert additivity["verdict"] == "additive"
        assert additivity["max_relative_deviation"] < 1e-10
    else:
        err = json.loads(capsys.readouterr().err)
        first = tuple([-(R // 2)] * (2 * embedding["p"] + embedding["q"]))
        assert err == {"error": "NCThetaError",
                       "reason": "functional equation residual is not a "
                                 f"finite double at g={first}"}
        assert not out.exists()
