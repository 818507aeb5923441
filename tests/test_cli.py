import ast
import errno
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import nctheta as nc
from nctheta import cli, holomorphy, manin, theta
from nctheta.errors import ConfigError, NCThetaError, NoPartialStructure
from nctheta.heisenberg import POSITIVITY_TOL, GaussianVector
from nctheta.lattice import ball, embedding_from_config
from test_holomorphy import vector_bits


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
            if f.startswith("coefficient formula relative residual")]


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


@pytest.mark.parametrize("embedding", [
    {"p": 1, "q": 0, "theta": [0.5]},
    {"p": 1, "q": 1, "theta": [0.5], "Q": [[1]], "Delta": [[0.3]]}],
    ids=["p1q0", "p1q1"])
def test_library_default_theta_vector_is_the_one_nctheta_theta_builds(
        tmp_path, monkeypatch, embedding):
    built = []

    def spy(*args):
        built.append(nc.build_theta_vector(*args))
        return built[-1]

    monkeypatch.setattr(holomorphy, "build_theta_vector", spy)
    cfg = write_config(tmp_path, {"embedding": embedding, "truncation_R": 2})
    assert cli.main(["theta", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1
    emb = nc.canonical_embedding(**embedding)
    for vec in (nc.build_theta_vector(emb), nc.build_theta_vector(emb, None)):
        assert vector_bits(vec) == vector_bits(built[0])


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
    # these ended in a ValueError or TypeError traceback, or (p = 1.7) ran
    # as p = 1
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[1, 2], [3]], "t2": [[1.0]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]}, "outputs": [["verify"]]},
    {"embedding": {"p": 1.7, "q": 0, "theta": [0.5]}},
    {"embedding": {"p": "1", "q": 0, "theta": [0.5]}},
    {"embedding": {"p": 1, "q": 0.0, "phi": [[0.5, 0.0], [0.0, 1.0]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]}, "complex_structure": "full"},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [0.5], "t2": [[1.0]]}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"t1": [[0.5]], "t2": [[1.0]]}},
    [{"embedding": {"p": 1, "q": 0, "theta": [0.5]}}],
    {"truncation_R": 2},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]}, "tolerances": {"inner": 1e-6}},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]}, "outputs": ["classify", "plot"]},
    {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
     "complex_structure": {"kind": "full", "t1": [[[0, 1], 0], [0, [0, 1]]],
                           "t2": [[1, 0], [0, 1]]}},
    {"embedding": {"p": 1, "q": 1, "theta": [0.5], "Q": [[1]], "Delta": [[0.3]]},
     "complex_structure": {"kind": "partial", "t1": [[[0, 1], 0], [0, [0, 1]]],
                           "t2": [[1, 0], [0, 1]]}},
], ids=["t1_pair_t2", "t1_object", "theta_Q", "Delta", "p", "phi",
        "t1_inf", "t2_339_digits", "theta_inf", "ragged_t1",
        "unhashable_output", "float_p", "string_p", "float_q_phi",
        "structure_string", "flat_t1", "no_kind", "not_an_object",
        "no_embedding", "unknown_tolerance", "unknown_output",
        "full_block_size", "partial_block_size"])
def test_boolean_matrix_entries_rejected(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    for command in ("classify", "all"):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


# q = 0 ignores Delta, a known key; "T2" is no key of a structure block
_NESTED = {"embedding": {"p": 1, "q": 0, "theta": [0.5], "Delta": [[0.3]]},
           "complex_structure": {"kind": "full", "t1": [[[0, 0.5]]],
                                 "t2": [[1.0]]}}


@pytest.mark.parametrize("block, key", [("complex_structure", "T2"),
                                        ("embedding", "thetta")])
def test_unknown_nested_keys_rejected(tmp_path, capsys, block, key):
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", write_config(tmp_path, _NESTED),
                     "--out", str(out)]) == 0
    config = {**_NESTED, block: {**_NESTED[block], key: [[5.0]]}}
    cfg = write_config(tmp_path, config)
    for command in ("classify", "all"):
        assert cli.main([command, "--config", cfg, "--out", str(out / command)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "reason": f"unknown {block} fields: ['{key}']"}
        assert not (out / command).exists()


@pytest.mark.parametrize("solver, workload", [
    ("classify_holomorphic", VERIFY_CONT),  # full structure on q = 0
    ("solve_partial", VERIFY_MIXED),  # default partial structure
], ids=["full_q0", "partial"])
def test_structure_classified_once(tmp_path, monkeypatch, solver, workload):
    # once for each stage that needs it: the classify report and the theta
    # vector under `all`, the theta vector alone under `verify`
    calls = []
    solve = getattr(holomorphy, solver)

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(holomorphy, solver, counted)
    config = json.loads(workload.read_text())
    cfg = write_config(tmp_path, config)
    assert cli.main(["all", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 3


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
    # manin: C_g underflows and T overflows, so the functional equation is
    # formed from the exponents where the direct product leaves double range
    ({"p": 1, "q": 0, "theta": [50.0]}, 4, 0),
    # modified: its factors leave double range too; the functional equation
    # forms the far products in range and passes (4.5e-16), and the run
    # stops in the additivity probe, whose multipliers refuse them
    ({"p": 1, "q": 1, "theta": [50.0], "Q": [[1]], "Delta": [[0.3]]}, 2, 2),
    # manin, and theta_h has underflowed to 0 where C_g T overflows: those
    # entries are left out of the residual
    ({"p": 1, "q": 0, "theta": [1000.0]}, 2, 0),
    # C_g underflows and T overflows at the outer g from R = 10 (theta 3.0)
    # and R = 22 (theta 0.5) on
    *[({"p": 1, "q": 0, "theta": [theta]}, R, 0)
      for theta, R in [(3.0, 10), (3.0, 12), (3.0, 16), (0.5, 22), (0.5, 30), (0.5, 40)]]])
def test_multipliers_beyond_double_range(tmp_path, capsys, embedding, R, code):
    # translation multipliers overflow or their products underflow: the
    # run either passes every check or stops with a typed NCThetaError at
    # the first triple of the additivity probe, g1 = g2 = h = (-1, ..., -1),
    # and writes no report
    cfg = write_config(tmp_path, {"embedding": embedding, "truncation_R": R})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == code
    if code == 0:
        # overall_pass: every functional-equation residual below residual_abs
        report = json.loads((out / "verify.json").read_text())
        assert report["overall_pass"] and report["cocycle_consistency"]["pass"]
        assert report["additivity"]["verdict"] == "additive"
        assert report["additivity"]["max_relative_deviation"] < 1e-10
    else:
        err = json.loads(capsys.readouterr().err)
        first = tuple([-1] * (2 * embedding["p"] + embedding["q"]))
        assert err == {"error": "NCThetaError",
                       "reason": "translation factors underflow double "
                                 f"precision at indices [{first}]"}
        assert not out.exists()


def test_modified_floor_at_the_default_radius(tmp_path):
    # theta = 12 at the default truncation_R = 4: at g = (-2, -2, -2),
    # C_g = 1.3e-67 and the smallest c_h = 3.9e-268, whose product is 0.0
    # at 5 window entries; the functional equation forms those entries as
    # c_{g+h} (theta_h / c_h), where an infinite multiplier ended the run
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 1, "theta": [12.0],
                                                "Q": [[1]], "Delta": [[0.3]]}})
    assert cli.run_config(cli.load_config(cfg), str(tmp_path / "out")) == 0


@pytest.mark.parametrize("R", [100_000, int("9" * 401)], ids=["1e5", "401_digits"])
def test_truncation_radius_over_the_grid_budget(tmp_path, capsys, R):
    # the ball of radius R has more points than GRID_BUDGET: a typed error
    # before any allocation, not numpy's MemoryError or size ValueError
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
                                  "truncation_R": R})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridTooLarge"
    assert not out.exists()


# embeddings whose Phi k leaves int64 (Q k = 1e20 at k = -2, the first
# ball point) or whose row norm squares leave double range
_OVERFLOWS = {
    "int64_block": ({"p": 0, "q": 1, "Q": [[1e20]], "Delta": [[0.5]]}, 2, 2,
                    {"error": "LatticeOverflow", "reason": "integer block Q k of "
                     "lattice index (-2,) is beyond int64"}),
    "row_norm": ({"p": 0, "q": 1, "Q": [[1e300]], "Delta": [[0.5]]}, 1, 1,
                 {"error": "config", "reason": "bad config: LatticeOverflow: row 0 of "
                  "the upper square block of phi has a squared norm beyond double range"}),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWS))
def test_lattice_overflow_exits_with_a_typed_error(tmp_path, capsys, name):
    # no cast or overflow RuntimeWarning (an error under tier-1's settings),
    # no false underflow or singularity, and no reports
    embedding, R, code, error = _OVERFLOWS[name]
    cfg = write_config(tmp_path, {"embedding": embedding, "truncation_R": R})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == code
    assert json.loads(capsys.readouterr().err) == error
    assert not out.exists()


# X = diag(1e-300, 1, ...) is well conditioned although the squares of its
# first row norm underflow: a usable Phi, run to the end
_TINY_SCALE = {"p1q0": {"p": 1, "q": 0, "theta": [1e-300]},
               "p1q1": {"p": 1, "q": 1, "theta": [1e-300], "Q": [[1]], "Delta": [[0.3]]}}


@pytest.mark.parametrize("name", sorted(_TINY_SCALE))
def test_tiny_scale_embedding_runs_all(tmp_path, name):
    # no RuntimeWarning either: an error under tier-1's settings
    cfg = write_config(tmp_path, {"embedding": _TINY_SCALE[name], "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["classify.json", "summary.json", "theta.json",
                                       "verify.json"]


def test_inverse_beyond_its_bound_is_a_config_error(tmp_path, capsys):
    # at theta = 3e-308 inv(X) is finite but beyond 2**1000, and the theta
    # stage overflowed: a typed config error, no reports
    cfg = write_config(tmp_path, {"embedding": {"p": 1, "q": 0, "theta": [3e-308]},
                                  "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "reason": "bad config: LatticeOverflow: inverse of the upper "
        "square block of phi is beyond 2**1000"}
    assert not out.exists()


# Im Omega is positive definite (eigenvalues about 2e6 and 5e-6) but too
# ill-conditioned to invert in double precision: the classifier applies
# heisenberg's one Omega rule, so it and the theta stage agree
ILL_CONDITIONED = {"embedding": {"p": 2, "q": 0, "theta": [1, 1]},
                   "complex_structure": {"kind": "full",
                                         "t1": [[[0, 1e6], [0, 1e6]],
                                                [[0, 1e6], [0, 1000000.00001]]],
                                         "t2": [[1, 0], [0, 1]]},
                   "truncation_R": 2}

# det test passes (row-normalized det above DET_TOL), but the inverse of
# the square block misses the identity by more than 1e-10
ILL_CONDITIONED_PHI = {"embedding": {"p": 2, "q": 0, "phi": [
    [-0.0112, 0.8122, -0.508, 0.2155], [-0.8172, -0.076, 0.0857, -0.048],
    [0.4035, 0.3413, 0.6396, -0.2112], [0.411, -0.4655, -0.4581, 0.1546]]},
    "truncation_R": 2}


# structures whose connection rows T1 B_top + T2 B_bottom overflow double
# range: configuration errors, on q = 0 and on verify_mixed's embedding
MIXED_EMBEDDING = {"p": 1, "q": 2, "theta": [0.5], "Q": [[1, 0], [0, 1]],
                   "Delta": [[0.2, 0.0], [0.0, 0.7]]}
OVERFLOW_ROWS = {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
                 "complex_structure": {"kind": "full", "t1": [[[0, 1e308]]],
                                       "t2": [[1]]}}
OVERFLOW_ROWS_MIXED = {"embedding": MIXED_EMBEDDING,
                       "complex_structure": {"kind": "full",
                                             "t1": [[[0, 1e308], 0], [0, [0, 1]]],
                                             "t2": [[1, 0], [0, 1]]}}
# finite rows whose solved Omega, 5e309 i, is beyond double range
OVERFLOW_OMEGA = {"embedding": {"p": 1, "q": 0, "theta": [0.5]},
                  "complex_structure": {"kind": "full", "t1": [[[0, 1e10]]],
                                        "t2": [[1e-300]]}}


def _huge_structure(x, y):
    return {"embedding": {"p": 1, "q": 0, "theta": [0.41421356237309515]},
            "truncation_R": 2,
            "complex_structure": {"kind": "full", "t1": [[[x, y]]], "t2": [[1]]}}


# valid structures (classified unique) with Im Omega near 1e220 and 1e153:
# the rounding of the manin laws' exponents overflows their far paths, in
# the cocycle check and in the additivity probe
OVERFLOW_COCYCLE = _huge_structure(5e219, 1.5e220)
OVERFLOW_ADDITIVITY = _huge_structure(1.221931913633955e+153, 3.721946974123268e+153)


@pytest.mark.parametrize("command", ["classify", "all"])
@pytest.mark.parametrize("config", [OVERFLOW_ROWS, OVERFLOW_ROWS_MIXED],
                         ids=["q0", "mixed"])
def test_structure_rows_beyond_double_range_exit_one(tmp_path, capsys, config,
                                                     command):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "reason": "bad config: ValueError: full"
                   " structure blocks and their connection rows must be finite"}
    assert not out.exists()


@pytest.mark.parametrize("config, law", [
    (OVERFLOW_COCYCLE, "cocycle ratio from the exponents"),
    (OVERFLOW_ADDITIVITY, "additivity deviation from the exponents")],
    ids=["cocycle", "additivity"])
def test_manin_law_beyond_double_range_exits_two(tmp_path, capsys, config, law):
    # a typed error with no report, where the far path wrote inf
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NCThetaError"
    assert err["reason"].startswith(law + " is not a finite double at ")
    assert not out.exists()


def test_omega_beyond_double_range_exits_two(tmp_path):
    cfg = write_config(tmp_path, OVERFLOW_OMEGA)
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    classification = json.loads((out / "classify.json").read_text())["classification"]
    assert classification == {"variant": "nonexistent",
                              "witness": {"c_rank": 1,
                                          "failed_condition": "conditioning"}}
    assert json.loads((out / "theta.json").read_text())["error"] == \
        "full structure failed: conditioning (supplied structure admits no" \
        " holomorphic vector)"
    assert json.loads((out / "summary.json").read_text())["reports_written"] == \
        ["classify", "theta"]


@pytest.mark.parametrize("command", ["theta", "all"])
def test_ill_conditioned_omega_exits_two(tmp_path, command):
    cfg = write_config(tmp_path, ILL_CONDITIONED)
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", cfg, "--out", str(out)]) == 0
    classification = json.loads((out / "classify.json").read_text())["classification"]
    assert classification["variant"] == "nonexistent"
    assert classification["witness"]["failed_condition"] == "conditioning"
    assert classification["witness"]["min_im_eig"] > POSITIVITY_TOL
    out = tmp_path / command
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert json.loads((out / "classify.json").read_text())["classification"] \
        == classification
    error = json.loads((out / "theta.json").read_text())["error"]
    assert error == "full structure failed: conditioning" \
        " (supplied structure admits no holomorphic vector)"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports_written"] == ["classify", "theta"]
    assert summary["exit_code"] == 2
    assert summary["failures"] == [f"theta vector: {error}"]


# full structures on p = 2, q = 0 whose only candidate Omega fails one condition
_I2 = [[1, 0], [0, 1]]
_FAILED_FULL = {
    "invertibility": {"t1": [[0, 0], [0, 0]], "t2": [[0, 0], [0, 0]]},
    "symmetry": {"t1": [[[0, 1], [0, 1]], [0, [0, 1]]], "t2": _I2},
    "positivity": {"t1": [[[0, -1], 0], [0, [0, -1]]], "t2": _I2},
}


@pytest.mark.parametrize("condition", sorted(_FAILED_FULL))
def test_failed_full_structure_names_the_full_structure(tmp_path, condition):
    cfg = write_config(tmp_path, {
        "embedding": {"p": 2, "q": 0, "theta": [1, 1]},
        "complex_structure": {"kind": "full", **_FAILED_FULL[condition]},
        "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    classification = json.loads((out / "classify.json").read_text())["classification"]
    assert classification["variant"] == "nonexistent"
    assert classification["witness"]["failed_condition"] == condition
    error = f"full structure failed: {condition}" \
        " (supplied structure admits no holomorphic vector)"
    assert json.loads((out / "theta.json").read_text())["error"] == error
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == [f"theta vector: {error}"]
    assert summary["reports_written"] == ["classify", "theta"]


@pytest.mark.parametrize("command", ["classify", "theta", "verify", "all"])
def test_ill_conditioned_phi_exits_one(tmp_path, capsys, command):
    cfg = write_config(tmp_path, ILL_CONDITIONED_PHI)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "SingularEmbedding" in err["reason"]
    assert not out.exists()


# one structure, i I and I, written with each form of a complex entry
_ENTRY_FORMS = {
    "numbers_and_pairs": {"t1": [[[0, 1], 0], [0.0, [0.0, 1.0]]],
                          "t2": [[1, 0], [[0, 0], 1.0]]},
    "pairs": {"t1": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
              "t2": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    "objects": {"t1": [[{"im": 1}, {"re": 0}], [{"re": 0, "im": 0}, {"re": 0.0, "im": 1.0}]],
                "t2": [[{"re": 1}, {"im": 0}], [{"re": 0.0}, {"re": 1, "im": 0}]]},
}


def test_complex_entry_forms_write_the_same_reports(tmp_path):
    texts = set()
    for name, blocks in _ENTRY_FORMS.items():
        cfg = write_config(tmp_path, {
            "embedding": {"p": 2, "q": 0, "theta": [0.5, 0.25]},
            "complex_structure": {"kind": "full", **blocks}, "truncation_R": 2},
            name=f"{name}.json")
        out = tmp_path / name
        assert cli.main(["theta", "--config", cfg, "--out", str(out)]) == 0
        texts.add(((out / "classify.json").read_bytes(), (out / "theta.json").read_bytes()))
    assert len(texts) == 1


@pytest.mark.parametrize("seed", ["-1", str(-2**70)])
def test_negative_seed_override_exits_one_before_any_stage(tmp_path, capsys,
                                                           monkeypatch, seed):
    # --seed -1 used to run the theta and FE stages and then die in the
    # pair sampler with a traceback and no out dir
    def stage(*args):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(holomorphy, "classify", stage)
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out),
                     "--seed", seed]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "reason": "seed must be a nonnegative integer"}
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_run_config_rejects_bad_seed_override(tmp_path, seed):
    cfg = cli.load_config(str(VERIFY_MIXED))
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        cli.run_config(cfg, str(out), seed)
    assert not out.exists()


@pytest.mark.parametrize("workload", [VERIFY_MIXED, VERIFY_CONT],
                         ids=["verify_mixed", "verify_cont"])
def test_all_does_not_import_numpy_random(tmp_path, workload):
    # the cocycle pairs and (verify_cont) the sampled additivity triples
    # come from lattice.seeded_integers, not from numpy.random
    script = ("import sys\n"
              "from nctheta import cli\n"
              "code = cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(workload),
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def _uses_numpy_random(node) -> bool:
    """An `import numpy.random`, a `from numpy import random` (or from
    numpy.random) or a `.random` attribute of `np` or `numpy`."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["numpy", "random"]
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["numpy", "random"] or module == ["numpy"] and \
            any(alias.name == "random" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "random" and \
        isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")


def test_package_source_does_not_use_numpy_random():
    # the runtime check above covers two runs; this covers every module,
    # library-only functions included
    package = Path(cli.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert package / "holomorphy.py" in modules
    uses = [f"{path.name}:{node.lineno}" for path in modules
            for node in ast.walk(ast.parse(path.read_text()))
            if _uses_numpy_random(node)]
    assert uses == []


@pytest.mark.parametrize("argv", [
    ["all", "--config", str(VERIFY_MIXED), "--seed", "abc"],
    ["all", "--config", str(VERIFY_MIXED), "--bogus"],
    [],
    ["all"],
], ids=["seed_abc", "unknown_flag", "no_subcommand", "no_config"])
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # argparse exits 2 on a usage error, the code of a failed verification
    out = tmp_path / "out"
    if argv:
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["all", "-h"]])
def test_help_exits_zero(capsys, argv):
    assert cli.main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_no_partial_structure_route(tmp_path):
    # a singular partial structure: the classify report records the failed
    # condition, the theta report the error, and no verify report is made
    cfg = write_config(tmp_path, {
        "embedding": MIXED_EMBEDDING,
        "complex_structure": {"kind": "partial", "t1": [[0]], "t2": [[0]]},
        "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    classification = json.loads((out / "classify.json").read_text())["classification"]
    assert classification == {"variant": "no_partial_structure",
                              "witness": {"condition": "invertibility"}}
    theta_report = json.loads((out / "theta.json").read_text())
    assert set(theta_report) == {"error", "schema_version"}
    config = cli.load_config(cfg)
    with pytest.raises(NoPartialStructure) as exc:
        nc.build_theta_vector(config.embedding, config.structure)
    assert theta_report["error"] == str(exc.value)
    assert str(exc.value).startswith("partial structure failed: invertibility (")
    assert not (out / "verify.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports_written"] == ["classify", "theta"]
    assert summary["failures"] == [f"theta vector: {exc.value}"]


@pytest.mark.parametrize("embedding, name, edit, message", [
    (MIXED_EMBEDDING, "verify_cocycle_consistency", {"pass": False},
     "cocycle consistency residual out of tolerance"),
    ({"p": 1, "q": 0, "theta": [0.5]}, "additivity_probe",
     {"verdict": "deviation_found"}, "translations unexpectedly non-additive"),
    (MIXED_EMBEDDING, "additivity_probe", {"verdict": "no_witness_found"},
     "no non-additivity witness found"),
], ids=["cocycle", "manin_additivity", "modified_witness"])
def test_verify_stage_failures(tmp_path, monkeypatch, embedding, name, edit,
                               message):
    check = getattr(manin, name)
    monkeypatch.setattr(manin, name,
                        lambda *args, **kwargs: {**check(*args, **kwargs), **edit})
    cfg = write_config(tmp_path, {"embedding": embedding, "truncation_R": 2})
    out = tmp_path / "out"
    assert cli.main(["all", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads((out / "summary.json").read_text())["failures"] == [message]
    assert json.loads((out / "verify.json").read_text())["overall_pass"] is False


@pytest.fixture
def staging_root(tmp_path, monkeypatch):
    """An empty directory that run_config stages its reports under."""
    root = tmp_path / "staging"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
def test_a_run_that_raises_publishes_nothing(tmp_path, monkeypatch, capsys,
                                             staging_root, existing):
    def raise_after_theta(*args):
        # the theta report is staged by the time verification starts
        assert [sorted(os.listdir(d)) for d in staging_root.iterdir()] == \
            [["classify.json", "theta.json"]]
        raise NCThetaError("verification raised")

    out = tmp_path / "out"
    older = {"classify.json": b"older classify\n", "theta.json": b"older theta\n"}
    if existing:
        out.mkdir()
        for name, data in older.items():
            (out / name).write_bytes(data)
    verify = cli._verify_report
    monkeypatch.setattr(cli, "_verify_report", raise_after_theta)
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "NCThetaError",
                                                   "reason": "verification raised"}
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == older
    else:
        assert not out.exists()
    assert list(staging_root.iterdir()) == []
    monkeypatch.setattr(cli, "_verify_report", verify)
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["classify.json", "summary.json", "theta.json",
                                       "verify.json"]
    assert list(staging_root.iterdir()) == []


def test_reports_are_written_as_their_stages_end(tmp_path, monkeypatch):
    # theta.json is written before verification allocates anything, and
    # classify.json before the theta stage: no finished report waits for
    # the last stage
    events = []

    def record(name, function):
        def wrapped(*args):
            # a write is recorded by the name of the file it writes
            events.append(os.path.basename(args[0]) if name == "write_report"
                          else name)
            return function(*args)
        return wrapped

    for name in ("write_report", "_theta_report", "_verify_report"):
        monkeypatch.setattr(cli, name, record(name, getattr(cli, name)))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 0
    assert events == ["classify.json", "_theta_report", "theta.json",
                      "_verify_report", "verify.json", "summary.json"]


def test_out_that_is_a_file_exits_one(tmp_path, capsys, staging_root):
    # the whole pipeline runs before --out is made, so an existing file
    # there used to end in a FileExistsError traceback
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "output", "reason": f"[Errno 17] File exists: '{out}'"}
    assert out.read_text() == "not a directory\n"
    assert list(staging_root.iterdir()) == []


def test_report_name_taken_by_a_directory_exits_one(tmp_path, capsys,
                                                    staging_root):
    # the report is not moved into that directory, and no other report
    # moves in before the error
    out = tmp_path / "out"
    (out / "theta.json").mkdir(parents=True)
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "output", "reason": f"[Errno 21] Is a directory: '{out / 'theta.json'}'"}
    assert list((out / "theta.json").iterdir()) == []
    assert [p.name for p in out.iterdir()] == ["theta.json"]
    assert list(staging_root.iterdir()) == []


def test_summary_name_taken_by_a_directory_moves_no_report(tmp_path, capsys,
                                                           staging_root):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "output", "reason": f"[Errno 21] Is a directory: '{out / 'summary.json'}'"}
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert list(staging_root.iterdir()) == []


def test_report_name_taken_by_a_link_to_a_directory_is_replaced(tmp_path,
                                                               staging_root):
    # os.replace renames over the link itself; the directory is untouched
    target = tmp_path / "target"
    target.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    (out / "theta.json").symlink_to(target, target_is_directory=True)
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 0
    assert not (out / "theta.json").is_symlink()
    assert "element" in json.loads((out / "theta.json").read_text())
    assert list(target.iterdir()) == []


def test_reports_are_copied_across_filesystems(tmp_path, monkeypatch,
                                               staging_root):
    # a rename from the staging directory fails across filesystems
    # (EXDEV); the report is then copied, with the same bytes
    renamed = tmp_path / "renamed"
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(renamed)]) == 0

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

    monkeypatch.setattr(os, "replace", cross_device)
    copied = tmp_path / "copied"
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(copied)]) == 0
    assert {p.name: p.read_bytes() for p in copied.iterdir()} == \
        {p.name: p.read_bytes() for p in renamed.iterdir()}
    assert list(staging_root.iterdir()) == []


def test_unusable_staging_directory_exits_one(tmp_path, capsys, staging_root):
    staging_root.rmdir()
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(VERIFY_MIXED), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "output"
    assert not out.exists() and not staging_root.exists()
