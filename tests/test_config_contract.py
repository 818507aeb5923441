"""The config-space contract of the CLI pipeline.

Random configs go through `load_config` and `run_config` in-process:
- a run returns 0 or 2, or raises ConfigError or NCThetaError, and
  nothing else;
- its verdicts are its checks: it exits 0 exactly when every check
  passed, the summary's failures are the failed checks' messages in
  order, and a run that exits 0 with p >= 1 checked that its theta
  vector is holomorphic within the check's bound;
- a run makes at most one coefficient-formula check, and when it passes,
  theta.json's coefficient_formula_residual is at most inner_rel times
  the largest closed-formula coefficient magnitude on the element's
  support: the relative check bounds the absolute residual;
- a config that `load_config` accepts never raises SingularEmbedding:
  `EmbeddingMap` is the one rule for a usable Phi;
- a full structure on a mixed embedding (p, q >= 1) is classified
  `nonexistent` with the rank certificate left_rank <= p < required_rank
  = p + q // 2 in classify.json;
- a `unique` or `partial` classification never ends in the
  ill-conditioned Im Omega error: `heisenberg._check_omega` is the one
  rule for a usable Omega, and the classifier applies it;
- the library's theta vector, `holomorphy.build_theta_vector(emb, cs)`,
  is the CLI's: the same bits as the vector `run_config` builds, or the
  same error type and message; for a config without a structure, so is
  `build_theta_vector(emb)`.

- a p = 1, q = 0 config with no structure named that passes at R also
  passes at R + 2 and R + 4, unless the larger run is over a work budget
  (GridTooLarge): a true identity does not fail for want of double range;
- so does a p = 1, q in {1, 2} config with Q = I and no structure named,
  at R + 2, unless the larger run raises GridTooLarge or reports a
  degenerate translation (a structural zero of a lattice factor).

The configs have p, q <= 2 and d = 2p + q <= 4, R in {1, 2}, canonical
embeddings or raw Phi whose square block is U diag(s) V with s down to
1e-9, and the default, a full or a partial structure with |T1| from 1e-4
to 1e4.  The ill-conditioned Omega and Phi configs of test_cli always
run, and so do five structures beyond double range: two whose
connection rows overflow (config errors), one whose solved Omega
does (classified `nonexistent` for `conditioning`) and two whose manin
laws overflow on their exponents (NCThetaError).  The radius
property draws |theta| from 0.05 to 50 and R from 1 to 20; its runs
reach exponents of about 1e4, below the cocycle check's rounding floor
(test_manin.test_cocycle_exponent_rounding_floor).
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nctheta import cli, holomorphy, manin, theta
from nctheta.errors import (ConfigError, GridTooLarge, NCThetaError, NoPartialStructure,
                            SingularEmbedding)
from test_cli import (ILL_CONDITIONED, ILL_CONDITIONED_PHI, OVERFLOW_ADDITIVITY,
                      OVERFLOW_COCYCLE, OVERFLOW_OMEGA, OVERFLOW_ROWS,
                      OVERFLOW_ROWS_MIXED)
from test_holomorphy import vector_bits

ILL_CONDITIONED_ERROR = "Im Omega is too ill-conditioned to invert"
CHECK = cli.Check


def _complex_rows(z):
    return [[[v.real, v.imag] for v in row] for row in z]


def _embedding(rng, p, q, raw, s_min):
    if raw:
        d = 2 * p + q
        u, _ = np.linalg.qr(rng.normal(size=(d, d)))
        v, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = np.geomspace(1.0, s_min, d)
        phi = np.vstack([u @ np.diag(s) @ v, rng.uniform(-1, 1, (q, d))])
        phi[2 * p:2 * p + q] = np.round(3 * phi[2 * p:2 * p + q])
        return {"p": p, "q": q, "phi": phi.tolist()}
    block = {"p": p, "q": q}
    if p:
        block["theta"] = rng.choice([0.5, np.sqrt(2) - 1, -0.3, 1.7], p).tolist()
    if q:
        block["Q"] = rng.integers(-2, 3, (q, q)).tolist()
        block["Delta"] = (10.0 ** rng.uniform(-6, 0.7)
                          * rng.normal(size=(q, q))).tolist()
    return block


@st.composite
def configs(draw):
    p, q = draw(st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = draw(st.booleans())
    embedding = _embedding(rng, p, q, raw, 10.0 ** draw(st.floats(-9, 0)))
    config = {"embedding": embedding, "truncation_R": draw(st.integers(1, 2))}
    kinds = [None] + ["full"] * ((2 * p + q) % 2 == 0) + ["partial"] * (p > 0)
    kind = draw(st.sampled_from(kinds))
    if kind is None:
        return config
    n = (2 * p + q) // 2 if kind == "full" else p
    scale = 10.0 ** draw(st.floats(-4, 4))
    if not raw and q == 0 and draw(st.booleans()):
        # T1 = i S diag(theta), T2 = I solve to Omega = i S: a symmetric
        # Omega whose Im part has eigenvalues 10^-8 to 10^4 times |T1|
        w, _ = np.linalg.qr(rng.normal(size=(p, p)))
        s = w @ np.diag(10.0 ** rng.uniform(-8, 4, p)) @ w.T
        t1, t2 = 1j * scale * s @ np.diag(embedding["theta"]), np.eye(p)
    else:
        t1 = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        t2 = np.eye(n) if draw(st.booleans()) else \
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    config["complex_structure"] = {"kind": kind, "t1": _complex_rows(t1),
                                   "t2": _complex_rows(t2)}
    return config


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs())
@example(config=ILL_CONDITIONED)
@example(config=ILL_CONDITIONED_PHI)
@example(config=OVERFLOW_ROWS)
@example(config=OVERFLOW_ROWS_MIXED)
@example(config=OVERFLOW_OMEGA)
@example(config=OVERFLOW_COCYCLE)
@example(config=OVERFLOW_ADDITIVITY)
def test_run_outcomes_are_typed_and_rules_agree(tmp_path, monkeypatch, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        cfg = cli.load_config(str(path))
    except ConfigError:
        return
    cfg.outputs = ["classify", "theta", "verify"]
    checks = []

    def record(*args, **kwargs):
        checks.append(CHECK(*args, **kwargs))
        return checks[-1]

    monkeypatch.setattr(cli, "Check", record)
    out = tmp_path / "out"
    try:
        code = cli.run_config(cfg, str(out))
        assert code in (0, 2)
        assert (code == 0) == all(check.passed for check in checks)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [check.text.format(check)
                                       for check in checks if not check.passed]
        holomorphic = [check for check in checks
                       if check.text.startswith("theta vector not holomorphic")]
        if code == 0:
            assert len(holomorphic) == (cfg.embedding.p > 0)
            assert all(check.value <= check.bound for check in holomorphic)
        formula = [check for check in checks
                   if check.text.startswith("coefficient formula")]
        assert len(formula) <= 1
        if formula and formula[0].passed:
            assert json.loads((out / "theta.json").read_text())[
                "coefficient_formula_residual"] <= _absolute_formula_bound(cfg)
        p, q = cfg.embedding.p, cfg.embedding.q
        classification = json.loads((out / "classify.json").read_text())[
            "classification"]
        if cfg.structure is not None and cfg.structure.kind == "full" and p and q:
            # the lattice-part obstruction: C has p columns, so rank C <= p
            assert classification["variant"] == "nonexistent"
            witness = classification["witness"]
            assert witness["left_rank"] <= p < witness["required_rank"] == p + q // 2
    except SingularEmbedding as exc:
        raise AssertionError(f"load_config accepted a Phi that a stage rejects: {exc}")
    except NCThetaError as exc:
        if str(exc) == ILL_CONDITIONED_ERROR:
            try:
                variant = holomorphy.classify(cfg.embedding, cfg.structure).variant
            except NoPartialStructure:
                variant = None
            assert variant not in ("unique", "partial"), \
                f"classified {variant}, then Im Omega was too ill-conditioned"


def _absolute_formula_bound(cfg):
    """inner_rel times the largest closed-formula coefficient magnitude
    over the support of the run's element, from the library's vector."""
    emb, R, tail_eps = cfg.embedding, cfg.truncation_R, cfg.tolerances["tail_eps"]
    vec = holomorphy.build_theta_vector(emb, cfg.structure)
    element = theta.quantum_theta(emb, vec, R, tail_eps=tail_eps)
    closed = manin.BallTable.build(theta.HermitianFormContext(vec.omega), emb, R,
                                   tail_eps).values
    return cfg.tolerances["inner_rel"] * np.max(np.abs(closed[element.values != 0]),
                                                initial=0.0)


def _theta_vector_outcome(*args):
    try:
        vec = holomorphy.build_theta_vector(*args)
    except NCThetaError as exc:
        return type(exc), str(exc)
    return vector_bits(vec)


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs())
@example(config=ILL_CONDITIONED)
def test_library_theta_vector_is_the_clis(tmp_path, monkeypatch, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        cfg = cli.load_config(str(path))
    except ConfigError:
        return
    cfg.outputs = ["theta"]
    build, built = holomorphy.build_theta_vector, []

    def spy(*args):
        try:
            vec = build(*args)
        except NCThetaError as exc:
            built.append((type(exc), str(exc)))
            raise
        built.append(vector_bits(vec))
        return vec

    monkeypatch.setattr(holomorphy, "build_theta_vector", spy)
    try:
        cli.run_config(cfg, str(tmp_path / "out"))
    except NCThetaError:  # raised by the vector or a later stage
        pass
    monkeypatch.undo()
    assert len(built) == 1
    emb, cs = cfg.embedding, cfg.structure
    assert _theta_vector_outcome(emb, cs) == built[0]
    if "complex_structure" not in config:
        # no structure: the default structure's
        assert _theta_vector_outcome(emb) == built[0]


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theta=st.floats(-1.3, 1.7).map(lambda e: 10.0 ** e),
       sign=st.sampled_from([1, -1]), R=st.integers(1, 20))
# at R = 10 the inner-product coefficient at h = (6, 5) was a product of a
# subnormal and a large factor, 60 % off, and the FE read 1.9e-5
@example(theta=6.58600221378509, sign=1, R=6)
def test_a_passing_q0_run_passes_at_larger_radius(tmp_path, theta, sign, R):
    path, out = tmp_path / "config.json", tmp_path / "out"
    for radius in (R, R + 2, R + 4):
        path.write_text(json.dumps({"embedding": {"p": 1, "q": 0, "theta": [sign * theta]},
                                    "truncation_R": radius}))
        try:
            code = cli.run_config(cli.load_config(str(path)), str(out))
        except GridTooLarge:
            return
        except NCThetaError:
            if radius == R:
                return
            raise
        if radius == R and code != 0:
            return
        assert code == 0, json.loads((out / "summary.json").read_text())


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(qR=st.sampled_from([(1, 2), (1, 4), (2, 2)]),
       theta=st.floats(-1, np.log10(20)).map(lambda e: 10.0 ** e),
       delta=st.lists(st.floats(-1, 1), min_size=4, max_size=4))
# at R = 4 the cocycle check met pairs whose C_g C_h or C_{g+h} is 0.0
# and raised, though the functional equation passed
@example(qR=(1, 2), theta=15.0, delta=[0.3] * 4)
def test_a_passing_mixed_run_passes_at_larger_radius(tmp_path, qR, theta, delta):
    (q, R), out = qR, tmp_path / "out"
    path = tmp_path / "config.json"
    for radius in (R, R + 2):
        path.write_text(json.dumps({"embedding": {
            "p": 1, "q": q, "theta": [theta], "Q": np.eye(q).tolist(),
            "Delta": np.reshape(delta[:q * q], (q, q)).tolist()}, "truncation_R": radius}))
        try:
            code = cli.run_config(cli.load_config(str(path)), str(out))
        except GridTooLarge:
            return
        except NCThetaError:
            if radius == R:
                return
            raise
        if radius == R and code != 0:
            return
        if json.loads((out / "verify.json").read_text())["degenerate"]:
            return
        assert code == 0, json.loads((out / "summary.json").read_text())
