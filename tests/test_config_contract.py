"""The config-space contract of the CLI pipeline.

Random configs go through `load_config` and `run_config` in-process:
- a run returns 0 or 2, or raises ConfigError or NCThetaError, and
  nothing else;
- its verdicts are its checks: it exits 0 exactly when every check
  passed, the summary's failures are the failed checks' messages in
  order, and a run that exits 0 with p >= 1 checked that its theta
  vector is holomorphic within the check's bound;
- a config that `load_config` accepts never raises SingularEmbedding:
  `EmbeddingMap` is the one rule for a usable Phi;
- a `unique` or `partial` classification never ends in the
  ill-conditioned Im Omega error: `heisenberg._check_omega` is the one
  rule for a usable Omega, and the classifier applies it;
- the library's theta vector, `holomorphy.build_theta_vector(emb, cs)`,
  is the CLI's: the same bits as with the classification that
  `run_config` passes it, or the same error type and message; for a
  config without a structure, so is `build_theta_vector(emb)`.

- a p = 1, q = 0 config with no structure named that passes at R also
  passes at R + 2 and R + 4, unless the larger run is over a work budget
  (GridTooLarge): a true identity does not fail for want of double range.

The configs have p, q <= 2 and d = 2p + q <= 4, R in {1, 2}, canonical
embeddings or raw Phi whose square block is U diag(s) V with s down to
1e-9, and the default, a full or a partial structure with |T1| from 1e-4
to 1e4.  The ill-conditioned Omega and Phi configs of test_cli always
run.  The radius property draws |theta| from 0.05 to 50 and R from 1 to
20; its runs reach exponents of about 1e4, below the cocycle check's
rounding floor (test_manin.test_cocycle_exponent_rounding_floor).
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nctheta import cli, holomorphy
from nctheta.errors import ConfigError, GridTooLarge, NCThetaError, SingularEmbedding
from test_cli import ILL_CONDITIONED, ILL_CONDITIONED_PHI
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
    except SingularEmbedding as exc:
        raise AssertionError(f"load_config accepted a Phi that a stage rejects: {exc}")
    except NCThetaError as exc:
        if str(exc) == ILL_CONDITIONED_ERROR:
            variant = getattr(holomorphy.classify(cfg.embedding, cfg.structure),
                              "variant", None)
            assert variant not in ("unique", "partial"), \
                f"classified {variant}, then Im Omega was too ill-conditioned"


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
def test_library_theta_vector_is_the_clis(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    try:
        cfg = cli.load_config(str(path))
    except ConfigError:
        return
    emb, cs = cfg.embedding, cfg.structure
    clis = _theta_vector_outcome(emb, cs, holomorphy.classify(emb, cs))
    assert _theta_vector_outcome(emb, cs) == clis
    if "complex_structure" not in config:
        # no structure and no classification: the default structure's
        assert _theta_vector_outcome(emb) == clis


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
