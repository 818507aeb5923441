"""The byte rule: the reports keep their bytes.

`run_config` at seed 1 writes the reports of the `verify_mixed` and
`verify_cont` workloads (`nctheta all`), of `theta_build` (the outputs
of `nctheta theta`) and of the d=6 p2q2 R=3 config that CI also runs;
`perfbench/worker.py`'s `run_algebra` writes the `algebra` report at
seed 1.  Each report's sha256 must equal the constant below.

The constants hold for numpy 2.4.6 and Python 3.11.7 on x86-64.  A
change that means to move report bytes updates them and says so.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from nctheta import cli

PERFBENCH = Path(__file__).parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads"
D6 = {"embedding": {"p": 2, "q": 2, "theta": [0.5, 0.25],
                    "Q": [[1, 0], [0, 1]], "Delta": [[0.2, 0.0], [0.0, 0.7]]},
      "truncation_R": 3}

DIGESTS = {
    "verify_mixed": {
        "classify.json": "f407d9146dfa76d85ea2b8a09c6d42dcbc6f7de0c6840f8ac6d771e1504a3c9f",
        "summary.json": "be47803ecfd4f4720b5427dee54000a082b23786a2064156be495b0471237a90",
        "theta.json": "dbf7b244168716e5d0d1be0eb60e4ae37ae3b511e86dcaa4005bd0f2da27c65f",
        "verify.json": "be052021ccaab6a7b0925ad6caa2a564dd192a2d4cacfab90070878443c0949b",
    },
    "verify_cont": {
        "classify.json": "172cb55c64fb91ab9c97081ef2d6eefb8b73eec0f86c99b50a97463d058d23d5",
        "summary.json": "be47803ecfd4f4720b5427dee54000a082b23786a2064156be495b0471237a90",
        "theta.json": "5badae4404c66b1f1c3caa43eb70f98e51660d1ffbea17b4b6f0b342fe5801a5",
        "verify.json": "6ef65a92390245b72c007941a14b28d72ce4cd52940ec0786ca185287f641438",
    },
    "theta_build": {
        "classify.json": "f407d9146dfa76d85ea2b8a09c6d42dcbc6f7de0c6840f8ac6d771e1504a3c9f",
        "summary.json": "d2f76e628d2d073236b85f6e67f3306adf286e3ed234a714d6b1eededd14ca45",
        "theta.json": "4c6a0bca1cafe4ce77dac6d85c7c9aee4580cc16e94a6b01d407f7d9e6bfa76a",
    },
    "d6_p2q2_R3": {
        "classify.json": "e9f542f9675d0a75f1bba70203ddcc3d3eedc4a55c9ca8d63d9ea3235f148aee",
        "summary.json": "be47803ecfd4f4720b5427dee54000a082b23786a2064156be495b0471237a90",
        "theta.json": "4a04d86b0b210ea946f36b36a00e21e1f8da755a1b548f01c6b2ec2bf7b5477a",
        "verify.json": "3fa98229acae33c2f9e8fb296adb9503c56012a0408117375ec010e8fcd153a7",
    },
    "algebra": {
        "algebra.json": "77134ce1fa4b931f71d9965b5f32c1a71d6f7289bf3883604f9b51e62f818ecc",
    },
}


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py as a module (it imports its sibling tracer)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                      PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _write_reports(name, worker, tmp_path):
    out = tmp_path / name
    if name == "d6_p2q2_R3":
        path = tmp_path / "d6.json"
        path.write_text(json.dumps(D6))
        cli.run_config(cli.load_config(str(path)), str(out), 1)
        return out
    with open(WORKLOADS / "workloads.json") as fh:
        spec = json.load(fh)[name]
    cfg = cli.load_config(str(WORKLOADS / spec["config"]))
    if spec["kind"] == "algebra":
        worker.run_algebra(cfg, spec, 1, str(out))
        return out
    outputs = worker.COMMAND_OUTPUTS[spec["command"]]
    if outputs is not None:
        cfg.outputs = outputs
    cli.run_config(cfg, str(out), 1)
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_report_bytes_keep_their_digests(name, worker, tmp_path):
    out = _write_reports(name, worker, tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    mismatches = [f"{name}/{report}: expected {DIGESTS[name].get(report)}, "
                  f"got {got.get(report)}"
                  for report in sorted(set(got) | set(DIGESTS[name]))
                  if got.get(report) != DIGESTS[name].get(report)]
    assert not mismatches, "\n".join(mismatches)
