"""One benchmark sample in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N
       (--setup-only | --out DIR [--trace-artifact PATH])

Times `import nctheta` plus config loading (set-up), then one pipeline
call (wall), and prints one JSON line with the timings, the peak resident
memory of this process and the tolerances the reports are gated against.
The reports land in --out; the parent process gates them.
"""

import argparse
import json
import os
import resource
import sys
import time

from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The set-up clock starts just before the package import.
_T0 = time.perf_counter()
sys.path.insert(0, SRC)

import nctheta  # noqa: E402
import numpy as np  # noqa: E402
from nctheta import cli, holomorphy, lattice, manin, reports, theta  # noqa: E402

# Output lists of the CLI subcommands, as cli.main sets them.
COMMAND_OUTPUTS = {"all": None, "theta": ["classify", "theta"]}


def algebra_translations(d, count, seed):
    """`count` distinct nonzero indices with |g|_inf <= 1, drawn from `seed`.

    Every candidate has |g|_inf = 1, so each reference residual call does
    the same amount of work whichever indices the seed picks.
    """
    grid = np.stack(np.meshgrid(*[np.arange(-1, 2)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    grid = grid[np.any(grid != 0, axis=1)]
    rng = np.random.default_rng(seed)
    return grid[np.sort(rng.choice(len(grid), size=count, replace=False))]


def run_algebra(cfg, spec, seed, out_dir):
    """Library-only pipeline: theta element, Theta*Theta and reference
    functional-equation residuals; writes algebra.json via the reports layer."""
    emb = cfg.embedding
    vec = holomorphy.build_theta_vector(emb, cfg.structure)
    ctx = theta.HermitianFormContext(vec.omega)
    element = theta.quantum_theta(emb, vec, cfg.truncation_R,
                                  tail_eps=cfg.tolerances["tail_eps"])
    product = element.multiply(element)
    residuals = []
    for g in algebra_translations(emb.d, spec["fe_translations"], seed):
        r = manin.functional_equation_residual_ops(
            ctx, emb, element, emb.point(g), spec["convention"],
            tail_eps=cfg.tolerances["tail_eps"])
        residuals.append({"g": [int(v) for v in g], "residual": r})
    os.makedirs(out_dir, exist_ok=True)
    reports.write_report(os.path.join(out_dir, "algebra.json"), {
        "theta": element.to_dict(),
        "product": product.to_dict(),
        "fe_residuals": residuals,
    })
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-artifact")
    args = parser.parse_args(argv)
    if not (args.setup_only or args.out):
        parser.error("--out is required unless --setup-only is given")

    if os.path.dirname(os.path.abspath(nctheta.__file__)) != \
            os.path.join(SRC, "nctheta"):
        sys.exit(f"imported nctheta from {nctheta.__file__}, not from {SRC}")
    with open(os.path.join(HERE, "workloads", "workloads.json")) as fh:
        spec = json.load(fh)[args.workload]
    cfg = cli.load_config(os.path.join(HERE, "workloads", spec["config"]))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_artifact:
        tracer = Tracer()
        tracer.install({"cli": cli, "holomorphy": holomorphy,
                        "lattice": lattice, "manin": manin,
                        "reports": reports, "theta": theta})
    start = time.perf_counter()
    if spec["kind"] == "cli":
        outputs = COMMAND_OUTPUTS[spec["command"]]
        if outputs is not None:
            cfg.outputs = outputs
        exit_code = cli.run_config(cfg, args.out, args.seed)
    else:
        exit_code = run_algebra(cfg, spec, args.seed, args.out)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "exit_code": exit_code, "tolerances": cfg.tolerances,
              "truncation_R": cfg.truncation_R, "d": cfg.embedding.d,
              "numpy": np.__version__}
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.span_table()
        result["layers"] = layer_metrics(spans, tracer.counts, wall_s)
        tracer.write_artifact(args.trace_artifact, {
            "workload": args.workload, "seed": args.seed, "wall_s": wall_s})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
