"""emsoftmax benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload surrogate-ensemble --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 30          # every workload in turn

``--trace 0`` measures the end-to-end metrics with nothing in the loop but
one timestamp per step. ``--trace 1`` spends half the budget on the same
untraced loop and half on a traced one, and reports the per-layer metrics
and the tracing overhead. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; when an output
check fails the run exits 1 and prints no such line.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits 2.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the thread count changes the last
# bits of the mnist-shaped loss, so every run must use the same setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("surrogate-ensemble", "mnist-shaped", "gradcheck-grid")

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "work_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "losses.fwd_us": "us",
    "losses.bwd_us": "us",
    "losses.fwd_us_per_call": "us",
    "losses.step_share": "frac",
    "losses.fwd_calls": "count",
    "losses.fwd_calls_per_step": "count",
    "losses.bwd_calls_per_step": "count",
    "losses.normalize_calls_per_step": "count",
    "tensor.as_matrix_calls_per_step": "count",
    "losses.diversity_us.v2.d24": "us",
    "losses.diversity_us.v2.d256": "us",
    "losses.diversity_us.v6.d24": "us",
    "losses.diversity_us.v6.d256": "us",
    "tensor.rng_normal_s": "s",
    "trainer.step_self_us": "us",
    "model.step_share": "frac",
    "trainer.sgd_share": "frac",
    "model.mlp_gflop_per_step": "GFLOP",
    "trainer.sgd_bytes_per_step": "bytes",
    "trace.overhead_share": "frac",
}


def import_package():
    """Import emsoftmax from this checkout's src/, or exit 2."""
    if not (SRC / "emsoftmax" / "__init__.py").is_file():
        print(f"perfbench: no emsoftmax package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import emsoftmax

    if not Path(emsoftmax.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: emsoftmax imported from {emsoftmax.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return emsoftmax


def blas_facts() -> dict:
    """BLAS library named by numpy's build config and the threads it runs now."""
    import ctypes

    import numpy as np

    facts = {"blas": "unknown", "blas_version": "unknown", "blas_threads": -1}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "blas_threads_requested": BLAS_THREADS,
    }


# workloads imports emsoftmax, so it is imported only after import_package()
def run_phase(workload: str, seed: int, seconds: float, checks, traced: bool, work_dir: Path,
              corrupt_block: str | None):
    import workloads as w
    from tracing import Tracer, rebound

    phase = w.Phase()
    if traced:
        phase.tracer = Tracer()
        targets = w.traced_targets(phase, phase.tracer)
    else:
        targets = w.untraced_targets(phase)
    with rebound(targets):
        if workload == "surrogate-ensemble":
            w.surrogate_phase(seed, seconds, checks, phase)
        elif workload == "mnist-shaped":
            w.mnist_phase(seed, seconds, checks, phase, work_dir)
        else:
            w.gradcheck_phase(seed, seconds, checks, phase, corrupt_block)
    return phase


def layer_metrics(workload: str, phase) -> dict:
    import workloads as w

    if workload == "gradcheck-grid":
        return w.gradcheck_layers(phase)
    if workload == "surrogate-ensemble":
        c = w.SURROGATE
        out = w.training_layers(phase, [c["dim"], c["hidden"], c["feature"]], c["batch"],
                                c["heads"], c["classes"])
        return {**out, **w.surrogate_extra_layers(phase)}
    c = w.MNIST
    out = w.training_layers(phase, [784, *c["hidden"], c["feature"]], c["batch"], c["heads"], 10)
    return {**out, **w.mnist_extra_layers(phase)}


def run_workload(args) -> int:
    import workloads as w

    facts = machine_facts()
    checks = w.Checks()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        tmp = Path(tmp)
        if args.trace:
            half = args.seconds / 2
            (tmp / "a").mkdir()
            (tmp / "b").mkdir()
            plain = run_phase(args.workload, args.seed, half, checks, False, tmp / "a",
                              args.corrupt_block)
            traced = run_phase(args.workload, args.seed, half, checks, True, tmp / "b",
                               args.corrupt_block)
        else:
            plain = run_phase(args.workload, args.seed, args.seconds, checks, False, tmp,
                              args.corrupt_block)

    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": facts, "passes": plain.passes}
    if args.trace:
        layers = layer_metrics(args.workload, traced)
        layers.update(w.diversity_timings(args.seed))
        layers["trace.overhead_share"] = (plain.work_per_s / traced.work_per_s - 1.0, "frac")
        metrics = layers
        traced.tracer.write_jsonl(OUT / f"spans-{args.workload}.jsonl")
        summary["traced_passes"] = traced.passes
    else:
        metrics = {
            "setup_s": (plain.setup_median_s, "s"),
            "work_per_s": (plain.work_per_s, "1/s"),
            "work_ms_p50": (plain.work_ms(50), "ms"),
            "work_ms_p90": (plain.work_ms(90), "ms"),  # printed, not gated
            "peak_rss_mb": (plain.peak_rss_mb, "MB"),
            **plain.info,
            "failed_ops_frac": (checks.failed / checks.attempted, "frac"),
        }
        summary["samples"] = {"setup": len(plain.setup_s), "work_items": len(plain.item_s)}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={plain.passes} " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if not args.trace:
        print(f"# samples: {len(plain.setup_s)} setups, {len(plain.item_s)} work items")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:34s} {value:>16.6g} {unit}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed")

    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                         "failures": checks.failures}
    (OUT / f"summary-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")

    if checks.failed:
        return 1
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in wanted.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process (own peak RSS)."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-block",
                   help="gradcheck-grid only: corrupt one gradient block, so the run must fail")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.corrupt_block and args.workload != "gradcheck-grid":
        p.error("--corrupt-block applies to gradcheck-grid only")
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
