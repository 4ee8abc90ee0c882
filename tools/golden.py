"""Re-run the reference commands and compare their outputs' sha256.

    python3 tools/golden.py

Every change to the loss core, the trainer or the checkpoint format must
keep these bytes unless it says otherwise. In a temporary directory, with
one OpenBLAS thread, this runs

* ``train`` on the README configuration with 2 and with 6 heads
  (``report.csv`` and ``model.ckpt`` of each),
* ``gradcheck --instances 10`` (its stdout),
* ``sweep`` of the README configuration over lambda in {0, 0.1} and
  seeds 1, 2 (``sweep.csv``),
* the benchmark's mnist-shaped training run at seed 5, on the synthetic
  IDX digits that ``perfbench/workloads.py`` writes (``model.ckpt`` and
  ``mean.bin``),

then prints each hash next to the expected one and exits 1 on any
mismatch. The hashes depend on the BLAS build: they were recorded with
Python 3.11.7, numpy 2.4.6 and its bundled OpenBLAS, so the script is
not part of the test suite or CI.

The package is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

README_CONFIG = """\
dataset = synthetic
synth_classes = 10
synth_samples = 150
synth_eval_samples = 200
synth_dim = 20
synth_noise = 1.8
hidden_dims = 32
feature_dim = 24
margin = 0.5
lambda = 0.1
heads = {heads}
base_lr = 0.1
lr_drop_iters = 500,700
max_iters = 800
batch_size = 128
seed = 1
"""

EXPECTED = {
    "h2 report.csv":
        "fd9159df09346909ba5a5a764b5e2f0fc0f68f52de9055971ed83a127fed04eb",
    "h2 model.ckpt":
        "490e5e6026accd1b0b30b5135f55b8cd6d0202f14a8a7168a1aa9f46eab36277",
    "h6 report.csv":
        "1cc8c6a5ace92f662b5d94ebc74908584d3dda9c0c47b8e249f801ee883c35c0",
    "h6 model.ckpt":
        "aa3000ca5c0cf76c32c7fb7de2c0a1d5b5e3c31cac005c3ca83699d880072d89",
    "gradcheck --instances 10 stdout":
        "7f208f3f1a59083f71421ee9362570d4aa340057f62a92c29199d889fcf5e49c",
    "sweep.csv":
        "2e291c05dc8fb4d00b3d09c685e4e03adc8175c637dd9e05b555366929d6de08",
    "mnist-shaped model.ckpt":
        "d5da32218d3b5e2ae67ed8a64201822fd153882fb592fb7ea203d29b9b06a36e",
    "mnist-shaped mean.bin":
        "bd927e0db58e406096d72ef86e28964c98df45ac4245cb73d7658e1922aaec18",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(main, argv: list[str]) -> bytes:
    """``main(argv)`` with its stdout captured; a non-zero exit is an error."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"emsoftmax {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def digests(work: Path) -> dict[str, str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from emsoftmax import cli
    from workloads import mnist_config, write_idx_digits

    got = {}
    for heads in (2, 6):
        cfg = work / f"h{heads}.cfg"
        cfg.write_text(README_CONFIG.format(heads=heads))
        out = work / f"h{heads}"
        run_cli(cli.main, ["train", "--config", str(cfg), "--out", str(out)])
        for name in ("report.csv", "model.ckpt"):
            got[f"h{heads} {name}"] = sha256((out / name).read_bytes())

    stdout = run_cli(cli.main, ["gradcheck", "--instances", "10"])
    got["gradcheck --instances 10 stdout"] = sha256(stdout)

    sweep = work / "sweep"
    run_cli(cli.main, ["sweep", "--config", str(work / "h2.cfg"), "--sweep-param", "lambda",
                       "--sweep-values", "0,0.1", "--sweep-seeds", "1,2", "--out", str(sweep)])
    got["sweep.csv"] = sha256((sweep / "sweep.csv").read_bytes())

    idx = work / "idx"
    idx.mkdir()
    write_idx_digits(idx, 5)
    run = work / "mnist"
    cli.run_training(mnist_config(5, idx, run), quiet=True)
    for name in ("model.ckpt", "mean.bin"):
        got[f"mnist-shaped {name}"] = sha256((run / name).read_bytes())
    return got


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # the thread count is read when numpy loads, so start afresh
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    width = max(len(name) for name in EXPECTED)
    mismatches = 0
    for name, want in EXPECTED.items():
        ok = got[name] == want
        mismatches += not ok
        print(f"{name:<{width}}  {got[name]}  expected {want}  {'ok' if ok else 'MISMATCH'}")
    print(f"{len(EXPECTED) - mismatches} of {len(EXPECTED)} match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
