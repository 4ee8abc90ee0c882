"""The benchmark in ``perfbench/`` measures a run by rebinding module-level
names of the package (see ``perfbench/tracing.py``). Only a benchmark
run would otherwise notice that one of those names is gone, or that the
package no longer looks it up where it is rebound, so this checks both.
``perfbench/`` is imported without writing bytecode there, and is left
as it was.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from emsoftmax import cli, trainer
from emsoftmax.data import Dataset
from emsoftmax.losses import LossConfig
from emsoftmax.model import WeakClassifierBank
from emsoftmax.tensor import Rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_name_the_tracer_rebinds_resolves(perfbench):
    tracing, workloads = perfbench
    targets = workloads.traced_targets(workloads.Phase(), tracing.Tracer())
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracing.rebound(targets):
        assert all(getattr(owner, attr) is value for owner, attr, value in targets)
    assert all(getattr(owner, attr) is orig
               for (owner, attr, _), orig in zip(targets, originals))


def test_untraced_bindings_are_looked_up_at_call_time(perfbench, monkeypatch):
    # the end-to-end metrics come from stamping these calls; a counting
    # stand-in at each rebound name must see every call the package makes
    _, workloads = perfbench
    calls = Counter()

    def counting(attr, original):
        def stand_in(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        return stand_in

    targets = workloads.untraced_targets(workloads.Phase())
    assert {(owner, attr) for owner, attr, _ in targets} == {
        (trainer, "minibatch_stream"), (cli, "grad_check")}
    for owner, attr, _ in targets:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))

    ds = Dataset(Rng(1).normal((12, 3)), np.arange(12) % 2, 2)
    bank = WeakClassifierBank(3, 2, 1, Rng(2))
    trainer.train(None, bank, ds, LossConfig(), trainer.SgdConfig(max_iters=5, batch_size=4),
                  seed=0)
    assert calls == {"minibatch_stream": 1}
    cli.run_gradcheck_grid(0, 1, printer=lambda line: None)
    assert calls == {"minibatch_stream": 1, "grad_check": 12}
