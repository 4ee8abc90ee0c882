"""The benchmark in ``perfbench/`` traces a run by rebinding module-level
names of the package (see ``perfbench/tracing.py``). Only a traced
benchmark run would otherwise notice that one of those names is gone, so
this checks that every one still resolves. ``perfbench/`` is imported
without writing bytecode there, and is left as it was.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_tracer_rebinds_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    targets = workloads.traced_targets(workloads.Phase(), tracing.Tracer())
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracing.rebound(targets):
        assert all(getattr(owner, attr) is value for owner, attr, value in targets)
    assert all(getattr(owner, attr) is orig
               for (owner, attr, _), orig in zip(targets, originals))
