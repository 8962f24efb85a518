"""The names the traced benchmark run hooks into must exist and be restored."""

import importlib
from pathlib import Path

import numpy as np

from hamuniv import universality

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_the_solver_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    target = universality.TargetHamiltonian.from_matrix(np.zeros((2, 2), dtype=complex), (2,))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        tracer.enabled = True
        universality.end_to_end(target, a=2.0, m=1, idle_steps=1, delta=1e6)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert "kitaev.low_spectrum" in names
    assert "universality.end_to_end" in names
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} left patched"
