"""The traced benchmark pass patches package attributes by name, so every site
that perfbench/spans.py names must exist in the package, and every workload of
perfbench/workloads.py must still reach the boundaries it is expected to."""

import importlib.util
from pathlib import Path

import pytest

from weylzeros import basis, edgeworth, gaussian_theory, roots
from weylzeros import montecarlo as mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


def test_every_traced_site_exists():
    bounds = spans.boundaries(mc, roots, basis, gaussian_theory, edgeworth)
    assert bounds
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for bd in bounds
        for owner, attr in bd.sites
        if not hasattr(owner, attr)
    ]
    assert not missing, missing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_its_traced_boundaries(name):
    # the benchmark's traced pass, cut short: the workload's own set-up, then
    # up to three calls at workers=1 until every expected boundary has a span
    bounds = spans.boundaries(mc, roots, basis, gaussian_theory, edgeworth)
    wl = workloads.WORKLOADS[name](seed=1)
    tracer = spans.Tracer()
    tracer.install(bounds)
    try:
        wl.setup()
        for i in range(3):
            tracer.run = i
            wl.call(wl.inputs(i, 1))
            if not spans.unreached(bounds, tracer, name):
                break
    finally:
        tracer.uninstall()
    assert spans.unreached(bounds, tracer, name) == []
