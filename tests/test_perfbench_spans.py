"""The traced benchmark pass patches package attributes by name, so every site
that perfbench/spans.py names must exist in the package."""

import importlib.util
from pathlib import Path

from weylzeros import basis, edgeworth, gaussian_theory, roots
from weylzeros import montecarlo as mc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_site_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bounds = spans.boundaries(mc, roots, basis, gaussian_theory, edgeworth)
    assert bounds
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for bd in bounds
        for owner, attr in bd.sites
        if not hasattr(owner, attr)
    ]
    assert not missing, missing
