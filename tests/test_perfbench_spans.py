"""The traced benchmark patches library bindings by name; a binding that a
refactor renames or drops would only surface under ``--trace 1``.  Resolve
every one of them here, without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(binding):
    mod_name, attr = binding.split(":")
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [b for _, names, _, _ in tracing.SPANS for b in names]
    assert "zoneinvest.policy:cumulative_ridership" in bindings
    assert "zoneinvest.rollout:cumulative_ridership" in bindings
    assert "zoneinvest.policy:deterministic_npv" in bindings
    missing = [b for b in bindings if not callable(_resolve(b))]
    assert not missing, f"bindings the tracer cannot patch: {missing}"
