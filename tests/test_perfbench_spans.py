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


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    bindings = [b for _, names, _, _ in tracing.SPANS for b in names]
    assert "zoneinvest.policy:cumulative_ridership" in bindings
    assert "zoneinvest.rollout:cumulative_ridership" in bindings
    assert "zoneinvest.policy:deterministic_npv" in bindings
    missing = [b for b in bindings if not callable(_resolve(b))]
    assert not missing, f"bindings the tracer cannot patch: {missing}"


def test_traced_cache_misses_count_every_region_solved(monkeypatch):
    """Every region a cold CR call solves is solved inside a traced cache
    lookup, so the traced miss count is the cache's own."""
    from zoneinvest import policy
    from zoneinvest.ridership import RidershipCache
    from zoneinvest.scenario import generate_synthetic_scenario
    from zoneinvest.stochastic import simulate_paths

    caches = []

    class RecordedCache(RidershipCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(policy, "RidershipCache", RecordedCache)
    scen = generate_synthetic_scenario(3, 4, 2, 90.0)
    paths = simulate_paths(scen, 20, 5)
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        root = len(tracer.spans)
        policy.cr_policy(scen, paths)
    layers, _ = tracing.summarize(tracer.spans, root)
    (cache,) = caches
    assert cache.misses == 2 ** 4
    assert layers["ridership.cache.misses"] == cache.misses
