"""The benchmark traces hetmac by rebinding module attributes (bench/spans.py).

A refactor that renames or stops importing one of those attributes, or
that passes estimate_stats its leading arguments by keyword, would make a
traced run miss calls without failing; these tests catch that first.
"""

import importlib.util
from pathlib import Path

import hetmac
import hetmac.cli  # noqa: F401  (bench/rep.py imports it before rebinding)
from hetmac.config import ChannelConfig, UserSpec
from hetmac.fblrate import rate_region_sweep
from hetmac.pipeline import BitAllocation

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_attribute_resolves():
    for module_name, attr, _ in _wrapped():
        assert callable(getattr(getattr(hetmac, module_name), attr)), (module_name, attr)


def test_sweep_passes_estimate_stats_its_subblock_positionally(monkeypatch):
    # spans.py reads (cfg, sig, k, l) from the first four positional arguments
    import hetmac.fblrate as fblrate_mod

    arities = []
    true_estimate = fblrate_mod.estimate_stats

    def counting(*args, **kwargs):
        arities.append(len(args))
        return true_estimate(*args, **kwargs)

    monkeypatch.setattr(fblrate_mod, "estimate_stats", counting)
    cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
    rate_region_sweep(cfg, [("E", BitAllocation(m=((4,), (4, 4))), None)], samples=10_000)
    assert arities and min(arities) >= 4
