"""The benchmark traces hetmac by rebinding module attributes (bench/spans.py).

A refactor that renames or stops importing one of those attributes, or
that passes estimate_stats its leading arguments by keyword, would make a
traced run miss calls without failing, and one that changes what the
tracer's kernel-cell counter reads would make it count wrong; these tests
catch that first.
"""

import importlib.util
from pathlib import Path

import hetmac
import hetmac.cli  # noqa: F401  (bench/rep.py imports it before rebinding)
from hetmac.config import ChannelConfig, UserSpec
from hetmac.fblrate import rate_region_sweep
from hetmac.pipeline import BitAllocation
from hetmac.signaling import build_scheme

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    for module_name, attr, _ in _spans().WRAPPED:
        assert callable(getattr(getattr(hetmac, module_name), attr)), (module_name, attr)


def test_cells_per_sample_counts_the_2d_grid():
    # the traced run's infodensity.cells is samples times this count: |A_k| |W|,
    # every user's 2-D alphabet of the sub-block multiplied together
    cells_per_sample = _spans()._cells_per_sample
    cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
    for m, scheme_type in ((((6,), (2, 4)), 2), (((4,), (4, 4)), 1)):  # D and E
        sig = build_scheme(cfg, BitAllocation(m=m, scheme_type=scheme_type))
        for k, l in sig.parts:
            want = 1
            for i in range(l, cfg.users):
                want *= sig.transmit_axis(i, l).size ** 2
            assert cells_per_sample(cfg, sig, k, l) == want, (m, k, l)


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


def test_det_verify_reaches_every_detmac_span(monkeypatch, capsys):
    # det-verify-3u's traced run requires these spans; each is looked up on
    # hetmac.detmac at call time, and rank_f2 must stay the rank test of
    # random_full_rank
    import hetmac.detmac as detmac_mod

    stack = []
    calls = []

    def wrap(name):
        fn = getattr(detmac_mod, name)

        def wrapper(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    names = ("verify_region", "achieved_rates", "random_full_rank", "rank_f2")
    for name in names:
        monkeypatch.setattr(detmac_mod, name, wrap(name))
    scenario = str(ROOT / "scenarios" / "two_user_uplink.yaml")
    assert hetmac.cli.main(["det-verify", "--scenario", scenario]) == 0
    assert {name for name, _ in calls} == set(names)
    assert ("rank_f2", "random_full_rank") in calls
