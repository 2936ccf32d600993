import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hetmac
from hetmac import infodensity
from hetmac.cli import load_scenario
from hetmac.config import ChannelConfig, UserSpec
from hetmac.errors import UnsupportedOrderError
from hetmac.infodensity import (
    MI_GAP_BITS,
    DensityStats,
    estimate_stats,
    gaussian_tin_mi,
    _CHUNK,
    _chunk_draw,
    _density,
    _density_1d,
    _receive_tables,
    _stream,
    release_stream,
)
from hetmac.pipeline import BitAllocation, enumerate_allocations
from hetmac.signaling import (
    Constellation,
    ScaledPart,
    SchemeSignaling,
    build_scheme,
)

from oracles import (
    density_1d_reference,
    density_bruteforce_2d,
    density_moments_quadrature,
    philox_chunk,
    philox_draw_2d,
    receive_alphabets_2d,
    tin_mi_quadrature,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def single_user_cfg(snr_db: float, n: int = 128) -> ChannelConfig:
    return ChannelConfig.from_users([UserSpec(snr_db, n, 1e-5)])


def qpsk_scheme(snr_db: float):
    cfg = single_user_cfg(snr_db)
    sig = build_scheme(cfg, BitAllocation(m=((2,),)))
    return cfg, sig


def faint_qpsk_scheme(amplitude: float):
    """QPSK with a hand-set transmit amplitude, for limit behaviour tests."""
    cfg = single_user_cfg(5.0)
    part = ScaledPart(2, amplitude)
    sig = SchemeSignaling(
        parts={(0, 0): (part,)},
        energies={(0, 0): part.energy},
        zeta={(0, 0): part.energy / cfg.P[0]},
    )
    return cfg, sig


def near_cap_scheme():
    """Three users whose sub-block (0, 0) is at the 2^20 size cap: 8 own rail
    levels x 128 interferer rail levels."""
    cfg = ChannelConfig.from_users([
        UserSpec(60.0, 128, 1e-6), UserSpec(40.0, 200, 1e-5), UserSpec(24.0, 300, 1e-4),
    ])
    sig = build_scheme(cfg, BitAllocation(m=((6,), (8, 4), (6, 2, 6))))
    own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
    assert own.size * w.size == 1024
    return cfg, sig


def qpsk_density(cfg, sig, ys, xs) -> np.ndarray:
    """_density of one QPSK user at complex receptions ys, sent points given by
    their (re, im) rail index pairs xs, on _receive_tables' rails."""
    own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
    ys = np.broadcast_to(np.asarray(ys, dtype=complex), (len(xs),))
    return _density(np.array([ys.real, ys.imag]), np.array(xs).T, own, w)


class TestInformationDensity:
    def test_matches_four_term_hand_sum(self):
        cfg, sig = qpsk_scheme(8.0)
        own = _receive_tables(cfg, sig, 0, 0)[0]
        pairs = [(a, b) for a in range(own.size) for b in range(own.size)]
        pts = [complex(own[a], own[b]) for a, b in pairs]
        alphabet = Constellation(sig.transmit_axis(0, 0)).points * cfg.h[0]
        assert np.allclose(np.sort_complex(pts), np.sort_complex(alphabet))
        for y in (0.0 + 0.0j, 0.3 + 0.1j, -1.2 + 2.0j):
            for x, got in zip(pts, qpsk_density(cfg, sig, y, pairs)):
                num = math.exp(-abs(y - x) ** 2)
                den = sum(math.exp(-abs(y - p) ** 2) for p in pts) / 4.0
                assert got == pytest.approx(math.log2(num / den), abs=1e-9)

    def test_symmetric_point_gives_zero_bits(self):
        cfg, sig = qpsk_scheme(8.0)
        assert qpsk_density(cfg, sig, 0j, [(0, 0)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_high_snr_approaches_order(self):
        cfg, sig = qpsk_scheme(30.0)
        own = _receive_tables(cfg, sig, 0, 0)[0]
        val = qpsk_density(cfg, sig, complex(own[0], own[1]), [(0, 1)])[0]
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_interferer_sum_is_order_invariant(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 100, 1e-5), UserSpec(18.0, 150, 1e-5), UserSpec(12.0, 200, 1e-5)]
        )
        sig = build_scheme(cfg, BitAllocation(m=((2,), (2, 2), (2, 2, 2))))
        own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2, 64)) * 3.0  # (re, im) rails
        xi = rng.integers(0, own.size, (2, 64))
        direct = _density(y, xi, own, w)
        reordered = _density(y, xi, own, w[::-1].copy())
        assert np.allclose(direct, reordered, atol=1e-9)

    def test_density_mean_matches_estimator(self):
        cfg, sig = qpsk_scheme(6.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=5)
        own, w, _, _ = _receive_tables(cfg, sig, 0, 0)
        rng = np.random.default_rng(123)
        # uniform QPSK points are independent uniform (re, im) rail indices
        x = rng.integers(0, own.size, (2, 4000))
        y = own[x] + rng.standard_normal((2, 4000)) * math.sqrt(0.5)
        vals = _density(y, x, own, w)
        se = np.std(vals, ddof=1) / math.sqrt(vals.size)
        assert abs(np.mean(vals) - stats.mi) < 3 * (se + stats.std_error)


@st.composite
def density_cases(draw):
    """A loaded (user, sub-block) of a random even allocation of 1-3 users."""
    snrs = draw(st.lists(st.sampled_from([3.5, 6.0, 9.0, 12.0, 18.0, 24.0, 30.0]),
                         min_size=1, max_size=3, unique=True))
    snrs.sort(reverse=True)  # blocklengths grow as SNR falls
    # complex gains of any phase and magnitude; the power makes up the SNR
    gains = draw(st.lists(st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0),
                          min_size=len(snrs), max_size=len(snrs)))
    cfg = ChannelConfig.from_users([
        UserSpec(None, 100 + 40 * i, 1e-5, power=10 ** (s / 10) / abs(g) ** 2, gain=g)
        for i, (s, g) in enumerate(zip(snrs, gains))
    ])
    allocs = enumerate_allocations(cfg, even_only=True)
    # mostly components that two or more users load, where interference is heard
    shared = [a for a in allocs
              if any(sum(row[l] > 0 for row in a.m[l:]) > 1 for l in range(cfg.users))]
    alloc = draw(st.sampled_from(shared if shared and draw(st.integers(0, 3)) else allocs))
    try:
        sig = build_scheme(cfg, BitAllocation(m=alloc.m, scheme_type=draw(st.sampled_from([1, 2]))))
    except UnsupportedOrderError:
        assume(False)
    loaded = [key for key, parts in sig.parts.items() if parts]
    assume(loaded)
    k, l = draw(st.sampled_from(sorted(loaded)))
    return cfg, sig, k, l


def assert_matches_bruteforce_2d(cfg, sig, k, l, seed, chunk, noise_scale):
    tables = _receive_tables(cfg, sig, k, l)
    own, w, own_iq, w_iq = tables
    own2d, w2d = receive_alphabets_2d(cfg, sig, k, l)
    # the rails, read through the rail-index tables, are the real and
    # imaginary parts of the 2-D alphabets, to the bit
    for rails, pts, iq in ((own, own2d, own_iq), (w, w2d, w_iq)):
        assert iq.shape == (2, pts.size)
        assert np.array_equal(rails[iq[0]], pts.real)
        assert np.array_equal(rails[iq[1]], pts.imag)
    # the Philox draw picks the same sent point and the same y as on the 2-D grid:
    # chunk `chunk` of a stream whose last chunk holds 32 samples
    u, noise = _stream(seed, chunk * _CHUNK + 32)
    y, x = _chunk_draw(u[:, chunk * _CHUNK:], noise[:, chunk * _CHUNK:], tables)
    y2d, x_idx = philox_draw_2d(seed, chunk, 32, own2d, w2d)
    assert np.array_equal(y[0], y2d.real) and np.array_equal(y[1], y2d.imag)
    assert np.array_equal(own_iq[:, x_idx], x)
    got = _density(y, x, own, w)
    assert np.max(np.abs(got - density_bruteforce_2d(y2d, x_idx, own2d, w2d))) <= 1e-11
    # and at other y: the same states with rescaled noise
    rng = np.random.default_rng(seed)
    y_any = y2d + noise_scale * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    got = _density(np.stack([y_any.real, y_any.imag]), x, own, w)
    want = density_bruteforce_2d(y_any, x_idx, own2d, w2d)
    assert np.max(np.abs(got - want)) <= 1e-11


class TestSeparableKernel:
    @given(density_cases(), st.integers(0, 2**32 - 1), st.integers(0, 50),
           st.floats(0.1, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce_2d(self, case, seed, chunk, noise_scale):
        assert_matches_bruteforce_2d(*case, seed, chunk, noise_scale)

    @pytest.mark.parametrize(
        "snrs, m",
        [
            ((24.0, 12.0), ((6,), (2, 2))),  # user 1 split in two parts, heard by user 2
            ((30.0, 18.0, 6.0), ((2,), (6, 0), (0, 0, 2))),  # split user with a silent one
        ],
    )
    def test_multi_part_layouts(self, snrs, m):
        cfg = ChannelConfig.from_users([UserSpec(s, 100 + 40 * i, 1e-5) for i, s in enumerate(snrs)])
        sig = build_scheme(cfg, BitAllocation(m=m, scheme_type=2))
        assert any(len(parts) > 1 for parts in sig.parts.values())
        for (k, l), parts in sig.parts.items():
            if parts:
                assert_matches_bruteforce_2d(cfg, sig, k, l, seed=9, chunk=2, noise_scale=1.5)


class TestKernelBatching:
    @pytest.mark.parametrize("own_size, w_size", [(16, 4), (8, 128), (2, 512), (1, 1024), (5, 6)])
    def test_rows_do_not_depend_on_the_batch(self, own_size, w_size):
        rng = np.random.default_rng(own_size * w_size)
        own = np.sort(rng.standard_normal(own_size)) * 4.0
        w = rng.standard_normal(w_size) * 4.0
        y = rng.standard_normal(2 * _CHUNK) * 5.0
        x = rng.integers(0, own_size, y.size)
        whole = _density_1d(y, x, own, w)
        halves = [_density_1d(y[s:s + _CHUNK], x[s:s + _CHUNK], own, w) for s in (0, _CHUNK)]
        rows = [_density_1d(y[j:j + 1], x[j:j + 1], own, w) for j in range(y.size)]
        assert np.array_equal(whole, np.concatenate(halves))
        assert np.array_equal(whole, np.concatenate(rows))
        for n in (2, 3, 17):  # small batches, over the first thousand samples
            batches = np.concatenate(
                [_density_1d(y[s:s + n], x[s:s + n], own, w) for s in range(0, 1000, n)]
            )
            assert np.array_equal(whole[:batches.size], batches), n

    @pytest.mark.parametrize("own_size, w_size", [(1024, 1), (512, 2), (8, 128), (1, 1024)])
    def test_kernel_peak_is_one_temporary_at_every_cap_shape(self, own_size, w_size):
        # |R| |V| = 2^10 and 4096 samples: the one temporary is 2^22 float64 = 32 MiB
        rng = np.random.default_rng(own_size)
        own = np.sort(rng.standard_normal(own_size)) * 4.0
        w = rng.standard_normal(w_size) * 4.0
        y = rng.standard_normal(_CHUNK) * 5.0
        x = rng.integers(0, own_size, y.size)
        tracemalloc.start()
        try:
            _density_1d(y, x, own, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_near_cap_memory_is_one_temporary(self):
        # a 2048-sample batch of both rails needs 2^22 float64 = 32 MiB
        cfg, sig = near_cap_scheme()
        tracemalloc.start()
        try:
            estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_batches_keep_the_bits_at_the_size_cap(self, monkeypatch):
        # 10,001 samples end in a partial batch; a smaller _PASS_VALUES cuts them
        # into batches of 32 samples instead of 2048
        cfg, sig = near_cap_scheme()
        true_1d, values = _density_1d, []

        def spy(y, x, own, w):
            values.append(y.size * own.size * w.size)
            return true_1d(y, x, own, w)

        monkeypatch.setattr(infodensity, "_density_1d", spy)
        runs = []
        for pass_values in (infodensity._PASS_VALUES, 2**16):
            monkeypatch.setattr(infodensity, "_PASS_VALUES", pass_values)
            values.clear()
            stats = estimate_stats(cfg, sig, 0, 0, samples=10_001, seed=3)
            runs.append([float(v).hex() for v in vars(stats).values()])
            assert max(values) <= pass_values
            assert sum(values) == 2 * 10_001 * 1024
        assert runs[0] == runs[1]


@st.composite
def rail_cases(draw):
    """Rails of 1-64 points at a random scale, samples up to 50 rail spans away."""
    own_size = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 16, 63, 64]))
    w_size = draw(st.sampled_from([1, 2, 3, 5, 6, 17, 32, 64]))
    scale = draw(st.floats(0.05, 8.0))
    reach = draw(st.floats(0.0, 50.0))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    own = np.sort(rng.standard_normal(own_size)) * scale
    w = rng.standard_normal(w_size) * scale
    grid = own[:, None] + w[None, :]
    span = max(float(np.ptp(grid)), scale)
    y = rng.uniform(grid.min() - reach * span, grid.max() + reach * span, n)
    return y, rng.integers(0, own_size, n), own, w


class TestKernelReference:
    @given(rail_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_sample_major_reference(self, case):
        got = _density_1d(*case)
        want = density_1d_reference(*case)
        assert np.all(np.isfinite(got))
        # a floored lane adds at most e^-700 to the sent row's sum, so the
        # floor moves a density only where the reference lies below about
        # -950 bits (or is -inf); there both read below -900 bits
        close = np.abs(got - want) <= 1e-12
        assert np.all(close | ((want < -900.0) & (got < -900.0))), (got, want)


class TestEstimateStats:
    def test_matches_quadrature_oracle(self):
        cfg, sig = qpsk_scheme(10.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=100_000, seed=3)
        mi_ref = density_moments_quadrature(
            Constellation(sig.transmit_axis(0, 0)).points * cfg.h[0], nodes=64
        )[0]
        assert abs(stats.mi - mi_ref) < 3 * stats.std_error

    def test_interfered_estimate_matches_quadrature(self):
        # both users of a loaded component, against the exhaustive-state oracle
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        sig = build_scheme(cfg, BitAllocation(m=((2,), (2, 4))))
        for k in (0, 1):
            own, w = receive_alphabets_2d(cfg, sig, k, 0)
            stats = estimate_stats(cfg, sig, k, 0, samples=100_000, seed=41)
            mi_ref = tin_mi_quadrature(own, w, nodes=48)
            assert abs(stats.mi - mi_ref) < 3 * stats.std_error, (k, stats.mi, mi_ref)

    def test_weak_signal_limit(self):
        cfg, sig = faint_qpsk_scheme(0.05)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=2)
        assert stats.mi < 0.01
        assert stats.dispersion < 0.01

    def test_high_snr_dispersion_vanishes(self):
        cfg, sig = qpsk_scheme(30.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=2)
        assert stats.mi == pytest.approx(2.0, abs=1e-3)
        assert stats.dispersion < 1e-3

    def test_mi_bounded_by_order(self):
        cfg, sig = qpsk_scheme(12.0)
        stats = estimate_stats(cfg, sig, 0, 0, samples=20_000, seed=9)
        assert stats.mi <= 2.0

    def test_deterministic_at_a_seed(self):
        cfg, sig = qpsk_scheme(10.0)
        # 10k samples make 3 chunks, the last one partial; at 200k a BLAS reduction,
        # were one to come back, would be threaded
        for samples in (10_000, 20_000, 200_000):
            a = estimate_stats(cfg, sig, 0, 0, samples=samples, seed=7)
            b = estimate_stats(cfg, sig, 0, 0, samples=samples, seed=7)
            assert a == b, samples

    def test_bits_are_pinned_on_the_uplink_allocation_e(self):
        # float.hex of (mi, dispersion) of every sub-block with bits, recorded when the
        # estimator still kept a third moment: the golden CSVs round to 6 digits, so
        # they would not show a moved last bit
        scenario = load_scenario(str(SCENARIOS / "two_user_uplink.yaml"))
        cfg = scenario.channel()
        alloc = next(a for alloc_id, a, _ in scenario.allocations if alloc_id == "E")
        sig = build_scheme(cfg, alloc)
        got = {}
        for k in range(cfg.users):
            for l in range(k + 1):
                stats = estimate_stats(cfg, sig, k, l, samples=10_000, seed=scenario.seed)
                got[(k, l)] = (stats.mi.hex(), stats.dispersion.hex())
        assert got == {
            (0, 0): ("0x1.f2ca021ce84d0p+1", "0x1.d474db0539a24p-3"),
            (1, 0): ("0x1.baade4ea2c550p+1", "0x1.29e7cb42d2796p+0"),
            (1, 1): ("0x1.ca4b5e88cb8f2p+1", "0x1.ea614cf401f36p-1"),
        }

    def test_blas_thread_count_changes_no_bit(self):
        # the estimator makes no BLAS call, so no thread count can move a bit; the
        # test guards against one coming back, at 200k samples, where OpenBLAS
        # would thread a reduction
        script = (
            "from hetmac.config import ChannelConfig, UserSpec\n"
            "from hetmac.infodensity import estimate_stats\n"
            "from hetmac.pipeline import BitAllocation\n"
            "from hetmac.signaling import build_scheme\n"
            "cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])\n"
            "sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))\n"
            "stats = estimate_stats(cfg, sig, 1, 0, samples=200_000, seed=1)\n"
            "print([float(v).hex() for v in vars(stats).values()])\n"
        )
        src = str(Path(hetmac.__file__).resolve().parent.parent)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_two_seeds_agree(self):
        cfg, sig = qpsk_scheme(6.0)
        a = estimate_stats(cfg, sig, 0, 0, samples=50_000, seed=1)
        b = estimate_stats(cfg, sig, 0, 0, samples=50_000, seed=2)
        assert abs(a.mi - b.mi) < 4 * math.hypot(a.std_error, b.std_error)

    def test_silent_subblock_has_zero_stats(self):
        cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
        sig = build_scheme(cfg, BitAllocation(m=((0,), (4, 4))))
        stats = estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=1)
        assert stats == DensityStats(0.0, 0.0, 0)
        assert stats.samples == 0

    def test_sample_floor(self):
        cfg, sig = qpsk_scheme(10.0)
        with pytest.raises(ValueError):
            estimate_stats(cfg, sig, 0, 0, samples=500, seed=1)

    def test_swapped_input_order_gives_identical_results(self):
        users = [UserSpec(24.0, 100, 1e-5), UserSpec(18.0, 150, 1e-5), UserSpec(12.0, 200, 1e-5)]
        swapped = [users[0], users[2], users[1]]
        alloc = BitAllocation(m=((2,), (2, 2), (2, 2, 2)))
        stats = []
        for specs in (users, swapped):
            cfg = ChannelConfig.from_users(specs)
            sig = build_scheme(cfg, alloc)
            stats.append(estimate_stats(cfg, sig, 0, 0, samples=10_000, seed=11))
        assert stats[0] == stats[1]


class TestStream:
    def test_chunks_are_the_four_call_draws(self):
        # 10,001 samples: two full chunks and a partial last one
        samples = 2 * _CHUNK + 1809
        u, noise = _stream(123, samples)
        assert u.shape == noise.shape == (2, samples)
        assert u.dtype == np.uint32
        for c in range(3):
            s = slice(c * _CHUNK, (c + 1) * _CHUNK)
            u_x, u_w, want = philox_chunk(123, c, min(_CHUNK, samples - c * _CHUNK))
            # u keeps the top 32 bits of each uniform: floor(v * 2^32), exactly
            assert np.array_equal(u[0, s], np.floor(u_x * 2.0**32))
            assert np.array_equal(u[1, s], np.floor(u_w * 2.0**32))
            assert np.array_equal(noise[0, s], want.real)
            assert np.array_equal(noise[1, s], want.imag)

    def test_cached_stream_is_read_only(self):
        for a in _stream(5, 10_000):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_one_stream_is_kept(self, monkeypatch):
        monkeypatch.setattr(infodensity, "_slot", None)
        first = _stream(5, 10_000)
        assert all(a is b for a, b in zip(_stream(5, 10_000), first))
        for other in ((6, 10_000), (5, 10_001)):
            assert _stream(*other)[0] is not first[0]
        assert infodensity._slot[0] == (5, 10_001)

    def test_cold_and_warm_stream_give_the_same_bits(self, monkeypatch):
        cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
        sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))
        runs = []
        monkeypatch.setattr(infodensity, "_slot", None)
        for _ in range(2):  # cold, then warm
            stats = estimate_stats(cfg, sig, 1, 0, samples=10_001, seed=4)
            runs.append([float(v).hex() for v in vars(stats).values()])
        assert runs[0] == runs[1]

    def test_switching_tasks_never_serves_a_stale_stream(self):
        # three (k, l) streams interleaved, back to back, against each estimate drawn cold
        cfg = ChannelConfig.from_users([UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)])
        sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))
        tasks = [(0, 0), (1, 0), (1, 1)] * 4

        def estimate(kl):
            return estimate_stats(cfg, sig, *kl, samples=10_000, seed=4)

        want = []
        for kl in tasks:
            release_stream()
            want.append(estimate(kl))
        got = [estimate(kl) for kl in tasks]
        assert got == want


class TestSumConstellation:
    def test_sum_mi_keeps_constant_gap(self):
        # the full receive constellation of a loaded component carries at
        # least the allocated total minus the universal gap
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        alloc = BitAllocation(m=((4,), (4, 4)))
        sig = build_scheme(cfg, alloc)
        from hetmac.signaling import superimpose

        sup = superimpose(sig, cfg, 0)
        # the fully loaded ladder collapses to a scaled regular 256-QAM,
        # so a single-part alphabet reproduces the sum distribution exactly
        part = ScaledPart(8, sup.dmin)
        const = Constellation(part.axis())
        assert np.allclose(
            np.sort_complex(const.points), np.sort_complex(sup.points), rtol=1e-9
        )
        sum_cfg = ChannelConfig.from_users([UserSpec(30.0, 128, 1e-6)])
        sum_sig = SchemeSignaling(
            parts={(0, 0): (part,)},
            energies={(0, 0): part.energy},
            zeta={(0, 0): 1.0},
        )
        stats = estimate_stats(sum_cfg, sum_sig, 0, 0, samples=50_000, seed=17)
        total_bits = 8
        assert MI_GAP_BITS == pytest.approx(math.log2(5 * math.pi * math.e / 6))
        assert stats.mi >= total_bits - MI_GAP_BITS - 3 * stats.std_error


class TestClosedForms:
    def test_gaussian_tin_mi_reference_values(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        s1, s2 = cfg.snr
        assert gaussian_tin_mi(cfg, 0, 0) == pytest.approx(
            math.log2(1 + s1 / (1 + s2)), rel=1e-12
        )
        assert gaussian_tin_mi(cfg, 0, 0) == pytest.approx(3.9916, abs=2e-4)
        assert gaussian_tin_mi(cfg, 1, 0) == pytest.approx(0.0879, abs=2e-4)
        assert gaussian_tin_mi(cfg, 1, 0) < 1.0
        # the weak user's clean sub-block sees no interference
        assert gaussian_tin_mi(cfg, 1, 1) == pytest.approx(math.log2(1 + s2), rel=1e-12)
