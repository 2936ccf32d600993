import math

import pytest

from hetmac.config import ChannelConfig, UserSpec, bit_levels, db_to_linear
from hetmac.errors import ConfigError


class TestBitLevels:
    @pytest.mark.parametrize(
        "snr_db, expected", [(24.0, 8), (12.0, 4), (0.0, 0), (-5.0, 0), (3.5, 2)]
    )
    def test_reference_values(self, snr_db, expected):
        assert bit_levels(db_to_linear(snr_db)) == expected

    def test_exact_power_of_two_snaps(self):
        assert bit_levels(256.0) == 8
        assert bit_levels(256.0 * (1 + 1e-12)) == 8
        assert bit_levels(256.0 * 1.01) == 9

    def test_nonpositive_snr_rejected(self):
        with pytest.raises(ConfigError):
            bit_levels(0.0)

    def test_snr_db_past_float_range_names_the_db(self):
        # 10 ** (dB / 10) overflows from about 3082.6 dB
        with pytest.raises(ConfigError, match="SNR of 3083 dB needs 1025 bit levels"):
            ChannelConfig.from_users([UserSpec(3083.0, 128, 1e-6)])
        with pytest.raises(ConfigError, match="SNR must be positive and finite, got inf"):
            ChannelConfig.from_users([UserSpec(math.inf, 128, 1e-6)])

    def test_snr_db_just_inside_float_range_loads(self):
        # 10 ** -300 is still a float, so this is a user with no bit levels; from about
        # -3236 dB the linear SNR underflows to 0 (tests/test_cli.py)
        assert ChannelConfig.from_users([UserSpec(-3000.0, 128, 1e-6)]).n == (0,)


class TestChannelConfig:
    def test_sorting_and_order_mapping(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(12.0, 200, 1e-5), UserSpec(24.0, 128, 1e-6)]
        )
        assert cfg.snr[0] > cfg.snr[1]
        assert cfg.N == (128, 200)
        assert cfg.order == (1, 0)
        assert cfg.to_original(["strong", "weak"]) == ["weak", "strong"]

    def test_conflicting_orderings_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig.from_users(
                [UserSpec(24.0, 200, 1e-6), UserSpec(12.0, 128, 1e-5)]
            )

    def test_eps_bounds(self):
        with pytest.raises(ConfigError):
            ChannelConfig.from_users([UserSpec(10.0, 100, 0.0)])
        with pytest.raises(ConfigError):
            ChannelConfig.from_users([UserSpec(10.0, 100, 1.0)])

    def test_subblock_lengths(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
        )
        assert cfg.subblock_lengths(0) == (128,)
        assert cfg.subblock_lengths(1) == (128, 72)

    def test_equal_blocklengths_give_empty_subblock(self):
        cfg = ChannelConfig.from_users(
            [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 128, 1e-5)]
        )
        assert cfg.subblock_lengths(1) == (128, 0)

    def test_power_and_gain_resolution(self):
        snr = db_to_linear(18.0)
        cfg = ChannelConfig.from_users(
            [UserSpec(None, 100, 1e-4, power=snr / 4.0, gain=2.0)]
        )
        assert cfg.snr[0] == pytest.approx(snr)
        assert cfg.P[0] == pytest.approx(snr / 4.0)
        assert cfg.h[0] == pytest.approx(2.0)

    def test_partial_power_gain_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig.from_users([UserSpec(None, 100, 1e-4, power=2.0)])


def test_zero_length_subblock_contributes_nothing_to_rate():
    from hetmac.fblrate import fbl_rate
    from hetmac.infodensity import DensityStats

    cfg = ChannelConfig.from_users(
        [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 128, 1e-5)]
    )
    stats = [
        DensityStats(2.0, 0.5, 0),
        DensityStats(9.9, 9.9, 0),
    ]
    only_first = fbl_rate(cfg, stats, 1)
    assert only_first == pytest.approx(
        2.0 - math.sqrt(128 * 0.5) / 128 * 4.264890, abs=1e-5
    )
