import math
from pathlib import Path

import pytest
import yaml

from hetmac.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    load_scenario,
    main,
)
from hetmac.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
UPLINK = str(SCENARIOS / "two_user_uplink.yaml")
WIDEBAND = str(SCENARIOS / "two_user_wideband.yaml")
# `region` on UPLINK at --samples 10000 --seed 20240901, recorded with the 2-D density kernel
GOLDEN_UPLINK = Path(__file__).resolve().parent / "data" / "two_user_uplink_s10000_seed20240901.csv"


def write_scenario(tmp_path, payload, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def base_payload():
    return {
        "users": [
            {"snr_db": 24.0, "blocklength": 128, "target_eps": 1e-6},
            {"snr_db": 12.0, "blocklength": 200, "target_eps": 1e-5},
        ],
        "estimator": {"samples": 10000, "seed": 5},
        "allocations": [{"id": "E", "m": [[4], [4, 4]]}],
    }


class TestScenarioLoading:
    def test_shipped_scenario_parses(self):
        scenario = load_scenario(UPLINK)
        assert len(scenario.users) == 2
        assert scenario.samples == 200000
        assert [a[0] for a in scenario.allocations] == list("ABCDEFG")
        assert scenario.allocations[3][2] == "2"  # point D pins the split layering

    def test_unknown_key_rejected(self, tmp_path):
        payload = base_payload()
        payload["turbo"] = True
        with pytest.raises(ConfigError, match="turbo"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_user_key_rejected(self, tmp_path):
        payload = base_payload()
        payload["users"][0]["snr"] = 3.0
        with pytest.raises(ConfigError, match="snr"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_bad_eps_rejected(self, tmp_path):
        payload = base_payload()
        payload["users"][0]["target_eps"] = 1.5
        scenario = load_scenario(write_scenario(tmp_path, payload))
        with pytest.raises(ConfigError):
            scenario.channel()

    def test_complex_gain_pair(self, tmp_path):
        payload = base_payload()
        payload["users"][0] = {
            "power": 251.18864315095796,
            "gain": [0.6, 0.8],
            "blocklength": 128,
            "target_eps": 1e-6,
        }
        scenario = load_scenario(write_scenario(tmp_path, payload))
        cfg = scenario.channel()
        assert cfg.h[0] == pytest.approx(1.0)
        assert cfg.n == (8, 4)

    def test_inconsistent_power_gain_snr(self, tmp_path):
        payload = base_payload()
        payload["users"][0]["power"] = 100.0
        payload["users"][0]["gain"] = 1.0
        scenario = load_scenario(write_scenario(tmp_path, payload))
        with pytest.raises(ConfigError):
            scenario.channel()

    def test_exit_code_for_bad_config(self, tmp_path):
        payload = base_payload()
        payload["flags"] = {"scheme_types": "seven"}
        path = write_scenario(tmp_path, payload)
        assert main(["det-verify", "--scenario", path]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "case",
        ["missing_file", "directory", "not_utf8", "malformed_yaml", "row_count", "too_many_allocations"],
    )
    @pytest.mark.parametrize("command", ["region", "det-verify"])
    def test_bad_input_exits_two_without_traceback(self, tmp_path, capsys, case, command):
        payload = base_payload()
        if case == "missing_file":
            path = str(tmp_path / "absent.yaml")
        elif case == "directory":
            path = str(tmp_path)
        elif case == "not_utf8":
            path = str(tmp_path / "latin1.yaml")
            Path(path).write_bytes("users: [{snr_db: 24.0, note: \u00e9}]\n".encode("latin-1"))
        elif case == "malformed_yaml":
            path = str(tmp_path / "bad.yaml")
            Path(path).write_text("users: [\n  {snr_db: 24.0\n")
        elif case == "row_count":
            payload["allocations"] = [{"id": "E", "m": [[4], [4, 4], [2, 2, 2]]}]
            path = write_scenario(tmp_path, payload)
        else:
            # levels 20/16/12/8: 11,375,000 even allocations
            del payload["allocations"]
            payload["users"] = [
                {"snr_db": snr, "blocklength": 128 + i, "target_eps": 1e-5}
                for i, snr in enumerate((60.0, 48.0, 36.0, 24.0))
            ]
            path = write_scenario(tmp_path, payload)
        argv = [command, "--scenario", path]
        if command == "region":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, even_only, expected",
        [
            ("region", True, EXIT_CONFIG),
            ("codeparams", True, EXIT_CONFIG),
            ("constellation", True, EXIT_CONFIG),
            ("region", False, EXIT_CONFIG),
            ("det-verify", False, EXIT_OK),
        ],
    )
    def test_odd_orders_rejected_by_qam_commands(self, tmp_path, capsys, command, even_only, expected):
        payload = base_payload()
        payload["allocations"] = [{"id": "E", "m": [[3], [0, 4]]}]
        payload["flags"] = {"even_only": even_only}
        path = write_scenario(tmp_path, payload)
        argv = [command, "--scenario", path]
        argv += {
            "region": ["--out", str(tmp_path / "r.csv")],
            "codeparams": ["--alloc", "E"],
            "constellation": ["--alloc", "E", "--component", "1", "--out", str(tmp_path / "p.csv")],
            "det-verify": [],
        }[command]
        assert main(argv) == expected
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if expected == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1


class TestArgumentChecks:
    @staticmethod
    def argv(command, tmp_path, *extra):
        target = ["--out", str(tmp_path / "r.csv")] if command == "region" else ["--alloc", "E"]
        return [command, "--scenario", UPLINK, *target, *extra]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", ["region", "codeparams"])
    def test_nonpositive_workers_rejected(self, tmp_path, capsys, command, workers):
        assert main(self.argv(command, tmp_path, "--workers", workers)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --workers must be at least 1")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["region", "codeparams"])
    def test_small_sample_override_rejected(self, tmp_path, capsys, command):
        assert main(self.argv(command, tmp_path, "--samples", "9999")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --samples must be at least 10000")

    def test_small_yaml_samples_rejected(self, tmp_path, capsys):
        payload = base_payload()
        payload["estimator"]["samples"] = 500
        path = write_scenario(tmp_path, payload)
        with pytest.raises(ConfigError, match="estimator.samples"):
            load_scenario(path)
        assert main(["region", "--scenario", path, "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: estimator.samples")

    def test_non_integer_yaml_samples_rejected(self, tmp_path):
        payload = base_payload()
        payload["estimator"]["samples"] = "lots"
        with pytest.raises(ConfigError, match="integer"):
            load_scenario(write_scenario(tmp_path, payload))


class TestDetVerify:
    def test_wideband_scenario_passes(self, capsys):
        assert main(["det-verify", "--scenario", WIDEBAND]) == EXIT_OK
        out = capsys.readouterr().out
        assert "I(user 1; block 1)=6" in out
        assert "I(user 2; block 1)=4" in out
        assert "I(user 2; block 2)=8" in out
        assert "slack 0" in out

    def test_infeasible_allocation_reported(self, tmp_path, capsys):
        payload = base_payload()
        payload["allocations"] = [{"id": "bad", "m": [[8], [2, 4]]}]
        path = write_scenario(tmp_path, payload)
        assert main(["det-verify", "--scenario", path]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().out.lower()
        # component 1 fits 8 <= 8 bits overall, but user 2's tail carries 6 > 4
        payload["allocations"] = [{"id": "tail", "m": [[2], [6, 0]]}]
        path = write_scenario(tmp_path, payload)
        assert main(["det-verify", "--scenario", path]) == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "component 1, users 2..: load 6 / capacity 4 (slack -2) INFEASIBLE" in out

    def test_empty_allocation_trivially_passes(self, tmp_path):
        payload = base_payload()
        payload["allocations"] = [{"id": "silent", "m": [[0], [0, 0]]}]
        path = write_scenario(tmp_path, payload)
        assert main(["det-verify", "--scenario", path]) == EXIT_OK

    def test_rank_violation_maps_to_exit_four(self, tmp_path, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        true_rates = cli_mod.detmac.achieved_rates

        def corrupted(det, scheme_type, f_blocks=None):
            rates = dict(true_rates(det, scheme_type, f_blocks))
            first = next(iter(rates))
            rates[first] += 1
            return rates

        monkeypatch.setattr(cli_mod.detmac, "achieved_rates", corrupted)
        path = write_scenario(tmp_path, base_payload())
        assert main(["det-verify", "--scenario", path]) == 4
        assert "VIOLATION" in capsys.readouterr().out


class TestRegion:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        code = main(
            ["region", "--scenario", UPLINK, "--out", str(out), "--samples", "10000", "--seed", "9"]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# hetmac-region-csv")
        assert "seed=9" in lines[1] and "samples=10000" in lines[1]
        header = lines[2].split(",")
        assert header[:4] == ["row_type", "alloc_id", "scheme", "m"]
        rows = [ln.split(",") for ln in lines[3:]]
        kinds = {r[0] for r in rows}
        assert {"scheme", "benchmark_corner", "benchmark_hull", "gaussian_tin"} <= kinds
        scheme_rows = [r for r in rows if r[0] == "scheme"]
        ids = [(r[1], r[2]) for r in scheme_rows]
        assert ("C", "1") in ids and ("D", "2") in ids and ("E", "1&2") in ids
        zeta_col = header.index("zeta")
        by_id = {r[1]: r for r in scheme_rows}
        assert by_id["C"][zeta_col] == "1|0.188678;1"
        assert by_id["D"][zeta_col] == "1|0.782663;1"
        assert by_id["F"][zeta_col] == "0.201906|1;1"
        # R_k never exceeds the weighted mutual information
        idx_r1, idx_mi1 = header.index("R_1"), header.index("mi_1")
        for r in scheme_rows:
            for off in range(2):
                rate = float(r[idx_r1 + off] or 0)
                mi = float(r[idx_mi1 + off] or 0)
                assert rate <= mi + 1e-9

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        outs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            out = tmp_path / f"region_{tag}.csv"
            code = main(
                [
                    "region", "--scenario", UPLINK, "--out", str(out),
                    "--samples", "10000", "--seed", "4", "--workers", workers,
                ]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_csv_bytes(self, tmp_path, workers):
        out = tmp_path / "region.csv"
        code = main(
            [
                "region", "--scenario", UPLINK, "--out", str(out),
                "--samples", "10000", "--seed", "20240901", "--workers", workers,
            ]
        )
        assert code == EXIT_OK
        assert out.read_bytes() == GOLDEN_UPLINK.read_bytes()

    def test_enumerated_allocations_when_none_fixed(self, tmp_path):
        payload = base_payload()
        del payload["allocations"]
        payload["users"] = [{"snr_db": 10 * math.log10(60.0), "blocklength": 64, "target_eps": 1e-4}]
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "single.csv"
        assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
        scheme_rows = [
            ln for ln in out.read_text().splitlines() if ln.startswith("scheme,")
        ]
        assert len(scheme_rows) == 4  # orders 0, 2, 4, 6

    def test_single_user_rate_matches_quadrature_approximation(self, tmp_path):
        from oracles import density_moments_quadrature
        from hetmac.fblrate import q_inv
        from hetmac.cli import load_scenario

        payload = base_payload()
        payload["users"] = [{"snr_db": 12.0, "blocklength": 128, "target_eps": 1e-5}]
        payload["allocations"] = [{"id": "only", "m": [[4]]}]
        payload["estimator"] = {"samples": 50000, "seed": 8}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "single.csv"
        assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
        row = next(
            ln.split(",") for ln in out.read_text().splitlines() if ln.startswith("scheme,")
        )
        rate = float(row[4])

        scenario = load_scenario(path)
        cfg = scenario.channel()
        from hetmac.signaling import build_scheme
        from hetmac.pipeline import BitAllocation

        sig = build_scheme(cfg, BitAllocation(m=((4,),)))
        mi_q, v_q, _ = density_moments_quadrature(
            sig.constellations[(0, 0)].points * cfg.h[0], nodes=64
        )
        rate_ref = mi_q - math.sqrt(v_q / 128.0) * q_inv(1e-5)
        assert rate == pytest.approx(rate_ref, abs=0.05)

    def test_three_user_scenario_end_to_end(self, tmp_path):
        payload = {
            "users": [
                {"snr_db": 24.0, "blocklength": 100, "target_eps": 1e-5},
                {"snr_db": 18.0, "blocklength": 150, "target_eps": 1e-5},
                {"snr_db": 12.0, "blocklength": 200, "target_eps": 1e-4},
            ],
            "estimator": {"samples": 10000, "seed": 2},
            "allocations": [{"id": "tri", "m": [[2], [2, 2], [2, 2, 4]]}],
        }
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "tri.csv"
        assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        kinds = {ln.split(",")[0] for ln in lines if not ln.startswith("#")}
        assert "scheme" in kinds and "gaussian_tin" in kinds
        assert "benchmark_corner" not in kinds  # benchmark is two-user only
        assert main(["det-verify", "--scenario", path]) == EXIT_OK

    def test_selection_policy_appends_choice(self, tmp_path):
        payload = base_payload()
        payload["allocations"].append({"id": "G", "m": [[0], [4, 4]]})
        payload["flags"] = {"selection_policy": "max_min"}
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "policy.csv"
        assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
        last = out.read_text().splitlines()[-1]
        assert last.startswith("# selected alloc_id=E")


class TestCodeparams:
    def test_reference_codeword_lengths(self, tmp_path, capsys):
        code = main(
            ["codeparams", "--scenario", UPLINK, "--alloc", "E", "--samples", "10000", "--seed", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "codeword_bits=800" in out
        assert "codeword_bits=512" in out

    def test_point_a_user1_length(self, tmp_path, capsys):
        code = main(
            ["codeparams", "--scenario", UPLINK, "--alloc", "A", "--samples", "10000", "--seed", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "codeword_bits=1024" in out

    def test_silent_user_degenerate(self, tmp_path, capsys):
        code = main(
            ["codeparams", "--scenario", UPLINK, "--alloc", "G", "--samples", "10000", "--seed", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "info_bits=0" in out
        assert "degenerate" in out

    def test_unknown_alloc_id(self, capsys):
        assert main(["codeparams", "--scenario", UPLINK, "--alloc", "Z"]) == EXIT_CONFIG


class TestConstellationDump:
    def test_point_e_component1(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        code = main(
            ["constellation", "--scenario", UPLINK, "--alloc", "E", "--component", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 257
        assert "256 points" in capsys.readouterr().out

    def test_component_out_of_range(self, tmp_path):
        out = tmp_path / "points.csv"
        code = main(
            ["constellation", "--scenario", UPLINK, "--alloc", "E", "--component", "5", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
