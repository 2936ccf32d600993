import contextlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hetmac.cli import (
    _FIELDS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VIOLATION,
    load_scenario,
    main,
)
from hetmac.errors import ConfigError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
UPLINK = str(SCENARIOS / "two_user_uplink.yaml")
WIDEBAND = str(SCENARIOS / "two_user_wideband.yaml")
# `region` on UPLINK at --samples 10000 --seed 20240901, recorded with the 2-D density kernel
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_UPLINK = DATA / "two_user_uplink_s10000_seed20240901.csv"
GOLDEN_ENUM = DATA / "two_user_uplink_enum_s10000_seed20241018.csv"
# user fields a scenario may get wrong, each with a value load_scenario must reject
BAD_USER_SCALARS = {
    "blocklength_abc": {"blocklength": "abc"},
    "blocklength_fraction": {"blocklength": 128.5},
    "target_eps_abc": {"target_eps": "abc"},
    "snr_db_x": {"snr_db": "x"},
    "snr_db_inf": {"snr_db": float("inf")},
    "power_x": {"snr_db": None, "power": "x", "gain": 1.0},
    "gain_pair_x": {"snr_db": None, "power": 16.0, "gain": ["x", 0.0]},
    # YAML booleans are not numbers: true must not load as 1
    # at 30 dB this user sorts first, so a blocklength of 1 would pass the order check
    "blocklength_bool": {"snr_db": 30.0, "blocklength": True},
    "snr_db_bool": {"snr_db": True},
    "power_bool": {"snr_db": None, "power": True, "gain": 1.0},
    "gain_bool": {"snr_db": None, "power": 16.0, "gain": True},
}
# sections of the wrong type and malformed order tables, each with the
# located message it must give (Python's own text used to leak through)
BAD_SECTIONS = {
    "estimator_zero": ({"estimator": 0}, "scenario.estimator must be a mapping, got 0"),
    "estimator_list": ({"estimator": []}, "scenario.estimator must be a mapping, got []"),
    "flags_false": ({"flags": False}, "scenario.flags must be a mapping, got False"),
    "allocations_mapping": ({"allocations": {}}, "scenario.allocations must be a list, got {}"),
    "allocations_zero": ({"allocations": 0}, "scenario.allocations must be a list, got 0"),
    "m_string": ({"allocations": [{"id": "E", "m": "ab"}]}, "allocations[0].m must be a list"),
    "m_row_mapping": (
        {"allocations": [{"id": "E", "m": [[4], {"a": 1}]}]}, "allocations[0].m[1] must be a list"
    ),
    "m_row_int": ({"allocations": [{"id": "E", "m": [[4], 5]}]}, "allocations[0].m[1] must be a list"),
    "m_entry_string": (
        {"allocations": [{"id": "E", "m": [["a"], [4, 4]]}]}, "orders must be integers, got 'a'"
    ),
    "m_inf": (
        {"allocations": [{"id": "E", "m": [[float("inf")], [4, 4]]}]},
        "orders must be integers, got inf",
    ),
    "m_nan": (
        {"allocations": [{"id": "E", "m": [[float("nan")], [4, 4]]}]},
        "orders must be integers, got nan",
    ),
}
# allocation ids a CSV cell cannot hold, or that name two allocations:
# (allocations, the --alloc text that named one at the parent, message)
_SECOND = {"id": "A", "m": [[2], [4, 4]]}
BAD_IDS = {
    "repeated": ([{"id": "A", "m": [[4], [4, 4]]}, _SECOND], "A", "allocations[1]: id 'A' is used twice"),
    "null": ([{"id": None, "m": [[4], [4, 4]]}], "None", "allocations[0].id must be"),
    "list": ([{"id": [1, 2], "m": [[4], [4, 4]]}], "[1, 2]", "allocations[0].id must be"),
    "bool": ([{"id": True, "m": [[4], [4, 4]]}], "True", "allocations[0].id must be"),
    "empty": ([{"id": "", "m": [[4], [4, 4]]}], "", "allocations[0].id must be"),
    "comma": ([{"id": "E,x", "m": [[4], [4, 4]]}], "E,x", "allocations[0].id must be"),
    "quote": ([{"id": 'E"x', "m": [[4], [4, 4]]}], 'E"x', "allocations[0].id must be"),
    "line_break": ([{"id": "E\nx", "m": [[4], [4, 4]]}], "E\nx", "allocations[0].id must be"),
}


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
        [
            "missing_file", "directory", "not_utf8", "malformed_yaml", "row_count",
            "too_many_allocations", "seed_abc", "seed_bool", "m_fraction", "m_bool",
            "even_only_string", "even_only_int", *BAD_USER_SCALARS, *BAD_SECTIONS,
        ],
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
        elif case in ("seed_abc", "seed_bool"):
            payload["estimator"]["seed"] = "abc" if case == "seed_abc" else True
            path = write_scenario(tmp_path, payload)
        elif case in BAD_USER_SCALARS:
            payload["users"][1].update(BAD_USER_SCALARS[case])
            path = write_scenario(tmp_path, payload)
        elif case in BAD_SECTIONS:
            payload.update(BAD_SECTIONS[case][0])
            path = write_scenario(tmp_path, payload)
        elif case == "m_fraction":
            payload["allocations"] = [{"id": "E", "m": [[4.7], [0, 4]]}]
            path = write_scenario(tmp_path, payload)
        elif case in ("even_only_string", "even_only_int"):
            payload["flags"] = {"even_only": "false" if case == "even_only_string" else 0}
            path = write_scenario(tmp_path, payload)
        elif case == "m_bool":
            payload["allocations"] = [{"id": "E", "m": [[4], [False, 4]]}]
            path = write_scenario(tmp_path, payload)
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
        if case in BAD_SECTIONS:
            assert BAD_SECTIONS[case][1] in err

    @pytest.mark.parametrize("case", BAD_IDS)
    @pytest.mark.parametrize("command", ["region", "det-verify", "codeparams"])
    def test_bad_allocation_id_exits_two(self, tmp_path, capsys, case, command):
        allocations, alloc_id, message = BAD_IDS[case]
        payload = base_payload()
        payload["allocations"] = allocations
        argv = [command, "--scenario", write_scenario(tmp_path, payload)]
        argv += {
            "region": ["--out", str(tmp_path / "r.csv")],
            "det-verify": [],
            "codeparams": ["--alloc", alloc_id],
        }[command]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    def test_unquoted_exponents_load_as_numbers(self, tmp_path):
        # YAML 1.1 has no float form without a dot, so PyYAML reads these as strings
        text = (
            "users:\n"
            "  - {snr_db: 1e1, blocklength: 128, target_eps: 1e-5, power: 1e-1, gain: 1e1}\n"
        )
        assert yaml.safe_load(text)["users"][0] == {
            "snr_db": "1e1", "blocklength": 128, "target_eps": "1e-5",
            "power": "1e-1", "gain": "1e1",
        }
        path = tmp_path / "exponents.yaml"
        path.write_text(text)
        (user,) = load_scenario(str(path)).users
        assert (user.snr_db, user.target_eps, user.power, user.gain) == (10.0, 1e-05, 0.1, 10.0)
        assert user.resolve() == pytest.approx((0.1, 10.0, 10.0))

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--samples", "10000"],
            ["constellation", "--alloc", "E", "--component", "1"],
        ],
    )
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "absent" / "x.csv"
        code = main([*argv, "--scenario", UPLINK, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["region", "det-verify"])
    def test_oversized_enumeration_stops_at_the_cap(self, tmp_path, capsys, command):
        # levels 99/98/97/96: component 1 alone holds more than the 200,000-allocation cap
        payload = base_payload()
        del payload["allocations"]
        payload["users"] = [
            {"snr_db": snr, "blocklength": 128 + i, "target_eps": 1e-5}
            for i, snr in enumerate((300.0, 297.0, 294.0, 291.0))
        ]
        argv = [command, "--scenario", write_scenario(tmp_path, payload)]
        if command == "region":
            argv += ["--out", str(tmp_path / "r.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert peak < 4 * 2**20

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

    @pytest.mark.parametrize(
        "scenario, golden, code",
        [
            (UPLINK, "two_user_uplink_detverify.txt", EXIT_OK),
            (str(DATA / "three_user_detverify.yaml"), "three_user_detverify.txt", EXIT_INFEASIBLE),
        ],
    )
    def test_golden_stdout_bytes(self, capsys, scenario, golden, code):
        # pins every printed rate, and the witness stream through the
        # VIOLATION lines a changed draw could bring
        assert main(["det-verify", "--scenario", scenario]) == code
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_one_region_check_per_allocation(self, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        calls = []
        true_verify = cli_mod.detmac.verify_region

        def counting(det):
            calls.append(det.m)
            return true_verify(det)

        monkeypatch.setattr(cli_mod.detmac, "verify_region", counting)
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_OK
        assert len(calls) == 7

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

    def test_one_layout_per_table_scheme_and_component(self, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        det._component_rows.cache_clear()  # entries left by earlier tests would hide calls
        current = []
        layouts = []
        true_rates, true_layout = det.achieved_rates, det.component_layout

        def rates(cfg, scheme_type, f_blocks=None):
            current.append((cfg.n, cfg.m, scheme_type))
            return true_rates(cfg, scheme_type, f_blocks)

        def layout(n, m_col, component, scheme_type):
            layouts.append((tuple(n), component, tuple(m_col), scheme_type))
            return true_layout(n, m_col, component, scheme_type)

        monkeypatch.setattr(det, "achieved_rates", rates)
        monkeypatch.setattr(det, "component_layout", layout)
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_OK
        # all 7 allocations are feasible: identity + 1 random witness per scheme
        assert len(current) == 7 * 4
        # C and D share one table, and tables that share a column share its layout
        tables = {(n, m) for n, m, _ in current}
        assert len(tables) == 6
        keys = {
            (n, l, tuple(m[k][l] for k in range(l, len(n))), s)
            for n, m in tables for s in (1, 2) for l in range(len(n))
        }
        assert len(keys) < 6 * 2 * 2
        assert sorted(layouts) == sorted(keys)

    def test_packed_pass_checks_the_layout(self, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        true_rows = det._depth_rows

        def shared_depth(cfg, scheme_type):
            # the last user with bits in a component reuses the first one's top depth
            out = []
            for comp in true_rows(cfg, scheme_type):
                comp = [list(rows) for rows in comp]
                busy = [rows for rows in comp if rows]
                if len(busy) > 1:
                    busy[-1][0] = busy[0][0]
                out.append(tuple(tuple(rows) for rows in comp))
            return tuple(out)

        monkeypatch.setattr(det, "_depth_rows", shared_depth)
        cfg = det.DetConfig(n=(8, 4), m=((4,), (4, 4)))
        rates = det.achieved_rates(cfg, 1)
        assert rates[(0, 0)] < 4 and rates[(1, 0)] < 4 and rates[(1, 1)] == 4
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_VIOLATION
        assert "VIOLATION" in capsys.readouterr().out


# "a0" repeats the first allocation's id when drawn for another id
_JUNK = ("abc", None, [1, 2], {"a": 1}, float("nan"), float("inf"), "", [], {}, "E,x", "a0")
_RARELY = st.integers(0, 19).map(lambda i: i == 7)


@st.composite
def _scenario_mappings(draw):
    """Scenario mappings, mostly well typed; a field is junk about one time in twenty.

    Besides the fields drawn below, every key of the loader's own table
    for a section is set to junk about one time in twenty, so a field the
    loader gains is fuzzed too.  SNRs stay below 7 dB (at most 2 bit
    levels), so even an enumerated three-user det-verify checks only a few
    hundred allocations.
    """

    def field(good):
        return draw(st.sampled_from(_JUNK)) if draw(_RARELY) else draw(good)

    def junk_keys(section, mapping):
        for key in _FIELDS[section]:
            if draw(_RARELY):
                mapping[key] = draw(st.sampled_from(_JUNK))
        return mapping

    users = []
    for _ in range(draw(st.integers(1, 3))):
        user = {
            "blocklength": field(st.sampled_from([128] * 8 + [64, 0])),
            "target_eps": field(st.sampled_from([1e-5, 1e-3, 0.1] * 3 + [0.0, 1.5])),
        }
        if not draw(_RARELY):
            user["snr_db"] = field(st.floats(-3.0, 6.0))
        if draw(_RARELY) or "snr_db" not in user:
            user["power"] = field(st.floats(0.5, 3.0))
            user["gain"] = field(st.sampled_from([1.0, -1.2, [0.6, 0.8], ["x", 1]]))
        users.append(junk_keys("users", user))
    out = {"users": field(st.just(users))}
    if draw(st.booleans()):
        estimator = draw(
            st.fixed_dictionaries(
                {},
                optional={"samples": st.sampled_from([10_000, 5]), "seed": st.integers(-3, 2**40)},
            )
        )
        out["estimator"] = field(st.just(junk_keys("estimator", estimator)))
    if draw(st.booleans()):
        flags = draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "even_only": st.sampled_from([True, False, "false"]),
                    "scheme_types": st.sampled_from(["1", "2", "both", "x"]),
                    "selection_policy": st.sampled_from(["all", "max_min", "x"]),
                },
            )
        )
        out["flags"] = field(st.just(junk_keys("flags", flags)))
    if draw(st.booleans()):
        allocations = []
        for j in range(draw(st.integers(0, 3))):
            rows = len(users) + draw(_RARELY)
            entry = st.sampled_from([0, 2] * 5 + [1, 4, "x", -1, 2.5, True])
            m = [[draw(entry) for _ in range(k + 1)] for k in range(rows)]
            alloc = {"id": f"a{j}", "m": field(st.just(m))}
            if draw(st.booleans()):
                alloc["scheme"] = draw(st.sampled_from([1, 2, 2, 3]))
            allocations.append(junk_keys("allocations", alloc))
        out["allocations"] = field(st.just(allocations))
    if draw(_RARELY):
        out["turbo"] = True
    return junk_keys("scenario", out)


def _run_quietly(payload, argv, out=None):
    """Exit code and stderr of main on argv plus --scenario naming payload as
    YAML and, when out is given, --out naming a file of that name beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(payload))
        argv = [*argv, "--scenario", str(path)]
        if out:
            argv += ["--out", str(Path(tmp) / out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stderr.getvalue()


class TestClosedFailureSurface:
    @given(_scenario_mappings())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_det_verify_exit_code_without_traceback(self, payload):
        code, err = _run_quietly(payload, ["det-verify"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_VIOLATION)
        if code == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1

    @given(_scenario_mappings(), st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_qam_commands_exit_code_without_traceback(self, payload, data):
        command = data.draw(st.sampled_from(["region", "codeparams", "constellation"]))
        # alloc_0 is the first enumerated allocation, a0 the first named one
        alloc = data.draw(st.sampled_from(["alloc_0", "a0"]))
        argv = {
            "region": ["region"],
            "codeparams": ["codeparams", "--alloc", alloc],
            "constellation": ["constellation", "--alloc", alloc, "--component", "1"],
        }[command]
        if command != "constellation":
            argv += ["--samples", data.draw(st.sampled_from(["10000", "10000", "5"]))]
            if data.draw(st.booleans()):
                argv += ["--seed", str(data.draw(st.integers(-3, 2**40)))]
        code, err = _run_quietly(payload, argv, out=None if command == "codeparams" else "o.csv")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_VIOLATION)
        if code == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_enumerated_csv_bytes(self, tmp_path, workers):
        # every even allocation of the uplink users: the sweep where most
        # sub-blocks repeat across allocations
        out = tmp_path / "region.csv"
        scenario = str(DATA / "two_user_uplink_enum.yaml")
        argv = ["region", "--scenario", scenario, "--out", str(out), "--workers", workers]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == GOLDEN_ENUM.read_bytes()

    def test_odd_scheme2_window_keeps_the_scheme1_row_under_both(self, tmp_path, capsys):
        # levels (9, 6): every allocation whose scheme-2 layering differs puts
        # an odd 3-bit window on user 1, so 'both' reports its scheme-1 row
        payload = base_payload()
        del payload["allocations"]
        payload["users"][0]["snr_db"], payload["users"][1]["snr_db"] = 27.0, 18.0
        path = write_scenario(tmp_path, payload)

        def scheme_rows(*scheme):
            out = tmp_path / "r.csv"
            assert main(["region", "--scenario", path, "--out", str(out), *scheme]) == EXIT_OK
            return [ln.split(",") for ln in out.read_text().splitlines() if ln.startswith("scheme,")]

        both, only1 = scheme_rows(), scheme_rows("--scheme", "1")
        assert [r[1] for r in both] == [r[1] for r in only1] and len(both) == 56
        assert {r[2] for r in both} == {"1", "1&2"}
        assert [r[3:] for r in both] == [r[3:] for r in only1]
        capsys.readouterr()
        assert main(["region", "--scenario", path, "--out", str(tmp_path / "r.csv"),
                     "--scheme", "2"]) == EXIT_CONFIG
        assert "layered window of 3 bits has no square QAM" in capsys.readouterr().err

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

    def test_unwritable_output_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        import hetmac.fblrate as fblrate_mod

        calls = []
        monkeypatch.setattr(fblrate_mod, "estimate_stats", lambda *a, **kw: calls.append(a))
        out = tmp_path / "absent" / "x.csv"
        assert main(["region", "--scenario", UPLINK, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: ")
        assert calls == []

    @pytest.mark.parametrize("existing", [b"earlier bytes\n", None])
    def test_infeasible_run_leaves_output_as_found(self, tmp_path, capsys, existing):
        payload = base_payload()
        payload["allocations"] = [{"id": "X", "m": [[8], [2, 4]]}]
        out = tmp_path / "r.csv"
        if existing is not None:
            out.write_bytes(existing)
        argv = ["region", "--scenario", write_scenario(tmp_path, payload), "--out", str(out)]
        assert main(argv) == EXIT_INFEASIBLE
        assert (out.read_bytes() if out.exists() else None) == existing


def test_component_cap_gives_one_message_everywhere(tmp_path, capsys):
    # 66 / 6 dB, m = [[20], [2, 2]]: component 1 holds 2**22 points, over the 2**20 cap
    payload = base_payload()
    payload["users"][0]["snr_db"], payload["users"][1]["snr_db"] = 66.0, 6.0
    payload["allocations"] = [{"id": "X", "m": [[20], [2, 2]]}]
    path = write_scenario(tmp_path, payload)
    errors = []
    for argv in (
        ["region", "--out", str(tmp_path / "r.csv")],
        ["codeparams", "--alloc", "X"],
        ["constellation", "--alloc", "X", "--component", "1", "--out", str(tmp_path / "p.csv")],
    ):
        assert main([*argv, "--scenario", path]) == EXIT_VIOLATION
        errors.append(capsys.readouterr().err)
    assert errors == ["error: superimposed cardinality exceeds cap 1048576\n"] * 3
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("m", [[[1024]], [[2]]])
def test_snr_above_the_largest_bit_level_is_rejected(tmp_path, capsys, m):
    # 3080 dB is bit level 1024, where 2.0**e energies overflow; 3079 dB is 1023
    payload = base_payload()
    payload["users"] = [{"snr_db": 3080.0, "blocklength": 128, "target_eps": 1e-6}]
    payload["allocations"] = [{"id": "X", "m": m}]
    path = write_scenario(tmp_path, payload)
    for argv in (
        ["region", "--out", str(tmp_path / "r.csv")],
        ["codeparams", "--alloc", "X"],
        ["constellation", "--alloc", "X", "--component", "1", "--out", str(tmp_path / "p.csv"),
         "--scheme", "2"],
    ):
        assert main([*argv, "--scenario", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: users[0]: SNR of 3080 dB needs 1024 bit levels, "
            "more than the 1023 supported\n"
        )
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "p.csv").exists()


def test_largest_bit_level_still_runs(tmp_path):
    payload = base_payload()
    payload["users"] = [{"snr_db": 3079.0, "blocklength": 128, "target_eps": 1e-6}]
    payload["allocations"] = [{"id": "X", "m": [[2]]}]
    path, out = write_scenario(tmp_path, payload), tmp_path / "r.csv"
    assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert "scheme,X,1&2,2,2,2,0,1,0" in lines
    # the Gaussian dispersion stays finite up to the largest SINR, about 1023 b/sym here
    gaussian = [line.split(",") for line in lines if line.startswith("gaussian_tin,")]
    assert len(gaussian) == 1 and float(gaussian[0][4]) > 1000.0


@pytest.mark.parametrize(
    "snrs, allocation, code, message",
    [
        # user 2's tail carries 6 > 4 bits in component 1, numbered as det-verify does
        (
            (24.0, 12.0), {"id": "Y", "m": [[2], [6, 0]]}, EXIT_INFEASIBLE,
            "infeasible allocation: allocation Y: component 1: users 2.. load 6 exceeds level 4",
        ),
        # levels (9, 6): scheme 2 gives user 1 the 3-bit slot above user 2's level
        (
            (27.0, 18.0), {"id": "O", "m": [[4], [2, 2]], "scheme": 2}, EXIT_CONFIG,
            "config error: allocation O: user 1, sub-block 1: "
            "layered window of 3 bits has no square QAM",
        ),
    ],
)
def test_allocation_errors_name_the_allocation(tmp_path, capsys, snrs, allocation, code, message):
    payload = base_payload()
    payload["users"][0]["snr_db"], payload["users"][1]["snr_db"] = snrs
    # a valid allocation first, so the message must name the one that fails
    payload["allocations"] = [{"id": "S", "m": [[2], [0, 2]]}, allocation]
    path = write_scenario(tmp_path, payload)
    for argv in (
        ["region", "--out", str(tmp_path / "r.csv")],
        ["codeparams", "--alloc", allocation["id"]],
    ):
        assert main([*argv, "--scenario", path]) == code
        assert capsys.readouterr().err == message + "\n"


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


@pytest.mark.parametrize("seed", [1, 204])
def test_bench_workload_scenarios_load(tmp_path, monkeypatch, seed):
    # the benchmark times load_scenario on these files, so a schema change
    # that rejected one would break its set-up run
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    for workload in module.WORKLOADS.values():
        path = tmp_path / f"{workload.name}.yaml"
        path.write_text(workload.scenario_yaml(seed))
        scenario = load_scenario(str(path))
        assert (len(scenario.users), len(scenario.allocations), scenario.samples, scenario.seed) == (
            len(workload.users), len(workload.allocations), workload.samples, seed
        )


def test_cli_import_loads_no_scipy():
    # the runtime is numpy, PyYAML and the standard library; scipy is a test dependency
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, hetmac.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
