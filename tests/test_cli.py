import contextlib
import hashlib
import importlib.util
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hetmac.cli import (
    _FIELDS,
    _REQUIRED,
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VIOLATION,
    load_scenario,
    main,
)
from hetmac.errors import ConfigError
from hetmac.pipeline import BitAllocation

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


# (section, key) of every key a scenario must give, read off the loader's table
REQUIRED_KEYS = [
    (section, key)
    for section, table in _FIELDS.items()
    for key, (_, default) in table.items()
    if default is _REQUIRED
]


def write_scenario(tmp_path, payload, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def enumerated_three_users(seed):
    """All 1,980 even allocations of 36 / 24 / 12 dB (levels 12 / 8 / 4)."""
    return {
        "users": [
            {"snr_db": 36.0, "blocklength": 128, "target_eps": 1e-6},
            {"snr_db": 24.0, "blocklength": 200, "target_eps": 1e-5},
            {"snr_db": 12.0, "blocklength": 320, "target_eps": 1e-4},
        ],
        "estimator": {"samples": 10000, "seed": seed},
        "flags": {"even_only": True},
    }


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

    @pytest.mark.parametrize(
        "section, key", REQUIRED_KEYS, ids=[f"{section}.{key}" for section, key in REQUIRED_KEYS]
    )
    def test_missing_required_key_exits_two(self, tmp_path, capsys, section, key):
        payload = base_payload()
        if section == "scenario":
            holder, where = payload, "scenario"
        elif isinstance(payload.setdefault(section, {}), list):
            holder, where = payload[section][0], f"{section}[0]"
        else:
            holder, where = payload[section], section
        holder.pop(key, None)
        assert main(["det-verify", "--scenario", write_scenario(tmp_path, payload)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {where} needs {key}\n"

    @pytest.mark.parametrize("gain", [[1, 2, 3], {"re": 1}], ids=["triple", "mapping"])
    def test_gain_of_another_shape_exits_two(self, tmp_path, capsys, gain):
        payload = base_payload()
        payload["users"][0].update({"snr_db": None, "power": 16.0, "gain": gain})
        assert main(["det-verify", "--scenario", write_scenario(tmp_path, payload)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: users[0].gain must be a number or a [re, im] pair\n"
        )

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
        # YAML 1.1 has no float form without a dot, nor an exponent without a sign,
        # so PyYAML reads these as strings
        text = (
            "users:\n"
            "  - {snr_db: 1e1, blocklength: 1e2, target_eps: 1e-5, power: 1e-1, gain: 1e1}\n"
            "estimator: {samples: 2.0e4, seed: 12}\n"
        )
        raw = yaml.safe_load(text)
        assert raw["users"][0] == {
            "snr_db": "1e1", "blocklength": "1e2", "target_eps": "1e-5",
            "power": "1e-1", "gain": "1e1",
        }
        assert raw["estimator"]["samples"] == "2.0e4"
        path = tmp_path / "exponents.yaml"
        path.write_text(text)
        scenario = load_scenario(str(path))
        (user,) = scenario.users
        assert (user.snr_db, user.target_eps, user.power, user.gain) == (10.0, 1e-05, 0.1, 10.0)
        assert user.resolve() == pytest.approx((0.1, 10.0, 10.0))
        # an integer field reads a numeric string as the int it spells
        assert (user.blocklength, scenario.samples) == (100, 20_000)
        assert type(user.blocklength) is type(scenario.samples) is int
        for spelled, value in (("12", 12), ("1_2", 12), ("1.2e1", 12), ("-3", -3)):
            path.write_text(text.replace("seed: 12", f"seed: '{spelled}'"))
            assert load_scenario(str(path)).seed == value
        for bad in ("128.5", "lots", "1e400", "nan"):
            path.write_text(text.replace("blocklength: 1e2", f"blocklength: '{bad}'"))
            with pytest.raises(ConfigError, match=r"users\[0\]\.blocklength must be an integer"):
                load_scenario(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "users: [{snr_db: 24.0, blocklength: 128, target_eps: 1.0e-6}]\n"
            "estimator: {seed: 2024-02-30}\n",
            "users: !!int abc\n",
            "estimator: {seed: 1" + "0" * 4999 + "}\n",
            "users: " + "[" * 3000 + "\n",
        ],
        ids=["impossible_date", "int_tag_on_text", "5000_digit_int", "deep_nesting"],
    )
    def test_yaml_constructor_errors_exit_two(self, tmp_path, capsys, text):
        # PyYAML raises these as ValueError or RecursionError, not as a YAMLError
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert main(["det-verify", "--scenario", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed YAML in {path}: ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "where",
        ["users[1].blocklength", "estimator.seed", "estimator.samples", "--seed", "--samples"],
    )
    def test_integer_past_float_range_rejected(self, tmp_path, capsys, where):
        payload, extra = base_payload(), []
        if where.startswith("--"):
            extra = [where, str(10**400)]
        elif where.startswith("users"):
            payload["users"][1]["blocklength"] = 10**400
        else:
            payload["estimator"][where.split(".")[1]] = 10**400
        argv = ["region", "--scenario", write_scenario(tmp_path, payload)]
        assert main([*argv, "--out", str(tmp_path / "r.csv"), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where} must be an integer within float range, got 1")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("where", ["estimator.samples", "--samples"])
    def test_samples_past_maxsize_rejected(self, tmp_path, capsys, where):
        payload, extra = base_payload(), []
        if where == "--samples":
            extra = [where, str(10**30)]
        else:
            payload["estimator"]["samples"] = 10**30
        path = write_scenario(tmp_path, payload)
        assert main(["codeparams", "--scenario", path, "--alloc", "E", *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {where} must be at most {sys.maxsize}, got {10**30}\n"

    @pytest.mark.parametrize("command", ["region", "det-verify", "codeparams", "constellation"])
    def test_blocklength_past_maxsize_rejected(self, tmp_path, capsys, command):
        # past sys.maxsize, n * mi overflowed to an inf rate and R * N to an OverflowError
        payload = base_payload()
        payload["users"][1]["blocklength"] = 1.5e308
        argv = [command, "--scenario", write_scenario(tmp_path, payload)]
        argv += {
            "region": ["--out", str(tmp_path / "r.csv")],
            "codeparams": ["--alloc", "E"],
            "constellation": ["--alloc", "E", "--component", "1", "--out", str(tmp_path / "p.csv")],
            "det-verify": [],
        }[command]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"config error: users[1].blocklength must be at most {sys.maxsize}, got {int(1.5e308)}\n"
        )
        assert not (tmp_path / "r.csv").exists()

    def test_blocklength_at_maxsize_keeps_every_number_finite(self, tmp_path, capsys):
        payload = base_payload()
        payload["users"][1]["blocklength"] = sys.maxsize
        path = write_scenario(tmp_path, payload)
        out = tmp_path / "r.csv"
        assert main(["region", "--scenario", path, "--out", str(out)]) == EXIT_OK
        assert not re.search(r"\binf\b|nan", out.read_text())
        assert main(["codeparams", "--scenario", path, "--alloc", "E"]) == EXIT_OK
        assert "user 2: R=" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["region", "det-verify", "codeparams", "constellation"])
    def test_order_past_float_range_is_infeasible(self, tmp_path, capsys, command):
        # an order is an exact int of any size, so the tail-sum check rejects it
        payload = base_payload()
        payload["allocations"] = [{"id": "E", "m": [[4], [10**400, 4]]}]
        argv = [command, "--scenario", write_scenario(tmp_path, payload)]
        argv += {
            "region": ["--out", str(tmp_path / "r.csv")],
            "det-verify": [],
            "codeparams": ["--alloc", "E"],
            "constellation": ["--alloc", "E", "--component", "1", "--out", str(tmp_path / "p.csv")],
        }[command]
        assert main(argv) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        if command == "det-verify":
            assert f"load {10**400 + 4} / capacity 8" in captured.out
        else:
            assert captured.err.startswith("infeasible allocation: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "fields, where",
        [
            ({"target_eps": 1.5}, "users[1].target_eps must lie in (0, 1)"),
            ({"blocklength": 0}, "users[1].blocklength must be positive"),
            ({"snr_db": None, "power": 2}, "users[1]: power and gain must be given together"),
            ({"snr_db": None}, "users[1]: user needs snr_db, or power and gain"),
            ({"snr_db": None, "power": -1, "gain": 1}, "users[1]: SNR must be positive"),
            ({"power": 0, "gain": 1}, "users[1]: snr_db=36.0 conflicts with power*|gain|^2=0"),
            # (first user's fields, second user's): a 12 dB user with N = 100 listed
            # before a 24 dB user with N = 200; the rule names both
            (
                ({"snr_db": 12.0, "blocklength": 100}, {"snr_db": 24.0, "blocklength": 200}),
                "users[1] has a higher SNR than users[0] but a longer blocklength (200 > 100)",
            ),
        ],
    )
    def test_user_rule_errors_name_the_position_in_the_file(self, tmp_path, capsys, fields, where):
        # unless the case says otherwise, the bad user is listed second; at 36 dB with
        # the shorter block it sorts first
        first, second = fields if isinstance(fields, tuple) else ({}, fields)
        payload = base_payload()
        payload["users"][0].update(first)
        payload["users"][1].update({"snr_db": 36.0, "blocklength": 100, **second})
        assert main(["det-verify", "--scenario", write_scenario(tmp_path, payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1
        # the error names the users the case names, and no other
        assert re.findall(r"users\[\d+\]", err) == re.findall(r"users\[\d+\]", where)

    def test_unknown_command_is_left_to_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--scenario", UPLINK])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

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
        ids=["uplink", "three_user"],
    )
    def test_golden_stdout_bytes(self, capsys, scenario, golden, code):
        # pins every printed rate, and the witness stream through the
        # VIOLATION lines a changed draw could bring
        assert main(["det-verify", "--scenario", scenario]) == code
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("seed", [1, 7])
    def test_enumerated_three_user_stdout(self, tmp_path, capsys, seed):
        # every component line, rate summary and the witness stream behind them;
        # correct code prints the same bytes at any seed
        path = write_scenario(tmp_path, enumerated_three_users(seed))
        assert main(["det-verify", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\n") == 9901
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "075191cf963336c9555dd5009a252b8a6d22338b75faad2cb07e5b35aea7d3e6"
        )

    def test_enumerated_one_user_stdout(self, tmp_path, capsys):
        # one user: each column is a single order, and each table a single column
        payload = {
            "users": [{"snr_db": 24.0, "blocklength": 128, "target_eps": 1e-6}],
            "estimator": {"samples": 10000, "seed": 1},
            "flags": {"even_only": True},
        }
        assert main(["det-verify", "--scenario", write_scenario(tmp_path, payload)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "allocation alloc_0: m=((0,),)\n"
            "  component 1, users 1..: load 0 / capacity 8 (slack 8) ok\n"
            "  rates: I(user 1; block 1)=0\n"
            "allocation alloc_1: m=((2,),)\n"
            "  component 1, users 1..: load 2 / capacity 8 (slack 6) ok\n"
            "  rates: I(user 1; block 1)=2\n"
            "allocation alloc_2: m=((4,),)\n"
            "  component 1, users 1..: load 4 / capacity 8 (slack 4) ok\n"
            "  rates: I(user 1; block 1)=4\n"
            "allocation alloc_3: m=((6,),)\n"
            "  component 1, users 1..: load 6 / capacity 8 (slack 2) ok\n"
            "  rates: I(user 1; block 1)=6\n"
            "allocation alloc_4: m=((8,),)\n"
            "  component 1, users 1..: load 8 / capacity 8 (slack 0) ok\n"
            "  rates: I(user 1; block 1)=8\n"
            "all rank identities hold\n"
        )

    @pytest.mark.parametrize(
        "fault, code, lines, violations, digest",
        [
            (False, EXIT_OK, 701, 0, "d5814e11ddab777413ed43760fb9ff8583dc209cf41fd79d435d50452a6c6a52"),
            # the "all rank identities hold" line gives way to 76 VIOLATION lines
            (True, EXIT_VIOLATION, 776, 76, "b72bc05d7c1e4aee"),
        ],
        ids=["correct", "packing_fault"],
    )
    def test_enumerated_odd_order_stdout(
        self, tmp_path, monkeypatch, capsys, fault, code, lines, violations, digest
    ):
        # every order, odd ones included: enumeration steps by 1, and the witnesses
        # take the block branch at odd sizes m = 1, 3, 5, 7
        import hetmac.cli as cli_mod

        payload = {**base_payload(), "flags": {"even_only": False}}
        del payload["allocations"]
        if fault:
            monkeypatch.setattr(cli_mod.detmac, "_component_ranks", _packing_fault(cli_mod.detmac))
        assert main(["det-verify", "--scenario", write_scenario(tmp_path, payload)]) == code
        out = capsys.readouterr().out
        assert sum(line.startswith("allocation ") for line in out.splitlines()) == 175
        assert out.count("\n") == lines
        assert out.count("VIOLATION") == violations
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        # about 700 KB of stdout, more than a pipe holds: the run writes after the
        # reader has gone
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        scenario = write_scenario(tmp_path, enumerated_three_users(1))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hetmac.cli", "det-verify", "--scenario", scenario],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().startswith(b"allocation alloc_0000: ")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert b"Traceback" not in err

    def test_records_never_change_what_an_allocation_prints(self, tmp_path, monkeypatch, capsys):
        # run alone, each allocation takes the full check; in the file's run two of
        # the 42 are printed from the ledger, whose lines earlier allocations passed
        import hetmac.cli as cli_mod

        scenario = DATA / "three_user_detverify.yaml"
        payload = yaml.safe_load(scenario.read_text(encoding="utf-8"))
        checked = []
        true_verify = cli_mod.detmac.verify_region

        def counting(n, alloc):
            checked.append(alloc.m)
            return true_verify(n, alloc)

        monkeypatch.setattr(cli_mod.detmac, "verify_region", counting)
        assert main(["det-verify", "--scenario", str(scenario)]) == EXIT_INFEASIBLE
        whole = capsys.readouterr().out
        assert len(payload["allocations"]) == 42 and len(checked) == 40
        blocks, codes = [], []
        for alloc in payload["allocations"]:
            path = write_scenario(tmp_path, {**payload, "allocations": [alloc]})
            codes.append(main(["det-verify", "--scenario", path]))
            blocks.append(capsys.readouterr().out.removesuffix("all rank identities hold\n"))
        assert {EXIT_OK, EXIT_INFEASIBLE} == set(codes)
        assert "".join(blocks) == whole

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            (UPLINK, "0814fc56d014d4d5929d3ef420939f174ec852bff59851a40a9d9cc230a8bfa2"),
            (
                str(DATA / "three_user_detverify.yaml"),
                "805155fd56e08bf972a26870d7e8b3860547a514c359a5bf21526cc03ea937fd",
            ),
        ],
        ids=["uplink", "three_user"],
    )
    def test_failures_are_rechecked_never_recorded(self, monkeypatch, capsys, scenario, digest):
        # the digests are of the stdout from before det-verify kept a per-column ledger
        # (14 and 152 VIOLATION lines): a table that fails passes no column, so every
        # later table that holds one of its columns is checked and reported again
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        monkeypatch.setattr(det, "_component_rows", _shared_depth(det._component_rows))
        assert main(["det-verify", "--scenario", scenario]) == EXIT_VIOLATION
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_one_region_check_per_allocation(self, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        calls = []
        true_verify = cli_mod.detmac.verify_region

        def counting(n, alloc):
            calls.append(alloc.m)
            return true_verify(n, alloc)

        monkeypatch.setattr(cli_mod.detmac, "verify_region", counting)
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_OK
        # D repeats C's table, whose columns passed with C: D is printed from the ledger
        assert len(calls) == len(set(calls)) == 6

    def test_few_enumerated_tables_take_the_full_check(self, tmp_path, monkeypatch, capsys):
        # the skip rate that keeps det-verify fast, which its stdout cannot show: of
        # the 1,980 tables, 68 bring a column the ledger has not passed, and the
        # other 1,912 are printed from the ledger
        import hetmac.cli as cli_mod

        calls = []
        true_verify = cli_mod.detmac.verify_region

        def counting(n, alloc):
            calls.append(alloc.m)
            return true_verify(n, alloc)

        monkeypatch.setattr(cli_mod.detmac, "verify_region", counting)
        path = write_scenario(tmp_path, enumerated_three_users(1))
        assert main(["det-verify", "--scenario", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert sum(line.startswith("allocation ") for line in out.splitlines()) == 1980
        assert len(calls) == len(set(calls)) == 68

    def test_rank_violation_maps_to_exit_four(self, tmp_path, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        true_rates = cli_mod.detmac.achieved_rates

        def corrupted(n, alloc, scheme_type, f_blocks=None):
            rates = dict(true_rates(n, alloc, scheme_type, f_blocks))
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

        def rates(n, alloc, scheme_type, f_blocks=None):
            current.append((n, alloc.m, scheme_type))
            return true_rates(n, alloc, scheme_type, f_blocks)

        def layout(n, m_col, component, scheme_type):
            layouts.append((tuple(n), component, tuple(m_col), scheme_type))
            return true_layout(n, m_col, component, scheme_type)

        monkeypatch.setattr(det, "achieved_rates", rates)
        monkeypatch.setattr(det, "component_layout", layout)
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_OK
        # all 7 allocations are feasible: the identity per scheme, and a random
        # witness per scheme, for the 6 that bring a new component; D repeats C's
        # table and is printed from the ledger lines of C's columns
        assert len(current) == 6 * 2 + 6 * 2
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
        monkeypatch.setattr(det, "_component_rows", _shared_depth(det._component_rows))
        rates = det.achieved_rates((8, 4), BitAllocation(m=((4,), (4, 4))), 1)
        assert rates[(0, 0)] < 4 and rates[(1, 0)] < 4 and rates[(1, 1)] == 4
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_VIOLATION
        assert "VIOLATION" in capsys.readouterr().out
        # the mutant edited copies of the rows: _component_rows' cache still holds the true ones
        monkeypatch.undo()
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_OK
        assert capsys.readouterr().out.encode() == (DATA / "two_user_uplink_detverify.txt").read_bytes()

    def test_identity_checked_once_without_a_new_component(self, monkeypatch, capsys):
        # under the shared-depth mutant every shared component violates; C brings a
        # new component, so identity and witness both report it, while D repeats
        # C's table and is checked on the identity alone
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        monkeypatch.setattr(det, "_component_rows", _shared_depth(det._component_rows))
        assert main(["det-verify", "--scenario", UPLINK]) == EXIT_VIOLATION
        blocks = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("allocation "):
                alloc_id = line.split()[1].rstrip(":")
            elif "VIOLATION" in line:
                blocks.setdefault(alloc_id, []).append(line.split(":")[0].strip())
        assert blocks["C"] == ["scheme 1"] * 2 + ["scheme 2"] * 2
        assert blocks["D"] == ["scheme 1", "scheme 2"]

    def test_one_witness_per_component_column_and_scheme(self, monkeypatch, capsys):
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        drawn, calls = [], []
        true_draw, true_rates = det.random_full_rank, det.achieved_rates

        def draw(n, rng):
            drawn.append(true_draw(n, rng))
            return drawn[-1]

        def rates(n, alloc, scheme_type, f_blocks=None):
            calls.append((alloc, scheme_type, dict(f_blocks or {})))
            return true_rates(n, alloc, scheme_type, f_blocks)

        monkeypatch.setattr(det, "random_full_rank", draw)
        monkeypatch.setattr(det, "achieved_rates", rates)
        scenario = str(DATA / "three_user_detverify.yaml")
        assert main(["det-verify", "--scenario", scenario]) == EXIT_INFEASIBLE

        def key(alloc, l, scheme_type):
            return l, tuple(alloc.m[k][l] for k in range(l, alloc.users)), scheme_type

        distinct = {key(alloc, l, s) for alloc, s, _ in calls for l in range(alloc.users)}
        witnessed, blocks = [], []
        for alloc, s, f_blocks in calls:
            comps = sorted({l for _, l in f_blocks})
            # every user of a new component, in (l, k) order
            assert list(f_blocks) == [(k, l) for l in comps for k in range(l, alloc.users)]
            witnessed += [key(alloc, l, s) for l in comps]
            blocks += f_blocks.values()
        assert len(witnessed) == len(set(witnessed)) == len(distinct)
        assert set(witnessed) == distinct
        assert len(drawn) == sum(len(column) for _, column, _ in distinct)
        assert len(blocks) == len(drawn) and all(b is d for b, d in zip(blocks, drawn))

    @pytest.mark.parametrize(
        "scenario, golden",
        [
            (UPLINK, "two_user_uplink_detverify.txt"),
            (str(DATA / "three_user_detverify.yaml"), "three_user_detverify.txt"),
        ],
        ids=["uplink", "three_user"],
    )
    def test_witness_catches_a_packing_fault(self, monkeypatch, capsys, scenario, golden):
        import hetmac.cli as cli_mod

        det = cli_mod.detmac
        monkeypatch.setattr(det, "_component_ranks", _packing_fault(det))
        assert main(["det-verify", "--scenario", scenario]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        # identity rates and region checks are printed as before
        golden_lines = (DATA / golden).read_text(encoding="utf-8").splitlines()
        assert [line for line in out.splitlines() if "VIOLATION" not in line] == [
            line for line in golden_lines if line != "all rank identities hold"
        ]


def _packing_fault(det):
    """Mutant of detmac._component_ranks: the block branch packs witness rows
    one column past their offset.  The mutated line sits only in that branch,
    so the identity rates stay true."""
    source = textwrap.dedent(inspect.getsource(det._component_ranks))
    assert source.count("b << offset") == 1
    namespace = dict(vars(det))
    mutated = source.replace("b << offset", "b << (offset + 1)")
    exec(compile(mutated, det.__file__, "exec"), namespace)
    return namespace["_component_ranks"]


def _shared_depth(true_rows):
    """Mutant of detmac._component_rows: the last user with bits in a
    component reuses the first one's top depth."""

    def shared_depth(n, component, m_col, scheme_type):
        comp = [list(rows) for rows in true_rows(n, component, m_col, scheme_type)]
        busy = [rows for rows in comp if rows]
        if len(busy) > 1:
            busy[-1][0] = busy[0][0]
        return tuple(tuple(rows) for rows in comp)

    return shared_depth


# "a0" repeats the first allocation's id when drawn for another id
# 10**400 is an int past float range
_JUNK = (
    "abc", None, [1, 2], {"a": 1}, float("nan"), float("inf"), "", [], {}, "E,x", "a0", 10**400
)
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
            entry = st.sampled_from([0, 2] * 5 + [1, 4, "x", -1, 2.5, True, 10**400])
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

    def test_a_run_starts_no_thread(self, tmp_path, monkeypatch):
        # --workers is accepted and changes nothing: every estimate runs on the calling thread
        starts = []
        true_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda thread: (starts.append(thread), true_start(thread))
        )
        outs = []
        for workers in ("2", "1"):
            out = tmp_path / f"region_{workers}.csv"
            argv = [
                "region", "--scenario", UPLINK, "--out", str(out),
                "--samples", "10000", "--workers", workers,
            ]
            assert main(argv) == EXIT_OK
            outs.append(out.read_bytes())
        assert starts == []
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_a_process_runs_on_one_os_thread(self, tmp_path):
        # importing hetmac keeps OpenBLAS from starting its worker pool, whose idle
        # threads spin-wait on the other cores; hetmac makes no BLAS call
        probe = textwrap.dedent(f"""
            import contextlib, io, os
            from hetmac.cli import main
            out = {str(tmp_path / "r.csv")!r}
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["det-verify", "--scenario", {UPLINK!r}]) == 0
                assert main(["region", "--scenario", {UPLINK!r}, "--samples", "10000", "--out", out]) == 0
            print(len(os.listdir("/proc/self/task")))
        """)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        assert run_probe(probe, env).stdout == "1\n"

    def test_a_preset_blas_thread_count_wins(self):
        probe = "import os, hetmac.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_probe(probe, {**os.environ, "OPENBLAS_NUM_THREADS": "2"}).stdout == "2\n"

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
        from hetmac.signaling import Constellation, build_scheme
        from hetmac.pipeline import BitAllocation

        sig = build_scheme(cfg, BitAllocation(m=((4,),)))
        mi_q, v_q = density_moments_quadrature(
            Constellation(sig.transmit_axis(0, 0)).points * cfg.h[0], nodes=64
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

    @pytest.mark.parametrize(
        "snrs, failing, code",
        [
            ((24.0, 12.0), [[2], [6, 0]], EXIT_INFEASIBLE),  # user 2 over its level 4
            ((66.0, 6.0), [[20], [2, 2]], EXIT_VIOLATION),  # 2**22 points in component 1
        ],
    )
    def test_failing_allocation_exits_before_any_sampling(
        self, tmp_path, capsys, monkeypatch, snrs, failing, code
    ):
        import hetmac.fblrate as fblrate_mod

        calls = []
        monkeypatch.setattr(fblrate_mod, "estimate_stats", lambda *a, **kw: calls.append(a))
        payload = base_payload()
        payload["users"][0]["snr_db"], payload["users"][1]["snr_db"] = snrs
        # two valid allocations first: the sweep builds and checks all before it samples
        payload["allocations"] = [
            {"id": "S", "m": [[2], [0, 2]]}, {"id": "T", "m": [[2], [2, 2]]},
            {"id": "Z", "m": failing},
        ]
        argv = ["region", "--scenario", write_scenario(tmp_path, payload), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == code
        assert capsys.readouterr().err.count("\n") == 1
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


@pytest.mark.parametrize(
    "command, existing",
    [("region", b"earlier bytes\n"), ("region", None), ("codeparams", None)],
)
def test_samples_numpy_cannot_hold_exit_four(tmp_path, capsys, command, existing):
    # sys.maxsize is within the sample bound, and numpy rejects its arrays before
    # allocating anything
    out = tmp_path / "r.csv"
    if existing is not None:
        out.write_bytes(existing)
    argv = ["region", "--out", str(out)] if command == "region" else ["codeparams", "--alloc", "E"]
    assert main([*argv, "--scenario", UPLINK, "--samples", str(sys.maxsize)]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot allocate the arrays of {sys.maxsize} samples ")
    assert err.count("\n") == 1
    assert (out.read_bytes() if out.exists() else None) == existing


@pytest.mark.parametrize("command", ["region", "codeparams"])
def test_samples_out_of_memory_exit_four(tmp_path, capsys, monkeypatch, command):
    import numpy as np

    true_empty = np.empty

    def empty(shape, *args, **kwargs):
        # only the per-sample arrays of the scenario's 10,000 samples run out of memory
        if isinstance(shape, tuple) and shape[-1] == 10_000:
            raise MemoryError("no memory for the samples")
        return true_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    out = tmp_path / "r.csv"
    path = write_scenario(tmp_path, base_payload())
    argv = ["region", "--out", str(out)] if command == "region" else ["codeparams", "--alloc", "E"]
    assert main([*argv, "--scenario", path]) == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "error: cannot allocate the arrays of 10000 samples (about 32 bytes each): "
        "no memory for the samples\n"
    )
    assert not out.exists()


def test_scheme_precedence(tmp_path, capsys):
    # region: an allocation's own scheme beats --scheme (and flags.scheme_types);
    # codeparams and constellation: --scheme beats the allocation's scheme
    out = tmp_path / "r.csv"
    argv = ["--scenario", UPLINK, "--samples", "10000"]
    assert main(["region", *argv, "--out", str(out), "--scheme", "1"]) == EXIT_OK
    cells = [line.split(",") for line in out.read_text().splitlines()]
    labels = {c[1]: c[2] for c in cells if c[0] == "scheme"}
    assert labels == {"A": "1", "B": "1", "C": "1", "D": "2", "E": "1", "F": "1", "G": "1"}
    capsys.readouterr()
    assert main(["codeparams", *argv, "--alloc", "D", "--scheme", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("allocation D scheme 1\n")
    dumps = {}
    # C is D's table under scheme 1
    for alloc_id, extra in (("C", []), ("D", []), ("D", ["--scheme", "1"])):
        dump = tmp_path / "p.csv"
        cmd = ["constellation", "--scenario", UPLINK, "--alloc", alloc_id, "--component", "1"]
        assert main([*cmd, "--out", str(dump), *extra]) == EXIT_OK
        dumps[(alloc_id, *extra)] = dump.read_bytes()
    assert dumps[("D", "--scheme", "1")] == dumps[("C",)] != dumps[("D",)]


@pytest.mark.parametrize(
    "order, code, message",
    [
        ("XY", EXIT_VIOLATION, "error: superimposed cardinality exceeds cap 1048576"),
        ("YX", EXIT_INFEASIBLE, "infeasible allocation: allocation Y: "),
    ],
)
def test_first_failing_allocation_in_list_order_decides(tmp_path, capsys, order, code, message):
    # 66 / 6 dB, levels 22 / 2: X holds 2**22 points in component 1, over the cap,
    # and Y gives user 1 24 bits, over its level
    payload = base_payload()
    payload["users"][0]["snr_db"], payload["users"][1]["snr_db"] = 66.0, 6.0
    failing = {"X": [[20], [2, 2]], "Y": [[24], [0, 2]]}
    payload["allocations"] = [{"id": "S", "m": [[2], [0, 2]]}] + [
        {"id": i, "m": failing[i]} for i in order
    ]
    argv = ["region", "--scenario", write_scenario(tmp_path, payload), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
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


@pytest.mark.parametrize("snr_db, level", [(3083.0, 1025), (4000.0, 1329)])
def test_snr_past_float_range_names_the_db_in_the_file(tmp_path, capsys, snr_db, level):
    # from about 3082.6 dB the linear SNR overflows a float; the message still gives the dB
    payload = base_payload()
    payload["users"] = [{"snr_db": snr_db, "blocklength": 128, "target_eps": 1e-6}]
    payload["allocations"] = [{"id": "X", "m": [[2]]}]
    path = write_scenario(tmp_path, payload)
    for argv in (
        ["region", "--out", str(tmp_path / "r.csv")],
        ["det-verify"],
        ["codeparams", "--alloc", "X"],
        ["constellation", "--alloc", "X", "--component", "1", "--out", str(tmp_path / "p.csv")],
    ):
        assert main([*argv, "--scenario", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: users[0]: SNR of {snr_db:g} dB needs {level} bit levels, "
            "more than the 1023 supported\n"
        )
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "user, message",
    [
        ({"power": 1e200, "gain": 1e100},
         "SNR of 4000 dB needs 1329 bit levels, more than the 1023 supported"),
        ({"snr_db": -4000.0}, "SNR of -4000 dB underflows a float"),
        ({"power": 1e-200, "gain": 1e-100}, "SNR of -4000 dB underflows a float"),
        ({"power": 0.0, "gain": 1.0}, "SNR must be positive and finite, got 0"),
    ],
    ids=["overflow", "snr_db_underflow", "power_gain_underflow", "zero_power"],
)
def test_snr_outside_float_range_is_a_config_error(tmp_path, capsys, user, message):
    # finite numbers in the file whose linear SNR overflows or underflows a float
    payload = base_payload()
    payload["users"] = [{**user, "blocklength": 128, "target_eps": 1e-6}]
    payload["allocations"] = [{"id": "X", "m": [[0]]}]
    path = write_scenario(tmp_path, payload)
    assert main(["codeparams", "--alloc", "X", "--scenario", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: users[0]: {message}\n"


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


    @pytest.mark.parametrize("component", ["0", "3"])
    def test_component_is_checked_before_the_allocation(self, tmp_path, capsys, component):
        # Y breaks the tail-sum rule (user 2 puts 6 bits under level 4), so building
        # its scheme first would exit 3
        payload = base_payload()
        payload["allocations"] = [{"id": "Y", "m": [[2], [6, 0]]}]
        out = tmp_path / "c.csv"
        argv = ["constellation", "--scenario", write_scenario(tmp_path, payload)]
        assert main([*argv, "--alloc", "Y", "--component", component, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: component must lie in 1..2\n"
        assert not out.exists()

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


def run_probe(probe: str, env: dict) -> subprocess.CompletedProcess:
    """Run the Python source probe in a fresh interpreter that imports this checkout's hetmac."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )


def test_cli_import_loads_no_scipy():
    # the runtime is numpy, PyYAML and the standard library; scipy is a test dependency
    probe = "import sys, hetmac.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_probe(probe, dict(os.environ)).stdout == "[]\n"
