"""The README's examples run against the current API and match real output."""

import re
from pathlib import Path

from hetmac.cli import EXIT_INFEASIBLE, main

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = Path(__file__).resolve().parent / "data"


def _text() -> str:
    return README.read_text(encoding="utf-8")


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _text(), re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["rates"]) == namespace["cfg"].users
    assert capsys.readouterr().out.count("\n") == 2


def test_det_verify_example_is_a_slice_of_the_golden_stdout():
    (block,) = re.findall(r"```\n(allocation .*?)```", _text(), re.DOTALL)
    golden = (DATA / "two_user_uplink_detverify.txt").read_text(encoding="utf-8")
    # whole lines, verbatim
    assert "\n" + block in "\n" + golden


def test_exit_three_example_is_what_region_prints(tmp_path, capsys):
    text = _text()
    (scenario,) = re.findall(r"```yaml\n(.*?)```", text, re.DOTALL)
    (message,) = re.findall(r"```\n(infeasible allocation: .*?)```", text, re.DOTALL)
    (report,) = re.findall(r"`hetmac det-verify --scenario tail\.yaml` .*?\nas `(.*?)`", text)
    path = tmp_path / "tail.yaml"
    path.write_text(scenario, encoding="utf-8")
    argv = ["region", "--scenario", str(path), "--out", str(tmp_path / "region.csv")]
    assert main(argv) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == message
    assert main(["det-verify", "--scenario", str(path)]) == EXIT_INFEASIBLE
    assert report in [line.strip() for line in capsys.readouterr().out.splitlines()]
