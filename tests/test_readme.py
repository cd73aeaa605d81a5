"""The Python API and the command lines that README documents."""

import json
import math
import pathlib
import re
import shlex

import pytest

import qwitness
from qwitness.cli import main
from qwitness.witness import Verdict

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_readme_python_example_shows_what_it_computes():
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    report = scope["report"]
    shown = dict(re.findall(r"^(report\.\w+)\s+# (.+)$", block, re.M))
    assert shown == {"report.min_eigenvalue": "-0.2071067811865475...",
                     "report.verdict": "Verdict.NONPOSITIVE_WITNESSED"}
    assert repr(report.min_eigenvalue).startswith("-0.2071067811865475")
    assert report.verdict is Verdict.NONPOSITIVE_WITNESSED


def test_top_level_exports_exactly_what_readme_imports():
    imported = set()
    for names in re.findall(r"^from qwitness import (.+)$", README, re.M):
        imported.update(name.strip() for name in names.split(","))
    assert imported
    assert sorted(qwitness.__all__) == sorted({"__version__"} | imported)
    for name in qwitness.__all__:
        assert hasattr(qwitness, name)


def test_readme_command_examples_print_the_lines_shown(capsys, tmp_path,
                                                       monkeypatch):
    # each `$ qwitness ...` line followed by an output line, and by the
    # exit code when `$ echo $?` shows one; an elided line, ending in
    # `, ...}`, is the start of the output. rho.json is the state of
    # README's file-format example
    (state,) = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    (tmp_path / "rho.json").write_text(state, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    shown = re.findall(
        r"^\$ qwitness (.+)\n(\{.*\})$(?:\n\$ echo \$\?\n(\d+)$)?", README,
        re.M)
    assert [(command, status) for command, _, status in shown] == [
        ("witness --states 0,0,1 1,0,0", "10"),
        ("amplify --state rho.json --target 0.05", ""),
        ("scan --kind bloch --grid 3 --seed 1 | tail -1", "")]
    for command, line, status in shown:
        argv, _, tail = command.partition(" | ")
        code = main(shlex.split(argv))
        out = capsys.readouterr().out.splitlines()
        if line.endswith(", ...}"):
            assert len(out) == 1 and out[0].startswith(line[:-len("...}")])
        else:
            assert (out[-1:] if tail == "tail -1" else out) == [line]
        assert code == int(status or 0)
    # the discord-demo example shows no output; the paragraph after it
    # names the exit code and the minimum eigenvalue
    ((command, prose),) = re.findall(
        r"^\$ qwitness (discord-demo [^\n]+)\n```\n\n(.*?)\n\n", README,
        re.M | re.S)
    assert ("exits 10 with minimum eigenvalue (1-sqrt 2)/2"
            in " ".join(prose.split()))
    assert main(shlex.split(command)) == 10
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["min_eigenvalue"] == pytest.approx((1 - math.sqrt(2)) / 2,
                                                     abs=1e-15)
