"""The Python API and the command lines that README documents."""

import pathlib
import re
import shlex

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
    # each `$ qwitness ...` line followed by a full (unelided) output
    # line; rho.json is the state of README's file-format example
    (state,) = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    (tmp_path / "rho.json").write_text(state, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    shown = [(command, line) for command, line in re.findall(
        r"^\$ qwitness (.+)\n(\{.*\})$", README, re.M)
        if not line.endswith(", ...}")]
    assert [command for command, _ in shown] == [
        "amplify --state rho.json --target 0.05",
        "scan --kind bloch --grid 3 --seed 1 | tail -1"]
    for command, line in shown:
        argv, _, tail = command.partition(" | ")
        main(shlex.split(argv))
        out = capsys.readouterr().out.splitlines()
        assert (out[-1:] if tail == "tail -1" else out) == [line]
