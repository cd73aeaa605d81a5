"""The byte contract: each command line of ``manifest.txt`` keeps its
exit code and the sha256 of what it prints.

A manifest row is one ``qwitness`` command line, its input files named
by token (``write_inputs`` writes them), followed by indented lines:

    exit CODE
    stdout [FAMILY] SHA256
    stderr [FAMILY] SHA256    optional; without the scan timing line
    csv [FAMILY] SHA256       the file a ``--csv out.csv`` row writes

The row's text is its test id. A value without a FAMILY holds for every
BLAS kernel family, else each family has its own line: numpy's OpenBLAS
picks its kernels for the running CPU (``OPENBLAS_CORETYPE`` overrides
the pick), and the AVX-512 and AVX2 kernels round some floats
differently. A run checks the column whose stdout digest its first row
prints. Comment lines (``#``) and blank lines go before a row.

Run as a script with one family name to record that family's column
from the running kernels, through the runner the tests use:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_manifest.py avx2

It will not write a family whose first-row digest the kernels miss,
as they may be another family's: to move the first row on purpose,
delete that row's ``stdout FAMILY`` line first.

To add a row, write its command line, and a bare ``stderr`` line below
it to pin stderr too: the script records exit, stdout, the ``--csv``
file and each listed field as one value for every family, which the
other family's run splits where it differs.
"""

import contextlib
import hashlib
import io
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from qwitness.cli import dumps, main
from qwitness.states import (
    make_density,
    pure_projector,
    random_density,
    random_pure,
    seeded_rng,
    state_to_json,
)

MANIFEST = pathlib.Path(__file__).with_name("manifest.txt")
FIELDS = ("exit", "stdout", "stderr", "csv")
_TIMING = re.compile(r"^scan \S+: \d+ records in \S+ s\n", re.M)


def read_manifest() -> dict:
    """Each row's comment lines and pinned values, by command line:
    ``{command: (comments, {field: {family or "*": value}})}``."""
    rows, comments = {}, []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith(" "):
            name, *value = line.split()
            column = fields.setdefault(name, {})
            if value:
                column[value[0] if len(value) == 2 else "*"] = value[-1]
        elif line and not line.startswith("#"):
            assert line not in rows, f"manifest row {line!r} repeats"
            fields = {}
            rows[line] = (comments, fields)
            comments = []
        else:
            comments.append(line)
    assert not any(comments), "a manifest comment must precede a row"
    return rows


def manifest_text(rows: dict) -> str:
    """The manifest file that holds ``rows``."""
    lines = []
    for command, (comments, fields) in rows.items():
        lines += [*comments, command]
        for name in FIELDS:
            for family, value in fields.get(name, {}).items():
                lines.append(f"    {name} {value}" if family == "*"
                             else f"    {name} {family} {value}")
    return "\n".join(lines) + "\n"


ROWS = read_manifest()


def pinned(command: str, family: str) -> dict:
    """The values ``command``'s row pins under one kernel family."""
    return {name: column.get(family, column.get("*"))
            for name, column in ROWS[command][1].items()}


def write_inputs(directory: pathlib.Path) -> dict:
    """Write every input file the manifest names into ``directory``, and
    map each token to its path (the token is the file's name)."""
    inputs = {"out.csv": str(directory / "out.csv")}

    def write(token, text):
        (directory / token).write_text(text, encoding="utf-8")
        inputs[token] = str(directory / token)

    def state(token, matrix):
        write(token, dumps(state_to_json(make_density(matrix))) + "\n")

    # circuit inputs of each register dimension d = 1..4: four seeded
    # mixed states, an amplitude probe, a pure-state probe and, for
    # d >= 2, the witness report of the first two states
    for d in (1, 2, 3, 4):
        rng = seeded_rng(69, d)
        for i in range(4):
            write(f"d{d}-s{i}", dumps(state_to_json(random_density(d, d, rng))))
        psi = random_pure(d, rng)
        write(f"d{d}-amplitudes",
              dumps({"amplitudes": [[z.real, z.imag] for z in psi]}))
        write(f"d{d}-pure",
              dumps(state_to_json(make_density(pure_projector(psi)))))
        if d >= 2:
            report = run(f"witness --states d{d}-s0 d{d}-s1", inputs)
            write(f"d{d}-report", report["stdout"].decode())
    # the acceptance battery's pair, diag(0.7, 0.3) and its Hadamard
    # rotation, and its probe |0>
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    state("s1.json", np.diag([0.7, 0.3]))
    state("s2.json", h @ np.diag([0.7, 0.3]) @ h)
    write("probe.json", '{"amplitudes": [[1, 0], [0, 0]]}')
    # a seeded two-qubit state for discord-demo --dims 2,2
    state("ab.json", random_density(4, 4, seeded_rng(0)).matrix)
    # a pure state a hair off an eigenvector of diag(0.5, 0.3, 0.2)
    psi = np.array([1.0, 1e-5, 0.0])
    state("psi.json", pure_projector(psi / np.linalg.norm(psi)))
    state("diag532.json", np.diag([0.5, 0.3, 0.2]))
    # a qutrit pair whose nested condition no amplification reaches:
    # diag(0.8, 0, 0.2) and 0.8|1><1| + 0.2|v><v|, v = (|1> + |2>)/sqrt 2
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    state("diag802.json", np.diag([0.8, 0.0, 0.2]))
    state("mix1v.json", np.diag([0.0, 0.8, 0.0]) + 0.2 * np.outer(v, v))
    # a state file cut off inside its JSON
    write("bad.json", '{"matrix": ')
    return inputs


def run(command: str, inputs: dict, env: dict | None = None) -> dict:
    """Run one manifest command line, in process or, given an
    environment, as ``python -m qwitness``: its exit code, stdout,
    stderr with the scan timing line dropped and each input path put
    back as its token, and the ``out.csv`` file it wrote, if any."""
    argv = [inputs.get(word, word) for word in command.split()]
    if env is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout, stderr = out.getvalue().encode(), err.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "qwitness", *argv],
                              capture_output=True, check=False, env=env)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr.decode()
    stderr = _TIMING.sub("", stderr)
    for token, path in inputs.items():
        stderr = stderr.replace(path, token)
    out_csv = pathlib.Path(inputs["out.csv"])
    written = out_csv.read_bytes() if out_csv.exists() else None
    out_csv.unlink(missing_ok=True)
    return {"exit": code, "stdout": stdout, "stderr": stderr.encode(),
            "csv": written}


def observed(outputs: dict, names) -> dict:
    """The manifest values of a run's ``outputs`` for the fields ``names``."""
    return {name: None if outputs[name] is None
            else str(outputs[name]) if name == "exit"
            else hashlib.sha256(outputs[name]).hexdigest()
            for name in names}


def fingerprint(inputs: dict) -> tuple[str | None, str]:
    """The family column that the first row's stdout matches, if any,
    and that stdout's digest."""
    command, (_, fields) = next(iter(ROWS.items()))
    digest = observed(run(command, inputs), ["stdout"])["stdout"]
    return next((family for family, value in fields["stdout"].items()
                 if value == digest), None), digest


def test_manifest_is_written_as_regeneration_writes_it():
    # so that a re-recorded column's diff holds only its changed values
    assert manifest_text(read_manifest()) == MANIFEST.read_text(encoding="utf-8")


def check(command: str, inputs: dict, family: str) -> None:
    """Assert that ``command`` prints what its row pins under ``family``."""
    want = pinned(command, family)
    assert observed(run(command, inputs), want) == want


@pytest.mark.parametrize("command", ROWS)
def test_row(command, golden_inputs, kernel_family):
    check(command, golden_inputs, kernel_family)


def regenerate(family: str) -> None:
    """Record ``family``'s column of every row from the running kernels;
    a value shared by all families splits only where ``family`` now
    prints another."""
    first = next(iter(ROWS.values()))[1]["stdout"]
    families = list(dict.fromkeys([*first, family]))
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(pathlib.Path(tmp))
        known, digest = fingerprint(inputs)
        if known is None and family in first:
            sys.exit(f"these kernels print no column's fingerprint "
                     f"({digest}); if the first row's stdout moved on "
                     f"purpose, delete its 'stdout {family}' line and "
                     f"run again")
        if known not in (None, family):
            sys.exit(f"these kernels print the {known} column "
                     f"(fingerprint {digest}), not {family}")
        for command, (_, fields) in ROWS.items():
            names = {"exit", "stdout", "csv", *fields}
            for name, value in observed(run(command, inputs), names).items():
                if value is None:
                    continue
                column = fields.setdefault(name, {})
                if not column:
                    column["*"] = value
                elif column.get(family, column.get("*")) != value:
                    if "*" in column:
                        column.update(dict.fromkeys(families, column.pop("*")))
                    column[family] = value
    MANIFEST.write_text(manifest_text(ROWS), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} FAMILY   (avx512, avx2, ...)")
    regenerate(sys.argv[1])
