"""Span recorder: self-time arithmetic, patching, per-layer ratios."""

import contextlib
import io

import numpy as np

import layers
import spans


def _cols(rows):
    """(name, start, end, parent) rows to columns."""
    names = sorted({r[0] for r in rows})
    return names, {
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows], dtype=np.int64),
        "end": np.array([r[2] for r in rows], dtype=np.int64),
        "parent": np.array([r[3] for r in rows], dtype=np.int32),
    }


def test_self_time_subtracts_children_once_and_clips_them():
    rows = [
        ("cli.main", 0, 100, -1),           # 0
        ("scans.scan_bloch", 10, 40, 0),    # 1
        ("numpy.eigvalsh", 20, 30, 1),      # 2: grandchild, only its parent loses it
        ("states.bloch_to_state", 50, 90, 0),  # 3
        ("states.bloch_to_state", 80, 95, 0),  # 4: overlaps 3; union is 50..95
        ("cli.dumps", 95, 120, 0),          # 5: runs past its parent; clipped to 95..100
    ]
    _, cols = _cols(rows)
    own = spans.self_times(cols["start"], cols["end"], cols["parent"]).tolist()
    assert own == [100 - 30 - 45 - 5, 30 - 10, 10, 40, 15, 25]


def test_self_time_ignores_span_order():
    rows = [("b.child", 5, 8, 1), ("a.root", 0, 10, -1)]
    _, cols = _cols(rows)
    assert spans.self_times(cols["start"], cols["end"], cols["parent"]).tolist() == [3, 7]


def test_recorder_links_parents_and_self_times_add_up():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap(leaf, "linalg.leaf")

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    assert rec.wrap(outer, "witness.outer")(1) == 3
    cols = rec.arrays()
    assert [rec.names[i] for i in cols["name"]] == ["witness.outer", "linalg.leaf", "linalg.leaf"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    own = spans.self_times(cols["start"], cols["end"], cols["parent"])
    assert own.sum() == cols["end"][0] - cols["start"][0]


def test_install_keeps_output_and_uninstall_restores_bindings():
    import qwitness.cli as cli
    import qwitness.scans as scans

    original = scans.pure_mixed_test
    argv = ["scan", "--kind", "nested", "--trials", "6", "--seed", "3"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return buf.getvalue()

    plain = run()
    rec = spans.Recorder()
    rec.install()
    try:
        assert scans.pure_mixed_test is not original
        traced = run()
    finally:
        rec.uninstall()
    assert scans.pure_mixed_test is original
    assert traced == plain
    names = set(rec.names[i] for i in rec.arrays()["name"])
    assert {"cli.main", "scans.run_scan", "witness.nested_witness",
            "witness.plan_amplification", "states.DensityOperator", "numpy.eigh"} <= names


def test_state_eig_calls_follow_callers_through_linalg():
    rows = [
        ("states.DensityOperator", 0, 10, -1),         # 0
        ("numpy.eigvalsh", 1, 2, 0),                   # 1: validation of a state
        ("states.DensityOperator.spectrum", 20, 30, -1),  # 2
        ("linalg.hermitian_eigen", 21, 29, 2),         # 3
        ("numpy.eigh", 22, 28, 3),                     # 4: the state's spectrum
        ("witness.pure_mixed_test", 40, 60, -1),       # 5
        ("linalg.hermitian_eigen", 41, 59, 5),         # 6
        ("numpy.eigh", 42, 58, 6),                     # 7: an anticommutator, not a state
    ]
    names, cols = _cols(rows)
    assert layers.state_eig_calls(names, cols) == 2
