"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the public functions of each ``qwitness`` module at
the names their callers bind (``qwitness.scans.pure_mixed_test``,
``qwitness.states.hermitian_eigen``, ...) plus a few numpy entry points
(``numpy.linalg.eigh``, ...), so no package code changes. Each wrapped
call records one span: name, start, end and parent. Spans stay in
memory in flat arrays and are written out once, at the end of a run.

A span's layer is the module that defines the wrapped function; a
layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "scans", "witness", "states", "linalg", "discord",
          "interferometer", "numpy")

PACKAGE_MODULES = ("cli", "scans", "witness", "states", "linalg", "discord",
                   "interferometer")

# numpy entry points the package calls as ``np.<name>`` / ``np.linalg.<name>``
NUMPY_LINALG = ("eigh", "eigvalsh", "qr", "norm")
NUMPY_TOP = ("kron", "einsum")


class Recorder:
    """Span store plus the patches that feed it.

    ``install`` wraps the call sites, ``uninstall`` puts the original
    objects back. Spans are kept in flat arrays, one entry per span in
    the order the spans started.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public ``qwitness`` function at each module binding,
        ``DensityOperator`` construction, and the numpy entry points."""
        wrappers: dict[int, object] = {}
        for mod_name in PACKAGE_MODULES:
            module = importlib.import_module(f"qwitness.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("qwitness.") or owner not in LAYERS:
                    continue
                wrapped = wrappers.get(id(obj))
                if wrapped is None:
                    wrapped = wrappers[id(obj)] = self.wrap(
                        obj, f"{owner}.{obj.__name__}")
                self._patch(module, attr, wrapped)
        states = importlib.import_module("qwitness.states")
        cls = states.DensityOperator
        self._patch(cls, "__init__",
                    self.wrap(cls.__init__, "states.DensityOperator"))
        self._patch(cls, "spectrum", property(self.wrap(
            cls.__dict__["spectrum"].fget, "states.DensityOperator.spectrum")))
        for attr in NUMPY_LINALG:
            self._patch(np.linalg, attr,
                        self.wrap(getattr(np.linalg, attr), f"numpy.{attr}"))
        for attr in NUMPY_TOP:
            self._patch(np, attr, self.wrap(getattr(np, attr), f"numpy.{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.name_id)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns: ``name`` (index into ``names``),
        ``start``/``end`` in ns, ``parent`` (-1 for a root span)."""
        return {"name": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def extend(self, names: list[str], cols: dict[str, np.ndarray]) -> None:
        """Append spans recorded elsewhere (a traced subprocess), keeping
        their parent links within the appended block."""
        base = len(self.name_id)
        remap = np.array([self._intern(n) for n in names], dtype=np.int32)
        parent = cols["parent"].astype(np.int32)
        self.name_id.frombytes(remap[cols["name"]].tobytes())
        self.start.frombytes(cols["start"].astype(np.int64).tobytes())
        self.end.frombytes(cols["end"].astype(np.int64).tobytes())
        self.parent.frombytes(np.where(parent < 0, -1, parent + base)
                              .astype(np.int32).tobytes())

    def write(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``, compressed)."""
        with open(path, "wb") as fh:
            np.savez_compressed(fh, names=np.array(self.names, dtype=str),
                                **self.arrays())


def read_spans(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Names and columns from a file written by :meth:`Recorder.write`."""
    with np.load(path) as data:
        return ([str(n) for n in data["names"]],
                {k: data[k] for k in ("name", "start", "end", "parent")})


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Columns as in :meth:`Recorder.arrays`. Overlapping children are
    counted once, and a child is clipped to its parent's interval.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    reach = start.tolist()
    cov = [0] * len(reach)
    s_l, e_l, p_l = start.tolist(), end.tolist(), parent.tolist()
    for i in np.argsort(start, kind="stable").tolist():
        p = p_l[i]
        if p < 0:
            continue
        cs = max(s_l[i], reach[p])
        ce = min(e_l[i], e_l[p])
        if ce > cs:
            cov[p] += ce - cs
            reach[p] = ce
    return (end - start) - np.array(cov, dtype=np.int64)


def layer_of(name: str) -> str:
    """``linalg`` for ``linalg.hermitian_eigen``: the span's module."""
    return name.partition(".")[0]
