"""Crash points: a command interrupted at any commit boundary in `corpus.py`
resumes to the outputs of an uninterrupted run."""

import os
import shutil

import pytest

from medharness import corpus
from medharness.cli import main
from test_cli import build_env


class _AppendFile:
    """A file opened for appending, each write and truncate a boundary."""

    def __init__(self, f, points):
        self._f, self._points = f, points

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()

    def write(self, data):
        # An empty write writes nothing, so it is no boundary.
        if data:
            self._points.boundary("write", lambda: self._f.write(data[:len(data) // 2]))
        return self._f.write(data)

    def truncate(self, size):
        self._points.boundary("mend")
        return self._f.truncate(size)


class _Os:
    """`os` as `corpus.py` sees it, each `replace` a boundary."""

    def __init__(self, points):
        self._points = points

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        self._points.boundary("replace")
        os.replace(src, dst)


class CrashPoints:
    """Raises KeyboardInterrupt at one commit boundary in `corpus.py`.

    The boundaries are each `os.replace`, each append write and each tail
    mend (the `truncate` an `AppendLog` cuts a torn row off with). `events`
    lists the kinds of the boundaries passed since the last `arm`.
    `arm(kind, k, half)` makes the k-th boundary of `kind` (any kind when
    None) raise instead of happening; with `half`, an append write first
    writes the first half of its bytes. `crashed` tells whether it raised.
    """

    def __init__(self, monkeypatch):
        self.events: list[str] = []
        self.arm()
        monkeypatch.setattr(corpus, "open", self.open, raising=False)
        monkeypatch.setattr(corpus, "os", _Os(self))

    def arm(self, kind=None, k=None, half=False):
        self.kind, self.k, self.half = kind, k, half
        self.events.clear()
        self.crashed = False

    def open(self, file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _AppendFile(f, self) if "a" in mode else f

    def boundary(self, kind, write_half=None):
        self.events.append(kind)
        if self.kind not in (None, kind) or self.crashed:
            return
        seen = len(self.events) if self.kind is None else self.events.count(kind)
        if seen - 1 == self.k:
            self.crashed = True
            if self.half:
                write_half()
            raise KeyboardInterrupt


def outputs(root):
    """Every file under `out/` and `cache/` by relative path: a trace as its
    sorted lines, the CoT cache as a set of lines, any other file as bytes."""
    found = {}
    for path in sorted([*(root / "out").rglob("*"), *(root / "cache").rglob("*")]):
        if path.is_file():
            name, data = path.relative_to(root).as_posix(), path.read_bytes()
            if name.endswith(".trace.jsonl"):
                found[name] = sorted(data.split(b"\n"))
            elif name.startswith("cache/cot/"):
                found[name] = set(data.split(b"\n"))
            else:
                found[name] = data
    return found


@pytest.mark.parametrize("command", ["gen-cot", "ablate"])
def test_every_crash_point_resumes_to_the_uninterrupted_outputs(tmp_path, monkeypatch, command):
    """For every boundary k of an uninterrupted run, and for every append
    write cut after half its bytes: the command stops there with exit 130;
    run again, it stops at its first tail mend if it makes one; run a last
    time, it leaves what the uninterrupted run left."""
    config, _, _ = build_env(tmp_path, n_test=3, n_pool=8)
    args = [command, "--config", str(config), "--dataset", "medqa"]
    points = CrashPoints(monkeypatch)

    def fresh():
        for name in ("out", "cache"):
            shutil.rmtree(tmp_path / name, ignore_errors=True)

    fresh()
    assert main(args) == 0
    boundaries = list(points.events)
    expected = outputs(tmp_path)
    assert {"replace", "write"} <= set(boundaries)
    cases = [(k, False) for k in range(len(boundaries))]
    cases += [(k, True) for k, kind in enumerate(boundaries) if kind == "write"]
    mends = 0
    for k, half in cases:
        fresh()
        points.arm(k=k, half=half)
        assert main(args) == 130 and points.crashed, (k, half)
        points.arm("mend", 0)
        code = main(args)
        mends += points.crashed
        # A row cut in half is mended on resume; a crash at the mend leaves it torn.
        assert points.crashed == half and code == (130 if half else 0), (k, half)
        if half:
            points.arm()
            assert main(args) == 0
        assert outputs(tmp_path) == expected, (k, half)
    assert mends == boundaries.count("write")
