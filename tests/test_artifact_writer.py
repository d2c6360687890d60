"""``repro.obs.write_artifact``: the one atomic writer behind every file
the package emits (CLI artifacts, exporters, the sweep result cache)."""

import json
import os

import pytest

from repro.obs import json_lines, write_artifact
from repro.sweep import ResultCache, make_spec


def _tmp_files(directory):
    return [name for name in os.listdir(directory) if name.startswith(".tmp-")]


class TestCanonicalBytes:
    def test_json_is_indented_sorted_and_newline_terminated(self, tmp_path):
        path = write_artifact(str(tmp_path / "a.json"), {"b": 1, "a": [2]})
        assert path == str(tmp_path / "a.json")
        assert (tmp_path / "a.json").read_text() == (
            '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        )

    def test_text_is_written_verbatim(self, tmp_path):
        write_artifact(str(tmp_path / "x.prom"), "no newline")
        assert (tmp_path / "x.prom").read_text() == "no newline"

    def test_json_lines_one_sorted_object_per_line(self):
        assert json_lines([{"b": 1, "a": 2}, {}]) == '{"a": 2, "b": 1}\n{}\n'
        assert json_lines([]) == ""

    def test_creates_the_target_directory(self, tmp_path):
        path = tmp_path / "deep" / "er" / "out.json"
        write_artifact(str(path), [])
        assert json.loads(path.read_text()) == []
        assert _tmp_files(tmp_path / "deep" / "er") == []


class TestAtomicReplace:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        write_artifact(str(path), {"version": 1})
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            write_artifact(str(path), {"version": 2})
        assert path.read_bytes() == before
        assert _tmp_files(tmp_path) == []

    def test_cache_put_failure_leaves_no_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = make_spec("slice:fig5.threads", fingerprint="f" * 64, count=4)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.put(spec, [1, 2], 0.5)
        assert cache.writes == 0
        assert cache.entries() == []
        assert _tmp_files(tmp_path / "cache") == []
        monkeypatch.undo()

        path = cache.put(spec, [1, 2], 0.5)
        assert cache.get(spec)["result"] == [1, 2]
        assert open(path).read().endswith("}\n")
