"""CLI surface of the telemetry pipeline: ``python -m repro metrics``
and the chaos mode of ``python -m repro trace``.

Runs the real ``main()`` in-process and validates every artifact with
the strict parsers.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.obs import (
    parse_prometheus,
    validate_chrome_trace,
    validate_event_jsonl,
)


def _run(argv):
    from repro.__main__ import main

    stream = io.StringIO()
    with redirect_stdout(stream):
        code = main(argv)
    return code, stream.getvalue()


class TestMetricsSubcommand:
    def test_listed_in_help(self):
        from repro.__main__ import _build_parser

        stream = io.StringIO()
        with redirect_stdout(stream):
            _build_parser().print_help()
        assert "metrics" in stream.getvalue()

    def test_stream_run_exports_all_three_artifacts(self, tmp_path):
        code, out = _run([
            "metrics", "stream", "--bytes", "32768",
            "--out", str(tmp_path),
        ])
        assert code == 0
        exposition = (tmp_path / "metrics-stream.prom").read_text()
        parsed = parse_prometheus(exposition)
        assert len(parsed["samples"]) > 0
        journal = (tmp_path / "events-stream.jsonl").read_text()
        assert validate_event_jsonl(journal) >= 2  # steal + attach
        folded = (tmp_path / "profile-stream.folded").read_text()
        assert all(
            line.startswith("sim;") for line in folded.splitlines()
        )
        # Exposition and profiler table reach stdout too.
        assert "# TYPE" in out
        assert "sim-time profile" in out
        assert "strict parse OK" in out

    def test_holding_slo_exits_zero(self, tmp_path):
        code, out = _run([
            "metrics", "stream", "--bytes", "32768",
            "--out", str(tmp_path),
            "--slo", "traffic: bus.loads{bus=node0.bus,node=node0} >= 1",
        ])
        assert code == 0
        assert "SLO report" in out and "BREACH" not in out

    def test_breached_slo_exits_nonzero_and_journals(self, tmp_path):
        code, out = _run([
            "metrics", "stream", "--bytes", "32768",
            "--out", str(tmp_path),
            "--slo", "impossible: bus.loads{bus=node0.bus,node=node0} < 0",
        ])
        assert code == 1
        assert "BREACH" in out
        journal = (tmp_path / "events-stream.jsonl").read_text()
        breaches = [
            json.loads(line) for line in journal.splitlines()
            if json.loads(line)["kind"] == "slo.breach"
        ]
        assert len(breaches) == 1
        assert breaches[0]["slo"] == "impossible"
        assert breaches[0]["workload"] == "stream"

    def test_absent_metric_slo_breaches(self, tmp_path):
        code, _out = _run([
            "metrics", "pingpong", "--bytes", "32768",
            "--out", str(tmp_path),
            "--slo", "ghost: no.such_metric >= 0",
        ])
        assert code == 1

    def test_profiler_stride_is_respected(self, tmp_path):
        _code, out = _run([
            "metrics", "stream", "--bytes", "32768",
            "--out", str(tmp_path), "--stride", "64",
        ])
        assert "@ stride 64" in out


class TestTraceChaosMode:
    @pytest.fixture(scope="class")
    def chaos_run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("chaos")
        code, out = _run([
            "trace", "chaos", "--scenario", "link-kill-failover",
            "--seed", "7", "--out", str(out_dir),
        ])
        return code, out, out_dir

    def test_exits_zero_on_verified_scenario(self, chaos_run):
        code, out, _dir = chaos_run
        assert code == 0
        assert "OK" in out

    def test_chrome_trace_artifact_validates(self, chaos_run):
        _code, _out, out_dir = chaos_run
        document = json.loads(
            (out_dir / "trace-chaos-link-kill-failover.json").read_text()
        )
        assert validate_chrome_trace(document) > 0

    def test_event_journal_artifact_validates(self, chaos_run):
        _code, _out, out_dir = chaos_run
        journal = (
            out_dir / "events-chaos-link-kill-failover.jsonl"
        ).read_text()
        count = validate_event_jsonl(journal)
        kinds = {
            json.loads(line)["kind"] for line in journal.splitlines()
        }
        assert count >= 10
        assert {"fault.link_down", "health.failover", "slo.breach"} <= kinds

    def test_metrics_artifact_records_the_failover(self, chaos_run):
        _code, out, out_dir = chaos_run
        snapshot = json.loads(
            (out_dir / "metrics-chaos-link-kill-failover.json").read_text()
        )
        assert snapshot["health.failovers{component=health}"] == 1
        assert snapshot["health.failures_observed{component=health}"] >= 1
        # The deliberate zero-faults canary breached; the rest held.
        assert "SLOs: 3/4 ok" in out
