"""Tests for the figures module and the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import _build_parser
from repro.figures import FIGURES, fig5, fig8, render, rtt


def _subcommands():
    """Every subcommand name registered on the ``python -m repro`` tree."""
    (commands,) = [
        action for action in _build_parser()._actions
        if action.dest == "command"
    ]
    return list(commands.choices)


class TestFigures:
    def test_registry_covers_every_figure(self):
        assert set(FIGURES) == {
            "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "rtt"
        }

    def test_fig5_shape(self):
        title, headers, rows = fig5(threads=(4,))
        assert "Fig. 5" in title
        assert headers[0] == "threads"
        assert len(rows) == 4  # four kernels at one thread count

    def test_fig8_rows_per_config(self):
        _title, _headers, rows = fig8(samples=2_000)
        assert len(rows) == 5
        configs = [row[0] for row in rows]
        assert "local" in configs and "scale-out" in configs

    def test_rtt_values_near_950(self):
        _title, _headers, rows = rtt(samples=4)
        budget_ns = float(rows[0][1].split()[0])
        assert budget_ns == pytest.approx(960, abs=20)

    def test_render_aligns_columns(self):
        text = render(("T", ["a", "bb"], [["1", "2"], ["333", "4"]]))
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert len(lines) == 4


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "STREAM" in out

    def test_single_figure(self, capsys):
        from repro.__main__ import main

        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out

    def test_demo(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip OK" in out
        assert "detached cleanly" in out

    def test_unknown_target_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliHelp:
    """Every subcommand is listed with one-line help, and each
    option-taking subcommand answers ``--help`` (no drift)."""

    def test_top_level_help_lists_every_subcommand(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("list", "all", "demo", "trace", "figures", "sweep",
                        "cluster"):
            assert command in out, command
        for figure in FIGURES:
            assert figure in out, figure

    @pytest.mark.parametrize("command", _subcommands())
    def test_subcommand_help(self, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"python -m repro {command}" in out

    def test_no_arguments_prints_help(self, capsys):
        from repro.__main__ import main

        assert main([]) == 2
        assert "figures" in capsys.readouterr().out


class TestCliSweepEngine:
    def test_figures_subcommand_parallel_cached(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["figures", "fig5", "rtt", "--jobs", "2",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Fig. 5" in cold and "remote access RTT" in cold
        assert "4 executed" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 executed" in warm and "4 hits" in warm
        # The rendered tables themselves are identical cold vs warm.
        assert cold.split("sweep:")[0] == warm.split("sweep:")[0]

    def test_figures_subcommand_rejects_unknown_figure(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["figures", "nope", "--cache-dir", str(tmp_path)])

    def test_sweep_subcommand_grid(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main([
            "sweep", "slice:fig5.threads", "--sweep", "count=4,8",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert '{"count":4}' in out and '{"count":8}' in out
        assert "2 specs" in out

    def test_sweep_subcommand_rejects_unknown_target(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["sweep", "bogus-target", "--cache-dir", str(tmp_path)])

    def test_jobs_falls_back_to_sweep_jobs_env(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("SWEEP_JOBS", "2")
        assert main([
            "sweep", "slice:fig5.threads", "--set", "count=4", "--no-cache",
        ]) == 0
        stats = capsys.readouterr().out.splitlines()[-1]
        assert stats.startswith("sweep:") and "jobs=2" in stats


class TestCliUsageErrors:
    """Bad option values end in a usage error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "slice:fig5.threads", "--no-cache", "--jobs", "0"],
        ["cluster", "--jobs", "abc"],
        ["trace", "stream", "--sample", "0"],
        ["metrics", "stream", "--stride", "0"],
        ["dse", "--replicates", "0"],
        ["loadtest", "--queue-depth", "0"],
        ["sweep", "slice:fig5.threads", "--set", "count"],
        ["dse", "--factor", "loss_rate"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: python -m repro {argv[0]}" in err
