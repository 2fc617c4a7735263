"""Tests for the ``pops`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_optimize_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimize", "fpd", "--tc-ps", "100", "--tc-ratio", "1.5"]
            )


class TestCommands:
    def test_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "adder16" in out
        assert "c7552" in out

    def test_characterize(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "nor3" in out
        assert "Flimit" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "fpd"]) == 0
        out = capsys.readouterr().out
        assert "Tmin" in out
        assert "Tmax" in out

    def test_optimize(self, capsys):
        assert main(["optimize", "fpd", "--tc-ratio", "1.4"]) == 0
        out = capsys.readouterr().out
        assert "method" in out
        assert "feasible" in out

    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        assert main(["bounds", "c0000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "c0000" in captured.err
        assert captured.out == ""  # no traceback, nothing on stdout

    def test_unknown_benchmark_json_error(self, capsys):
        assert main(["bounds", "c0000", "--json"]) == 2
        captured = capsys.readouterr()
        body = json.loads(captured.out)  # machine-parseable even on failure
        assert body["error"]["type"] == "KeyError"
        assert "c0000" in body["error"]["message"]
        assert captured.err.startswith("error:")

    def test_bad_bench_file_is_a_designed_error(self, capsys, tmp_path):
        (tmp_path / "c17.bench").write_text("INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n")
        argv = ["bounds", "c17", "--bench-dir", str(tmp_path), "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        body = json.loads(captured.out)
        assert body["error"]["type"] == "BenchParseError"
        message = body["error"]["message"]
        assert "unknown gate function" in message
        assert "FOO" in message
        assert "expects" not in message  # not misreported as an arity error
        assert captured.err.startswith("error:")

    def test_unexpected_errors_exit_1(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise RuntimeError("internal invariant violated")

        monkeypatch.setitem(cli._COMMANDS, "benchmarks", boom)
        assert main(["benchmarks", "--json"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["error"]["type"] == "RuntimeError"

    def test_pops_debug_reraises(self, monkeypatch):
        monkeypatch.setenv("POPS_DEBUG", "1")
        with pytest.raises(KeyError):
            main(["bounds", "c0000"])


class TestVersionAndJson:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_benchmarks_json(self, capsys):
        assert main(["benchmarks", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"name", "gates", "inputs", "depth"} <= set(rows[0])
        assert any(row["name"] == "adder16" for row in rows)

    def test_bounds_json_is_a_run_record(self, capsys):
        assert main(["bounds", "fpd", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "bounds"
        assert data["job"]["benchmark"] == "fpd"
        bounds = data["payload"]["bounds"]
        assert bounds["tmin_ps"] < bounds["tmax_ps"]

    def test_optimize_json_round_trips(self, capsys):
        from repro.api import RunRecord

        assert main(["optimize", "fpd", "--tc-ratio", "1.4", "--json"]) == 0
        record = RunRecord.from_json(capsys.readouterr().out)
        assert record.kind == "optimize-path"
        assert record.payload.feasible
        assert record.extra["tc_ps"] == pytest.approx(
            1.4 * record.extra["tmin_ps"]
        )

    def test_optimize_circuit_scope(self, capsys):
        assert main(["optimize", "fpd", "--tc-ratio", "1.8",
                     "--scope", "circuit", "--k-paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "passes" in out
        assert "feasible" in out

    def test_power_json(self, capsys):
        assert main(["power", "fpd", "--vectors", "16", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "power"
        assert data["payload"]["dynamic_uw"] > 0


class TestMcCommand:
    def test_mc_table(self, capsys):
        assert main(["mc", "fpd", "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo corner analysis" in out
        assert "guard band" in out
        assert "Worst endpoints" in out

    def test_mc_yield_at(self, capsys):
        assert main(["mc", "fpd", "--samples", "60", "--yield-at", "1700"]) == 0
        out = capsys.readouterr().out
        assert "yield" in out
        assert "-" not in out.splitlines()[3].split()[-1]  # yield populated

    def test_mc_json_round_trips(self, capsys):
        from repro.api import RunRecord

        assert main(["mc", "fpd", "--samples", "40", "--seed", "7",
                     "--yield-at", "1700", "--json"]) == 0
        record = RunRecord.from_json(capsys.readouterr().out)
        assert record.kind == "mc"
        assert record.job.mc_samples == 40
        assert record.job.mc_seed == 7
        assert record.payload.n_samples == 40
        assert record.extra["tc_ps"] == 1700.0

    def test_mc_multiple_benchmarks_json(self, capsys):
        from repro.api import RunRecord

        assert main(["mc", "fpd", "adder16", "--samples", "40", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["job"]["benchmark"] for e in entries] == ["fpd", "adder16"]
        records = [RunRecord.from_dict(e) for e in entries]
        assert all(r.kind == "mc" for r in records)

    def test_mc_store_writes_lossless_records(self, capsys, tmp_path):
        from repro.api import RunRecord

        store = str(tmp_path / "mc")
        assert main(["mc", "fpd", "--samples", "40", "--store", store]) == 0
        capsys.readouterr()
        with open(f"{store}/fpd.mc.json", encoding="utf-8") as handle:
            stored = RunRecord.from_json(handle.read())
        assert stored.kind == "mc"
        # Same invocation again: the record content is reproducible.
        assert main(["mc", "fpd", "--samples", "40", "--json"]) == 0
        again = RunRecord.from_json(capsys.readouterr().out)
        assert stored.to_dict(with_timing=False) == again.to_dict(
            with_timing=False
        )

    def test_mc_bad_samples_is_a_clean_error(self, capsys):
        assert main(["mc", "fpd", "--samples", "1"]) == 2
        assert "mc_samples" in capsys.readouterr().err


class TestReportCommands:
    def test_report(self, capsys):
        assert main(["report", "fpd"]) == 0
        out = capsys.readouterr().out
        assert "Timing report" in out
        assert "path #1" in out

    def test_report_with_tc(self, capsys):
        assert main(["report", "fpd", "--tc-ps", "800"]) == 0
        out = capsys.readouterr().out
        assert "violated" in out

    def test_power(self, capsys):
        assert main(["power", "fpd", "--vectors", "32"]) == 0
        out = capsys.readouterr().out
        assert "dynamic power" in out
        assert "uW" in out


class TestSweepCommand:
    GRID = ["sweep", "fpd", "--tc-ratios", "1.3,1.6",
            "--k-paths", "2", "--max-passes", "2", "--quiet"]

    def test_sweep_table_store_and_resume(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        assert main(self.GRID + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        assert "2 computed, 0 resumed" in out
        # Second run resumes: every journaled point is skipped.
        assert main(self.GRID + ["--store", store, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 resumed" in out

    def test_sweep_json_is_a_sweep_record(self, capsys):
        assert main(self.GRID + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "sweep"
        assert data["payload"]["spec"]["benchmarks"] == ["fpd"]
        points = data["payload"]["summary"]["points"]
        assert len(points) == 2
        assert data["payload"]["summary"]["frontier"]

    def test_sweep_range_syntax(self, capsys):
        assert main(["sweep", "fpd", "--tc-ratios", "1.2:1.8:3",
                     "--scope", "path", "--quiet", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        ratios = [p["tc_ratio"] for p in data["payload"]["summary"]["points"]]
        assert ratios == pytest.approx([1.2, 1.5, 1.8])

    def test_resume_requires_store(self, capsys):
        assert main(self.GRID + ["--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_axis_flags_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "fpd", "--tc-ratios", "1.5", "--tc-ps", "900"]
            )

    def test_empty_point_list_rejected(self):
        # An empty --tc-ps must not silently fall back to the ratio axis.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fpd", "--tc-ps", ""])

    def test_unresumed_store_reuse_is_a_clean_error(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        assert main(self.GRID + ["--store", store]) == 0
        capsys.readouterr()
        # Designed failure: message + exit 2, not a traceback.
        assert main(self.GRID + ["--store", store]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--resume" in err


class TestServeCli:
    """The daemon client subcommands against an in-process server."""

    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.serve import ServeConfig, start_server_thread

        sock = str(tmp_path / "pops.sock")
        config = ServeConfig(
            socket_path=sock,
            threads=2,
            heavy_threads=1,
            store_dir=str(tmp_path / "store"),
            cache_limit=64,
        )
        server, thread = start_server_thread(config)
        yield sock
        server.request_shutdown(drain=True)
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_submit_bounds_text(self, daemon, capsys):
        assert main(["submit", "bounds", "fpd", "--socket", daemon]) == 0
        captured = capsys.readouterr()
        assert "kind     : bounds" in captured.out
        assert "cached   : False" in captured.out
        # the NDJSON event stream lands on stderr
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert [e["event"] for e in events] == ["queued", "started"]

    def test_submit_json_record_round_trips(self, daemon, capsys):
        from repro.api import RunRecord, Session

        assert main(["submit", "optimize", "fpd", "--socket", daemon,
                     "--tc-ratio", "1.4", "--quiet", "--json"]) == 0
        record = RunRecord.from_json(capsys.readouterr().out)
        from repro.api import Job

        direct = Session().optimize(Job(benchmark="fpd", tc_ratio=1.4))
        assert record.to_dict(with_timing=False) == direct.to_dict(
            with_timing=False
        )

    def test_second_submit_is_cached(self, daemon, capsys):
        args = ["submit", "mc", "fpd", "--samples", "64", "--socket", daemon,
                "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cached   : True" in capsys.readouterr().out

    def test_status_text_and_json(self, daemon, capsys):
        assert main(["submit", "bounds", "fpd", "--socket", daemon,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["status", "--socket", daemon]) == 0
        out = capsys.readouterr().out
        assert "Session caches" in out and "store    :" in out
        assert main(["status", "--socket", daemon, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["serve"]["submitted"] >= 1
        assert status["queue"]["depth"] == 0
        assert "bounds" in status["session"]["caches"]

    def test_shutdown_command_drains(self, tmp_path, capsys):
        from repro.serve import ServeConfig, start_server_thread

        sock = str(tmp_path / "one.sock")
        server, thread = start_server_thread(
            ServeConfig(socket_path=sock, threads=1, heavy_threads=1)
        )
        assert main(["shutdown", "--socket", sock]) == 0
        assert "drained" in capsys.readouterr().out
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_client_error_when_daemon_is_down(self, tmp_path, capsys):
        sock = str(tmp_path / "nobody.sock")
        assert main(["status", "--socket", sock, "--json"]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"]["type"] == "ServeClientError"


class TestTrace:
    def test_optimize_trace_flag_writes_jsonl(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(
            ["optimize", "fpd", "--tc-ratio", "1.4", "--scope", "circuit",
             "--trace", trace, "--json"]
        ) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["telemetry"]["passes"]
        assert "span(s)" in captured.err
        with open(trace, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert "trace" in lines[0]
        names = {line.get("name") for line in lines[1:]}
        assert "session.optimize" in names
        assert "optimize.pass" in names

    def test_trace_renders_jsonl(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(
            ["optimize", "fpd", "--tc-ratio", "1.4", "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "session.optimize" in out
        assert "cumulative by name" in out

    def test_trace_renders_record_telemetry(self, tmp_path, capsys):
        record_path = tmp_path / "run.json"
        assert main(
            ["optimize", "fpd", "--tc-ratio", "1.4", "--scope", "circuit",
             "--json"]
        ) == 0
        record_path.write_text(capsys.readouterr().out)
        assert main(["trace", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "pass   delay_ps" in out
        assert "delay    :" in out

    def test_trace_missing_file_is_a_clean_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_untraced_optimize_has_no_telemetry_key_without_timing(
        self, capsys
    ):
        assert main(["optimize", "fpd", "--tc-ratio", "1.4", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        # Path-scope runs carry no optimizer telemetry block.
        assert "telemetry" not in record

    def test_status_shows_hit_rate_column(self, tmp_path, capsys):
        from repro.serve import ServeConfig, start_server_thread

        sock = str(tmp_path / "pops.sock")
        server, thread = start_server_thread(
            ServeConfig(socket_path=sock, threads=1, heavy_threads=1)
        )
        try:
            assert main(
                ["submit", "bounds", "fpd", "--socket", sock, "--quiet"]
            ) == 0
            capsys.readouterr()
            assert main(["status", "--socket", sock]) == 0
            out = capsys.readouterr().out
            assert "hit rate" in out
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=30)
        assert not thread.is_alive()
