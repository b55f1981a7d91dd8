"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantize_defaults(self):
        args = build_parser().parse_args(["quantize"])
        assert args.command == "quantize"
        assert args.config == "tiny-bert-base"
        assert args.weight_bits == 3
        assert args.workers is None
        assert args.report is False

    def test_quantize_flags(self):
        args = build_parser().parse_args(
            ["quantize", "--workers", "4", "--report", "--embedding-bits", "none"]
        )
        assert args.workers == 4
        assert args.report is True
        assert args.embedding_bits == "none"

    def test_quantize_on_error_default_defers_to_environment(self):
        args = build_parser().parse_args(["quantize"])
        assert args.on_error is None
        assert args.validation == "strict"

    @pytest.mark.parametrize(
        "policy", ["fail", "skip", "fp32-fallback", "retry-higher-bits"]
    )
    def test_quantize_on_error_choices(self, policy):
        args = build_parser().parse_args(["quantize", "--on-error", policy])
        assert args.on_error == policy

    def test_quantize_on_error_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantize", "--on-error", "explode"])

    def test_quantize_validation_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantize", "--validation", "lenient"])

    def test_verify_archive_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify-archive"])

    def test_quantize_trace_flags(self):
        args = build_parser().parse_args(
            ["quantize", "--trace", "run.jsonl", "--trace-summary"]
        )
        assert args.trace == "run.jsonl"
        assert args.trace_summary is True
        defaults = build_parser().parse_args(["quantize"])
        assert defaults.trace is None
        assert defaults.trace_summary is False

    def test_profile_parses(self):
        args = build_parser().parse_args(["profile", "run.jsonl", "--check"])
        assert args.command == "profile"
        assert args.path == "run.jsonl"
        assert args.check is True

    def test_profile_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])


class TestServeFlags:
    """Out-of-range serve flags are usage errors: exit 2 from the parser,
    before any archive is opened (they used to surface as a ValueError or
    OverflowError traceback after every archive had loaded)."""

    @pytest.mark.parametrize("flag, value", [
        ("--batch-window", "-1"),
        ("--max-batch", "0"),
        ("--max-pending", "0"),
        ("--request-timeout", "0"),
        ("--request-timeout", "-5"),
        ("--forward-timeout", "-1"),
        ("--breaker-threshold", "0"),
        ("--breaker-window", "-1"),
        ("--quarantine-reloads", "-1"),
        ("--port", "-1"),
        ("--port", "70000"),
        ("--request-timeout", "nan"),
        ("--batch-window", "inf"),
    ])
    def test_rejected_before_the_archive_is_opened(self, flag, value, tmp_path, capsys):
        absent = tmp_path / "absent.npz"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--model", f"m={absent}", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"repro serve: error: argument {flag}: must be")
        assert str(absent) not in err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args([
            "serve", "--model", "m=a.npz", "--port", "65535", "--batch-window", "0",
            "--max-batch", "1", "--forward-timeout", "0", "--quarantine-reloads", "0",
        ])
        assert (args.port, args.batch_window, args.max_batch) == (65535, 0.0, 1)
        assert args.forward_timeout == 0.0  # 0 keeps meaning "no watchdog"
        assert args.quarantine_reloads == 0


class TestCommands:
    def test_list_prints_all_targets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in ("table1", "table7", "fig2", "fig4"):
            assert identifier in out

    def test_run_static_table(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "89.42 MB" in out

    def test_run_unknown_target(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_figure_payload_rendered(self, capsys):
        assert main(["run", "fig3-curve"]) == 0
        out = capsys.readouterr().out
        assert "3-bit" in out and "10.67x" in out

    def test_run_engine_report(self, capsys):
        assert main(["run", "engine"]) == 0
        out = capsys.readouterr().out
        assert "Per-layer quantization report" in out
        assert "workers=" in out

    def test_quantize_with_report_and_archive(self, capsys, tmp_path):
        out_path = tmp_path / "model"  # suffix-less on purpose
        assert main([
            "quantize", "--workers", "2", "--report",
            "--embedding-bits", "none", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "tiny-bert-base" in out
        assert "2 workers" in out
        assert "Per-layer quantization report" in out
        assert (tmp_path / "model.npz").exists()

    def test_quantize_unknown_config(self, capsys):
        assert main(["quantize", "--config", "mega-bert"]) == 2
        assert capsys.readouterr().err

    def test_quantize_bad_embedding_bits(self, capsys):
        assert main(["quantize", "--embedding-bits", "lots"]) == 2
        assert "embedding-bits" in capsys.readouterr().err

    def test_quantize_negative_workers_clean_error(self, capsys):
        assert main(["quantize", "--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err


class TestVerifyArchive:
    @pytest.fixture
    def archive(self, tmp_path):
        path = tmp_path / "model.npz"
        assert main([
            "quantize", "--embedding-bits", "none", "--out", str(path),
        ]) == 0
        return path

    def test_intact_archive_exits_zero(self, archive, capsys):
        capsys.readouterr()  # drop the quantize output
        assert main(["verify-archive", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "format version 3" in out

    def test_missing_archive_exits_nonzero(self, tmp_path, capsys):
        assert main(["verify-archive", str(tmp_path / "absent.npz")]) == 1
        assert "missing" in capsys.readouterr().out

    def test_truncated_archive_exits_nonzero(self, archive, capsys):
        from repro.testing.faults import truncate_file

        truncate_file(archive, 0.5)
        capsys.readouterr()
        assert main(["verify-archive", str(archive)]) == 1
        assert "truncated" in capsys.readouterr().out

    def test_bit_flip_reported_as_checksum_mismatch(self, archive, capsys):
        from repro.testing.faults import corrupt_bytes

        corrupt_bytes(archive, archive.stat().st_size // 2)
        capsys.readouterr()
        assert main(["verify-archive", str(archive)]) == 1
        assert "checksum-mismatch" in capsys.readouterr().out


class TestTraceAndProfile:
    def test_quantize_trace_then_profile(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main([
            "quantize", "--embedding-bits", "none",
            "--out", str(tmp_path / "model"), "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace written: {trace}" in out
        assert trace.exists()

        assert main(["profile", "--check", str(trace)]) == 0
        assert "schema ok" in capsys.readouterr().out

        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-layer trace profile" in out
        assert "serialization.bytes_written" in out

    def test_quantize_trace_summary_prints_tables(self, capsys):
        assert main([
            "quantize", "--embedding-bits", "none", "--trace-summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "Per-layer trace profile" in out
        assert "engine.run" in out

    def test_profile_missing_file(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_profile_rejects_bad_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"v": 99}\n')
        assert main(["profile", "--check", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "schema violation" in err

    def test_profile_lists_at_most_20_violations(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("{not json\n" * 23)  # one violation per line
        assert main(["profile", str(trace)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith(f"{trace}: line ") for line in err) == 20
        assert err[-2:] == ["... and 3 more", f"{trace}: 23 schema violation(s)"]

    def test_profile_check_scans_the_trace_once(self, tmp_path, capsys, monkeypatch):
        import builtins
        import json

        import repro.obs.events as events_mod

        trace = tmp_path / "run.jsonl"
        event = {"v": 1, "event": "counter", "name": "hits", "ts": 0.0,
                 "parent": None, "attrs": {}, "value": 1.0}
        trace.write_text("".join(json.dumps(event) + "\n" for _ in range(3)))
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return builtins.open(path, *args, **kwargs)

        # The scan opens the trace through the module's ``open``.
        monkeypatch.setattr(events_mod, "open", counting_open, raising=False)
        assert main(["profile", "--check", str(trace)]) == 0
        assert f"{trace}: 3 events, schema ok" in capsys.readouterr().out
        assert opened == [str(trace)]

    def test_quantize_leaves_no_sink_installed_on_error(self, tmp_path, monkeypatch):
        from repro import obs
        from repro.errors import QuantizationError

        def explode(*_args, **_kwargs):
            raise QuantizationError("injected")

        monkeypatch.setattr("repro.core.model_quantizer.quantize_state_dict", explode)
        assert main([
            "quantize", "--embedding-bits", "none",
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 2
        assert obs.installed_sinks() == ()


class TestQuantizeDegraded:
    def test_on_error_surfaced_in_warning_line(self, capsys, monkeypatch):
        """--on-error wires through to the engine; a degraded run warns on
        stderr but still exits 0 with a usable archive."""
        import repro.core.parallel as parallel_mod

        original = parallel_mod.quantize_layers

        def sabotaged(weights, jobs, **kwargs):
            from repro.testing.faults import Fault

            kwargs["fault_injector"] = Fault("raise", target=jobs[0].name)
            return original(weights, jobs, **kwargs)

        monkeypatch.setattr(
            "repro.core.model_quantizer.quantize_layers", sabotaged
        )
        assert main([
            "quantize", "--embedding-bits", "none",
            "--on-error", "fp32-fallback",
        ]) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err and "fp32-fallback" in err


class TestDurableJobFlags:
    def test_quantize_job_flags_parse(self):
        args = build_parser().parse_args([
            "quantize", "--job-dir", "jobs/x", "--resume",
            "--layer-timeout", "2.5", "--transient-retries", "3",
        ])
        assert args.job_dir == "jobs/x"
        assert args.resume is True
        assert args.layer_timeout == 2.5
        assert args.transient_retries == 3

    def test_quantize_job_flag_defaults(self):
        args = build_parser().parse_args(["quantize"])
        assert args.job_dir is None and args.resume is False
        assert args.layer_timeout is None and args.transient_retries is None

    def test_resume_requires_job_dir(self, capsys):
        assert main(["quantize", "--resume"]) == 2
        assert "--job-dir" in capsys.readouterr().err

    def test_jobs_status_parses(self):
        args = build_parser().parse_args(["jobs", "status", "jobs/x"])
        assert args.command == "jobs" and args.job_dir == "jobs/x"

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])


class TestDurableJobCommands:
    def test_quantize_durable_then_status_then_resume(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.testing.faults import InjectedFault

        clean = tmp_path / "clean.npz"
        assert main([
            "quantize", "--embedding-bits", "none", "--out", str(clean),
        ]) == 0
        job_dir = tmp_path / "job"
        # Abort the durable run partway via an injected fault.
        monkeypatch.setenv("REPRO_FAULTS", "raise:5")
        with pytest.raises(InjectedFault):
            main([
                "quantize", "--embedding-bits", "none",
                "--job-dir", str(job_dir), "--out", str(tmp_path / "x.npz"),
            ])
        monkeypatch.delenv("REPRO_FAULTS")
        capsys.readouterr()
        assert main(["jobs", "status", str(job_dir)]) == 1  # incomplete
        out = capsys.readouterr().out
        assert "pending" in out and "incomplete" in out
        resumed = tmp_path / "resumed.npz"
        assert main([
            "quantize", "--embedding-bits", "none", "--job-dir", str(job_dir),
            "--resume", "--workers", "2", "--out", str(resumed),
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed:" in out
        assert resumed.read_bytes() == clean.read_bytes()
        assert main(["jobs", "status", str(job_dir)]) == 0
        assert "complete" in capsys.readouterr().out

    def test_existing_job_dir_without_resume_is_an_error(self, capsys, tmp_path):
        job_dir = tmp_path / "job"
        assert main([
            "quantize", "--embedding-bits", "none", "--job-dir", str(job_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "quantize", "--embedding-bits", "none", "--job-dir", str(job_dir),
        ]) == 2
        assert "resume" in capsys.readouterr().err

    def test_jobs_status_on_missing_dir(self, capsys, tmp_path):
        assert main(["jobs", "status", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err

    def test_bad_faults_spec_is_a_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "explode:now")
        assert main(["quantize", "--embedding-bits", "none"]) == 2
        assert "fault" in capsys.readouterr().err

    def test_bad_fault_spec_rejected_before_the_job_dir(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:not-a-number")
        job_dir = tmp_path / "job"
        assert main(["quantize", "--job-dir", str(job_dir)]) == 2
        assert "fault spec" in capsys.readouterr().err
        assert not job_dir.exists()


class TestVerifyArchiveMultiple:
    @pytest.fixture
    def archives(self, tmp_path, capsys):
        paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
        for path in paths:
            assert main([
                "quantize", "--embedding-bits", "none", "--out", str(path),
            ]) == 0
        capsys.readouterr()
        return paths

    def test_all_ok_exits_zero(self, archives, capsys):
        assert main(["verify-archive", *map(str, archives)]) == 0
        out = capsys.readouterr().out
        assert "2/2 archive(s) ok" in out

    def test_any_failure_exits_nonzero_and_names_each(
        self, archives, tmp_path, capsys
    ):
        from repro.testing.faults import truncate_file

        truncate_file(archives[1], 0.5)
        missing = tmp_path / "absent.npz"
        assert main(["verify-archive", str(archives[0]), str(archives[1]),
                     str(missing)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "truncated" in out and "missing" in out
        assert "1/3 archive(s) ok" in out

    def test_a_directory_gets_a_verdict_not_a_traceback(
        self, archives, tmp_path, capsys
    ):
        assert main(["verify-archive", str(archives[0]), str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{archives[0]}: ok" in out
        assert f"{tmp_path}: missing" in out
        assert "1/2 archive(s) ok" in out

    def test_quiet_suppresses_ok_but_reports_failures(
        self, archives, tmp_path, capsys
    ):
        assert main(["verify-archive", "--quiet", *map(str, archives)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        missing = tmp_path / "absent.npz"
        assert main(["verify-archive", "--quiet", str(archives[0]),
                     str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing" in captured.err
