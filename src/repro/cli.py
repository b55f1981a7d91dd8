"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list                      # all reproduction targets
    python -m repro run table3                # regenerate one table/figure
    python -m repro run all                   # everything (trains on first use)
    python -m repro prewarm                   # fine-tune + cache all models
    python -m repro quantize --workers 4 --report   # compress a zoo model
    python -m repro quantize --on-error fp32-fallback     # degrade, don't die
    python -m repro quantize --trace run.jsonl      # export an obs trace
    python -m repro quantize --job-dir jobs/run1    # durable: journal + shards
    python -m repro quantize --job-dir jobs/run1 --resume   # continue after a kill
    python -m repro jobs status jobs/run1     # completed / failed / pending
    python -m repro verify-archive a.npz b.npz      # classify archives on disk
    python -m repro profile run.jsonl         # replay a trace as tables
    python -m repro profile --check run.jsonl # schema-validate only (CI)
    python -m repro serve --model tiny=model.npz    # micro-batched HTTP serving
    python -m repro serve --model a=a.npz --model b=b.npz --port 8080

A durable ``quantize`` run exits 0 on completion, 75
(:data:`repro.jobs.signals.EXIT_INTERRUPTED`) after a graceful SIGINT/SIGTERM
drain (rerun with ``--resume``), and ``128+signum`` on a second signal.
``serve`` follows the same signal contract: the first SIGINT/SIGTERM drains
in-flight requests and exits 75.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.report import render_payload


def _cmd_list(_args: argparse.Namespace) -> int:
    for identifier in list_experiments():
        experiment = EXPERIMENTS[identifier]
        marker = "*" if experiment.needs_training else " "
        print(f"{identifier:12s} {marker} {experiment.description}")
    print("\n(* = fine-tunes tiny models on first run; checkpoints are cached)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    identifiers = list_experiments() if args.target == "all" else [args.target]
    for identifier in identifiers:
        try:
            experiment = get_experiment(identifier)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        started = time.time()
        payload = experiment.runner()
        print(f"=== {identifier}: {experiment.description} "
              f"({time.time() - started:.1f}s) ===")
        print(render_payload(payload))
        print()
    return 0


def _cmd_prewarm(_args: argparse.Namespace) -> int:
    from repro.experiments.accuracy import get_finetuned

    pairs = [
        ("bert-base", "mnli"),
        ("bert-base", "stsb"),
        ("bert-large", "squad"),
        ("distilbert", "mnli"),
        ("roberta-base", "mnli"),
        ("roberta-large", "mnli"),
    ]
    for model, task in pairs:
        started = time.time()
        finetuned = get_finetuned(model, task)
        print(
            f"{model:15s} {task:6s} baseline={finetuned.baseline_score:.4f} "
            f"({time.time() - started:.0f}s)"
        )
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.model_quantizer import select_parameters
    from repro.core.serialization import save_quantized_model
    from repro.errors import ConfigError, JobStateError, QuantizationError
    from repro.jobs.signals import EXIT_INTERRUPTED, GracefulInterrupt
    from repro.models import build_model, get_config
    from repro.testing.faults import injector_from_env

    if args.method == "help":
        from repro.quant.registry import describe_specs

        print(describe_specs())
        return 0
    # Legacy tensor-method names drive the default GOBO pipeline with the
    # --weight-bits/--embedding-bits flags; anything else is a registry spec
    # (its own bit widths travel inside the spec string).
    quantizer = None
    if args.method not in ("gobo", "kmeans", "linear"):
        from repro.quant.registry import build_quantizer

        try:
            quantizer = build_quantizer(args.method)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
    try:
        config = get_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.embedding_bits.lower() == "none":
        embedding_bits = None
    else:
        try:
            embedding_bits = int(args.embedding_bits)
        except ValueError:
            print(f"--embedding-bits must be an int or 'none', got {args.embedding_bits!r}",
                  file=sys.stderr)
            return 2
    if quantizer is None:
        from repro.quant.gobo_adapter import GoboModelQuantizer

        quantizer = GoboModelQuantizer(args.weight_bits, embedding_bits, args.method)
    if args.resume and not args.job_dir:
        print("--resume requires --job-dir", file=sys.stderr)
        return 2
    job = None
    if args.job_dir:
        from repro.jobs.runner import DurableJob

        job = DurableJob(
            args.job_dir,
            resume=args.resume,
            fingerprint_extra={"config": args.config, "seed": args.seed},
        )
    try:
        fault_injector = injector_from_env()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    sinks: list = []
    trace_sink = None
    if args.trace:
        trace_sink = obs.JsonlSink(args.trace)
        sinks.append(trace_sink)
    if args.trace_summary:
        sinks.append(obs.SummarySink())

    model = build_model(config, task="encoder", rng=args.seed)
    for sink in sinks:
        obs.install(sink)
    try:
        with GracefulInterrupt() as interrupt:
            selection = select_parameters(model)
            quantized = quantizer.quantize(
                model.state_dict(),
                selection.fc_names,
                selection.embedding_names,
                workers=args.workers,
                on_error=args.on_error,
                validation=args.validation,
                fault_injector=fault_injector,
                layer_timeout=args.layer_timeout,
                transient_retries=args.transient_retries,
                cancel=interrupt.event,
                job=job,
            )
        report = quantized.report
        if not report.interrupted and args.out:
            archive_size = save_quantized_model(quantized, args.out)
        else:
            archive_size = None
    except (QuantizationError, JobStateError) as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        for sink in sinks:
            obs.uninstall(sink)
            sink.close()  # SummarySink renders its table here
    print(
        f"{config.name}: {model.num_parameters()} parameters, "
        f"{len(report.layers)} tensors quantized in {report.wall_seconds:.3f}s "
        f"({report.workers} worker{'s' if report.workers != 1 else ''})"
    )
    print(
        f"compression {quantized.model_compression_ratio():.2f}x, "
        f"outliers {quantized.outlier_fraction() * 100:.3f}%"
    )
    if report.resumed_layers:
        print(f"resumed: {report.resumed_layers} layer(s) loaded from {args.job_dir}")
    if report.failures:
        print(
            f"WARNING: {len(report.failures)} layer(s) degraded "
            f"(on_error={report.on_error}): "
            + ", ".join(
                f"{f.name} [{f.action}]" for f in report.failures
            ),
            file=sys.stderr,
        )
    if args.report:
        print()
        print(report.render())
    if archive_size is not None:
        print(f"\narchive written: {args.out} ({archive_size / 1024:.1f} KiB)")
    if trace_sink is not None:
        print(f"trace written: {trace_sink.path} ({trace_sink.lines} events)")
    if report.interrupted:
        where = f" --job-dir {args.job_dir} --resume" if args.job_dir else ""
        print(
            f"interrupted: {len(report.pending)} layer(s) pending; "
            f"rerun with{where or ' --resume'} to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 0


def _parse_model_spec(spec: str) -> tuple[str, str, str | None]:
    """``name=path[:config]`` → (name, path, config or None)."""
    name, _, rest = spec.partition("=")
    if not name or not rest:
        raise ValueError(f"--model expects name=path[:config], got {spec!r}")
    path, sep, config = rest.rpartition(":")
    if sep and config and "/" not in config and not config.endswith(".npz"):
        return name, path, config
    return name, rest, None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.errors import ReproError
    from repro.serve.server import run_server

    try:
        specs = [_parse_model_spec(spec) for spec in args.model]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    models = {name: (path, config) for name, path, config in specs}
    if len(models) != len(specs):
        print("duplicate model names in --model", file=sys.stderr)
        return 2

    sinks: list = []
    trace_sink = None
    if args.trace:
        trace_sink = obs.JsonlSink(args.trace)
        sinks.append(trace_sink)
    for sink in sinks:
        obs.install(sink)
    try:
        return run_server(
            models,
            host=args.host,
            port=args.port,
            batch_window=args.batch_window / 1000.0,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            verify=args.verify,
            forward_timeout=args.forward_timeout or None,
            breaker_window=args.breaker_window,
            breaker_threshold=args.breaker_threshold,
            quarantine_reloads=args.quarantine_reloads,
        )
    except (ReproError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        for sink in sinks:
            obs.uninstall(sink)
            sink.close()
        if trace_sink is not None:
            print(f"trace written: {trace_sink.path} ({trace_sink.lines} events)")


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    from repro.errors import JobStateError
    from repro.jobs.runner import job_status, render_status

    try:
        status = job_status(args.job_dir)
    except JobStateError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(render_status(status))
    return 0 if status.complete else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        events, errors = obs.scan_trace_file(args.path)
    except OSError as exc:
        print(f"cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 2
    if errors:
        shown = errors if len(errors) <= 20 else errors[:20]
        for problem in shown:
            print(f"{args.path}: {problem}", file=sys.stderr)
        if len(errors) > len(shown):
            print(f"... and {len(errors) - len(shown)} more", file=sys.stderr)
        print(f"{args.path}: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    if args.check:
        print(f"{args.path}: {len(events)} events, schema ok")
        return 0
    print(obs.summarize(events))
    return 0


def _cmd_verify_archive(args: argparse.Namespace) -> int:
    from repro.core.serialization import verify_archive

    failed = 0
    for path in args.paths:
        check = verify_archive(path)
        if not check.ok:
            failed += 1
        if not args.quiet:
            version = "?" if check.version is None else str(check.version)
            print(f"{check.path}: {check.status} (format version {version})")
            print(check.detail)
        elif not check.ok:
            # --quiet still names each failure; silence would hide the reason
            # the exit code is nonzero.
            print(f"{check.path}: {check.status}", file=sys.stderr)
    if not args.quiet and len(args.paths) > 1:
        print(f"{len(args.paths) - failed}/{len(args.paths)} archive(s) ok")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GOBO reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproduction targets").set_defaults(func=_cmd_list)
    run = sub.add_parser("run", help="run one target (or 'all')")
    run.add_argument("target", help="experiment id from 'list', or 'all'")
    run.set_defaults(func=_cmd_run)
    sub.add_parser(
        "prewarm", help="fine-tune and cache every evaluation model"
    ).set_defaults(func=_cmd_prewarm)
    quantize = sub.add_parser(
        "quantize",
        help="GOBO-compress a zoo model through the layer-parallel engine",
    )
    quantize.add_argument(
        "--config", default="tiny-bert-base", help="model config name (default tiny-bert-base)"
    )
    quantize.add_argument("--weight-bits", type=int, default=3, help="bits for FC weights")
    quantize.add_argument(
        "--embedding-bits", default="4",
        help="bits for embedding tables, or 'none' to leave them FP32",
    )
    quantize.add_argument(
        "--method", default="gobo",
        help="tensor method (gobo/kmeans/linear, honoring --weight-bits/"
        "--embedding-bits) or a registered method spec like 'zeroshot', "
        "'gwq-4bit' or 'mixed-12pct' (spec options override the bit flags); "
        "'help' lists every spec",
    )
    quantize.add_argument(
        "--workers", type=int, default=None,
        help="engine workers: N, 0 for one per CPU this process may use; "
        "default REPRO_WORKERS or 1",
    )
    quantize.add_argument(
        "--report", action="store_true", help="print the per-layer timing report"
    )
    quantize.add_argument(
        "--on-error", default=None,
        choices=("fail", "skip", "fp32-fallback", "retry-higher-bits"),
        help="per-layer failure policy; default REPRO_ON_ERROR or fail",
    )
    quantize.add_argument(
        "--validation", default="strict", choices=("strict", "repair", "skip"),
        help="input validation policy for NaN/Inf/degenerate tensors",
    )
    quantize.add_argument("--out", default=None, help="write the .npz archive here")
    quantize.add_argument("--seed", type=int, default=0, help="model init seed")
    quantize.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write an observability trace (JSONL) of the run to PATH",
    )
    quantize.add_argument(
        "--trace-summary", action="store_true",
        help="print the observability summary tables after the run",
    )
    quantize.add_argument(
        "--job-dir", default=None, metavar="DIR",
        help="durable mode: journal every completed layer to DIR (shards + JSONL)",
    )
    quantize.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted durable run (requires --job-dir)",
    )
    quantize.add_argument(
        "--layer-timeout", type=float, default=None, metavar="S",
        help="per-layer deadline in seconds; default REPRO_LAYER_TIMEOUT or off",
    )
    quantize.add_argument(
        "--transient-retries", type=int, default=None, metavar="N",
        help="in-place retries for transient (I/O) errors per layer; "
             "default REPRO_TRANSIENT_RETRIES or 0",
    )
    quantize.set_defaults(func=_cmd_quantize)
    jobs = sub.add_parser("jobs", help="inspect durable quantization jobs")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_status = jobs_sub.add_parser(
        "status",
        help="summarize a job directory's journal: completed / failed / pending",
    )
    jobs_status.add_argument("job_dir", help="the --job-dir of a durable run")
    jobs_status.set_defaults(func=_cmd_jobs_status)
    profile = sub.add_parser(
        "profile",
        help="replay a --trace JSONL file into per-layer and metric tables",
    )
    profile.add_argument("path", help="path to the .jsonl trace")
    profile.add_argument(
        "--check", action="store_true",
        help="only validate the trace against the event schema (exit 1 on violation)",
    )
    profile.set_defaults(func=_cmd_profile)
    serve = sub.add_parser(
        "serve",
        help="serve quantized archives over HTTP: micro-batched lookup-kernel "
             "inference with hot-swap reload",
    )
    serve.add_argument(
        "--model", action="append", required=True, metavar="NAME=PATH[:CONFIG]",
        help="archive to serve as NAME; CONFIG is a zoo config name, inferred "
             "from the archive's FC census when omitted (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--batch-window", type=float, default=5.0, metavar="MS",
        help="how long a batch that already has company waits for more "
             "requests, in milliseconds; a lone request goes at once "
             "(default 5)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="max requests fused into one kernel forward (default 8)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission bound on queued requests; beyond it requests get "
             "429 + Retry-After (default 64)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=10.0, metavar="S",
        help="per-request deadline in seconds; expiry returns 504 (default 10)",
    )
    serve.add_argument(
        "--verify", default="lazy", choices=("none", "lazy", "full"),
        help="archive integrity level: per-member CRC on first access "
             "('lazy', default), whole-archive checksum up front ('full'), "
             "or none",
    )
    serve.add_argument(
        "--forward-timeout", type=float, default=30.0, metavar="S",
        help="watchdog deadline for one batch forward in seconds; a wedged "
             "worker is replaced and its batch failed as transient "
             "(0 disables; default 30)",
    )
    serve.add_argument(
        "--breaker-window", type=float, default=30.0, metavar="S",
        help="sliding window for the per-model circuit breaker in seconds "
             "(default 30)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="transient failures inside --breaker-window that trip a model "
             "into quarantine (default 5)",
    )
    serve.add_argument(
        "--quarantine-reloads", type=int, default=5,
        help="automatic reload-from-disk attempts for an integrity-"
             "quarantined model before giving up until a manual reload "
             "(default 5)",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write an observability trace (JSONL) of the serving run to PATH",
    )
    serve.set_defaults(func=_cmd_serve)
    verify = sub.add_parser(
        "verify-archive",
        help="classify archives: ok / missing / truncated / checksum-mismatch / version-unknown",
    )
    verify.add_argument(
        "paths", nargs="+", metavar="PATH", help="path(s) to .npz archives"
    )
    verify.add_argument(
        "--quiet", action="store_true",
        help="suppress per-archive output (failures still go to stderr); exit code only",
    )
    verify.set_defaults(func=_cmd_verify_archive)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
