"""Command-line interface: ``loupe <subcommand>``.

Subcommands mirror how the paper's tool is used:

* ``analyze``  — run the full stub/fake analysis of one corpus app (or
  a real command with ``--exec``) and print the report; ``--backend``
  picks any registered execution backend — or several at once as a
  comma list (``--backend appsim,ptrace``), fanning the campaign out
  and printing the cross-validation report — and ``--events jsonl``
  streams structured progress events.
* ``compare``  — fan one app/workload across several backends and
  print the cross-validation report (divergences classified as
  missing-in-sim / extra-in-sim / count-only / verdict-differs /
  stability-differs; with the ``static`` pseudo-backend in the mix,
  static-overapproximation / soundness-violation — the latter a hard
  error, exit 1).
* ``plan``     — generate an incremental support plan for an OS
  (named profile or a CSV support file) over target apps.
* ``study``    — regenerate a paper table or figure by name.
* ``corpus``   — list the application corpus.
* ``db``       — inspect or merge result databases.
* ``cache``    — operate on persistent run-cache stores (``stats``,
  ``compact``, ``gc``, ``migrate``, and ``verify``, which re-executes
  a sample of records and diffs stored vs fresh results).
* ``scan``     — static binary scan of a native ELF.
* ``lint``     — static soundness auditor: rule-based linting of app
  models and support plans, plus a loupedb audit (``--db``) checking
  every stored dynamic result against its app's static footprint.
  Exit codes gate CI: 1 when any error-severity finding survives
  ``--select``/``--ignore``, 0 otherwise.
* ``serve``    — run the campaign server (job queue, bounded worker
  pool, live event streaming over HTTP; ``--max-queue``, ``--lease``
  and ``--max-attempts`` set the durability posture; ``--run-cache``
  additionally serves the store to the fleet at ``/cache``).
* ``worker``   — run one fabric worker: accepts pickled probe chunks
  from ``--executor remote`` campaigns over TCP and executes them
  locally (``--port-file`` publishes an ephemeral bind address,
  ``--announce`` feeds the server's fleet gauges).
* ``submit`` / ``jobs`` / ``tail`` / ``cancel`` / ``drain`` — the
  server's clients: submit a campaign spec, list jobs (``--state``
  filters, e.g. ``--state quarantined`` for triage), stream a job's
  events until it lands, cancel cooperatively, close intake for a
  graceful shutdown. They find the server through ``--url`` or the
  ``server.json`` discovery file under ``--data-dir``.

``analyze`` and ``compare`` share the fault-tolerance flags:
``--probe-timeout`` bounds each probe run attempt, ``--retries`` /
``--retry-backoff`` retry faulted attempts with exponential backoff,
and ``--on-fault degrade`` quarantines exhausted runs (reporting the
affected features as UNDECIDED) instead of aborting the campaign.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading
from pathlib import Path

from repro.api.registry import BackendRegistryError, resolve_backend
from repro.api.session import AnalysisRequest, LoupeSession
from repro.appsim.corpus import CLOUD_APPS, cloud_apps, corpus
from repro.core.analyzer import AnalyzerConfig
from repro.core.cachestore import CacheStoreError, migrate_store, open_store
from repro.core.engine import EXECUTORS
from repro.core.faults import ProbeFaultError
from repro.db import Database
from repro.errors import AnalysisCancelledError, LoupeError, PlanError
from repro.plans import (
    generate_plan,
    render_plan,
    requirements_for_all,
    run_effort_study,
    table1_states,
)
from repro.syscalls import number_of


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _jsonl_emitter(args: argparse.Namespace):
    """The ``--events jsonl`` event callback (None when not streaming).

    Concurrency-safe: a multi-backend fan-out (and ``analyze_many``)
    emits events from several threads into this one callback, and
    ``print()`` issues separate writes for the payload and the
    newline — interleaved emissions would corrupt the line protocol.
    One locked ``write()`` per event keeps every line well-formed.

    Pipe-failure-safe: when the consumer goes away mid-campaign
    (``loupe ... --events jsonl | head``), the emitter stops emitting
    after one stderr note instead of killing the analysis — losing a
    progress stream must not lose the campaign.
    """
    if args.events != "jsonl":
        return None
    lock = threading.Lock()
    state = {"broken": False}

    def on_event(event) -> None:
        line = json.dumps(event.to_dict()) + "\n"
        with lock:
            if state["broken"]:
                return
            try:
                sys.stdout.write(line)
                sys.stdout.flush()
            except BrokenPipeError:
                state["broken"] = True
                print("events: stdout pipe closed; suppressing further "
                      "events (analysis continues)", file=sys.stderr)

    return on_event


def _sigint_cancel() -> "tuple[Callable[[], object], Callable[[], None]]":
    """A SIGINT-driven cooperative cancellation hook for one campaign.

    Returns ``(cancel_check, restore)``: *cancel_check* plugs into
    ``AnalyzerConfig.cancel_check`` and answers ``"signal"`` once
    Ctrl-C has been pressed, so the analysis stops at the next wave
    boundary, flushes its accounting, and closes any ``--events
    jsonl`` stream with a terminal ``analysis_cancelled`` event —
    instead of the interpreter tearing the stream mid-line. A second
    Ctrl-C raises ``KeyboardInterrupt`` for callers who really mean
    *now*. *restore* reinstates the previous handler (call it in a
    ``finally``). Off the main thread (where ``signal.signal`` is
    unavailable) the hook degrades to never-cancelled.
    """
    if threading.current_thread() is not threading.main_thread():
        return (lambda: False), (lambda: None)
    flag = threading.Event()

    def handler(_signum, _frame) -> None:
        if flag.is_set():
            raise KeyboardInterrupt
        flag.set()
        print("interrupt: finishing the wave in flight, then stopping "
              "(press Ctrl-C again to abort immediately)",
              file=sys.stderr)

    previous = signal.signal(signal.SIGINT, handler)

    def restore() -> None:
        signal.signal(signal.SIGINT, previous)

    return (lambda: "signal" if flag.is_set() else False), restore


def _save_output(session: LoupeSession, args: argparse.Namespace) -> None:
    """Honor ``--output``: persist the session's result database."""
    if args.output:
        session.database.save(args.output)
        print(f"saved to {args.output}")


def _check_exec_spec(args: argparse.Namespace, request: AnalysisRequest,
                     names: "tuple[str, ...]") -> "int | None":
    """Sanity-check ``--exec`` against the backend spec (both commands).

    Capability-driven, not name-driven (a registered appsim variant
    must not slip past a literal ``"appsim"`` check): each named
    backend is resolved and asked for its contract, and
    ``real_execution`` is what marks a backend as actually running
    the ``--exec`` command. Returns an exit code when *no* named
    backend would run it (the command would be silently dropped), and
    prints a note when model-analyzing backends are merely mixed with
    command-running ones (the paper's model-vs-command comparison,
    meaningful only when both name the same program). Backends
    without a ``capabilities()`` contract cannot express
    ``real_execution``, so they get the benefit of the doubt — no
    refusal, no note — exactly as the pre-contract CLI behaved.
    Resolution failures are left for the main path to report with
    full context; the guard's own resolution is paid again by the
    analysis (targets are cheap to build next to any traced run).
    """
    if not args.exec_argv:
        return None
    from repro.api.registry import create_targets
    from repro.core.runner import capabilities_of

    try:
        targets = create_targets(names, request)
    except Exception:
        return None  # the analysis path surfaces the real error
    consuming, modeled, unknown = [], [], []
    for name, target in zip(names, targets):
        if getattr(target.backend, "capabilities", None) is None:
            unknown.append(name)  # no contract: can't express intent
        elif capabilities_of(target.backend).real_execution:
            consuming.append(name)
        else:
            modeled.append(name)
    if not consuming and not unknown:
        print(f"--exec requires a backend that runs commands "
              f"(the real_execution capability, e.g. ptrace); none of "
              f"{', '.join(names)} does, so the command would be "
              f"ignored", file=sys.stderr)
        return 2
    if modeled and consuming:
        print(f"note: {', '.join(modeled)} analyzes the {args.app!r} "
              f"model while {', '.join(consuming)} traces the --exec "
              f"command; the comparison is only meaningful if they "
              f"are the same program", file=sys.stderr)
    return None


def _print_analysis(result) -> None:
    required = sorted(result.required_syscalls())
    stubbable = sorted(result.stubbable_syscalls())
    fakeable = sorted(result.fakeable_syscalls())
    print(f"app: {result.app} workload: {result.workload} "
          f"backend: {result.backend} replicas: {result.replicas}")
    print(f"traced: {len(result.traced_syscalls())} syscalls")
    print(f"required ({len(required)}): {', '.join(required)}")
    print(f"stubbable ({len(stubbable)}): {', '.join(stubbable)}")
    print(f"fakeable ({len(fakeable)}): {', '.join(fakeable)}")
    pseudo = sorted(result.pseudo_files())
    if pseudo:
        print(f"pseudo-files: {', '.join(pseudo)}")
    impacted = result.impacted_features()
    if impacted:
        print("metric impacts:")
        for report in impacted:
            stub = report.stub_impact.describe() if report.stub_impact else "-"
            fake = report.fake_impact.describe() if report.fake_impact else "-"
            print(f"  {report.feature}: stub {stub} | fake {fake}")
    undecided = sorted(
        feature for feature, report in result.features.items()
        if report.verdict.value == "undecided"
    )
    if undecided:
        print(f"undecided ({len(undecided)}): {', '.join(undecided)} "
              f"(probes faulted without an observed failure; re-run "
              f"to decide)")
    faults = getattr(result, "faults", ())
    if faults:
        print(f"quarantined runs ({len(faults)}):")
        for fault in faults:
            print(f"  {fault.describe()}")
    if not result.final_run_ok:
        print("WARNING: final combined run failed; conflicts:", result.conflicts)


def _remote_without_workers(args: argparse.Namespace) -> bool:
    """Report ``--executor remote`` given no fleet to ship chunks to."""
    if args.executor == "remote" and not args.workers:
        print("--executor remote needs --workers HOST:PORT[,...] "
              "(start them with: loupe worker --port PORT)",
              file=sys.stderr)
        return True
    return False


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.no_cache and args.run_cache:
        print("--run-cache requires run memoization; drop --no-cache",
              file=sys.stderr)
        return 2
    if args.run_cache_max_entries is not None and not args.run_cache:
        print("--run-cache-max-entries requires --run-cache; there is "
              "no persistent store to bound", file=sys.stderr)
        return 2
    if args.run_cache_ttl is not None and not args.run_cache:
        print("--run-cache-ttl requires --run-cache; there is no "
              "persistent store to age out", file=sys.stderr)
        return 2
    if _remote_without_workers(args):
        return 2
    from repro.fabric.executor import parse_worker_list

    config = AnalyzerConfig(
        replicas=args.replicas,
        subfeature_level=args.subfeatures,
        pseudo_files=args.pseudofiles,
        parallel=args.jobs,
        executor=args.executor,
        workers=parse_worker_list(args.workers),
        cache=not args.no_cache,
        run_cache=args.run_cache,
        run_cache_max_entries=args.run_cache_max_entries,
        run_cache_ttl_s=args.run_cache_ttl,
        probe_timeout_s=args.probe_timeout,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
        on_fault=args.on_fault,
        fault_seed=args.fault_seed,
    )
    backend_spec = args.backend or ("ptrace" if args.exec_argv else "appsim")
    request = AnalysisRequest(
        app=args.app,
        workload=args.workload,
        backend=backend_spec,
        argv=tuple(args.exec_argv or ()),
        timeout_s=args.timeout,
    )
    # Validate before building the session: constructing it opens (and
    # may create) the --run-cache store, a side effect a rejected
    # invocation must not leave behind. resolve_backend() checks each
    # name exists without running any factory.
    try:
        names = request.backend_names()
        for name in names:
            resolve_backend(name)
    except BackendRegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    blocked = _check_exec_spec(args, request, names)
    if blocked is not None:
        return blocked
    cancel_check, restore_sigint = _sigint_cancel()
    config = dataclasses.replace(config, cancel_check=cancel_check)
    try:
        session = LoupeSession(
            config=config, on_event=_jsonl_emitter(args),
            cache_path=args.run_cache,
        )
    except CacheStoreError as error:
        restore_sigint()
        print(str(error), file=sys.stderr)
        return 2
    with session:
        try:
            outcome = session.analyze(request)
        except BackendRegistryError as error:
            print(str(error), file=sys.stderr)
            return 2
        except ProbeFaultError as error:
            print(f"aborted by fault policy (--on-fault fail): {error}",
                  file=sys.stderr)
            return 1
        except AnalysisCancelledError as error:
            # The analyzer already flushed engine_stats and a terminal
            # analysis_cancelled event onto any --events stream.
            print(f"{error}", file=sys.stderr)
            return 130
        finally:
            restore_sigint()
        if request.is_multi_target():
            # The fan-out returns the cross-validation report; the
            # per-target records are queryable in the session database
            # (and land in --output).
            from repro.report import render_cross_validation

            print(render_cross_validation(outcome))
        else:
            _print_analysis(outcome)
            print(f"engine: {session.last_engine_stats.describe()}")
        _save_output(session, args)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if _remote_without_workers(args):
        return 2
    from repro.fabric.executor import parse_worker_list

    config = AnalyzerConfig(
        replicas=args.replicas,
        subfeature_level=args.subfeatures,
        pseudo_files=args.pseudofiles,
        parallel=args.jobs,
        executor=args.executor,
        workers=parse_worker_list(args.workers),
        probe_timeout_s=args.probe_timeout,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
        on_fault=args.on_fault,
        fault_seed=args.fault_seed,
    )
    request = AnalysisRequest(
        app=args.app,
        workload=args.workload,
        backend=args.backends,
        argv=tuple(args.exec_argv or ()),
        timeout_s=args.timeout,
    )
    try:
        names = request.backend_names()
    except BackendRegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    blocked = _check_exec_spec(args, request, names)
    if blocked is not None:
        return blocked
    from repro.report import render_cross_validation

    cancel_check, restore_sigint = _sigint_cancel()
    config = dataclasses.replace(config, cancel_check=cancel_check)
    with LoupeSession(config=config, on_event=_jsonl_emitter(args)) as session:
        try:
            report = session.compare(request)
        except BackendRegistryError as error:
            print(str(error), file=sys.stderr)
            return 2
        except ProbeFaultError as error:
            print(f"aborted by fault policy (--on-fault fail): {error}",
                  file=sys.stderr)
            return 1
        except AnalysisCancelledError as error:
            print(f"{error}", file=sys.stderr)
            return 130
        finally:
            restore_sigint()
        print(render_cross_validation(report))
        if args.report:
            from pathlib import Path

            Path(args.report).write_text(
                json.dumps(report.to_dict(), indent=1)
            )
            print(f"report saved to {args.report}")
        _save_output(session, args)
    if report.soundness_violations():
        # Static ⊇ dynamic is an invariant, not a preference: a static
        # footprint missing a dynamically observed syscall is the one
        # divergence class that hard-fails the comparison.
        print(
            "soundness violation: a static footprint missed dynamically "
            "observed syscalls (see report)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        plan = LoupeSession().plan(
            os_name=args.os,
            apps=args.apps,
            workload=args.workload,
            support_csv=args.support_csv,
        )
    except PlanError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(render_plan(plan, syscall_numbers=not args.names))
    return 0


#: Studies whose corpus analyses honor ``study --jobs``.
_PARALLEL_STUDIES = frozenset({"fig3", "fig4", "fig5", "fig7"})


def _cmd_study(args: argparse.Namespace) -> int:
    name = args.name
    if args.jobs > 1 and name not in _PARALLEL_STUDIES:
        print(f"note: --jobs has no effect on study {name!r} "
              f"(parallel-aware: {', '.join(sorted(_PARALLEL_STUDIES))})",
              file=sys.stderr)
    if name == "table1":
        apps = cloud_apps()
        requirements = requirements_for_all(apps, "bench")
        for state in table1_states(requirements).values():
            print(render_plan(generate_plan(state, requirements)))
            print()
    elif name == "table2":
        from repro.study import analyze_impacts, render_table2

        print(render_table2(analyze_impacts()))
    elif name == "table3":
        from repro.study import glibc_comparison, render_table3

        print(render_table3(glibc_comparison()))
    elif name == "table4":
        from repro.study import render_table4, table4

        print(render_table4(table4()))
    elif name == "fig2":
        from repro.report import render_effort_curves

        study = run_effort_study(corpus()[:62])
        half = study.at_half()
        print(render_effort_curves(study))
        print(f"\nto support {half['apps']} apps: loupe={half['loupe']} "
              f"organic={half['organic']} naive={half['naive']} syscalls")
    elif name == "fig3":
        from repro.report import render_importance_curves
        from repro.study import analyze_apps, figure3

        results = analyze_apps(corpus(), "bench", jobs=args.jobs)
        fig = figure3(results)
        print(render_importance_curves(fig))
        print(f"\nloupe: {fig.loupe.total_syscalls()} syscalls required overall")
        print(f"naive: {fig.naive.total_syscalls()} syscalls required overall")
    elif name == "fig4":
        from repro.appsim.corpus import seven_apps
        from repro.study import analyze_apps, figure4, render_figure4

        apps = seven_apps()
        if args.jobs > 1:
            # figure4 reads through the shared study cache app by app;
            # pre-warming it in parallel is what --jobs buys here.
            for workload_name in ("bench", "suite"):
                analyze_apps(apps, workload_name, jobs=args.jobs)
        print(render_figure4(figure4(apps)))
    elif name == "fig5":
        from repro.appsim.corpus import seven_apps
        from repro.study import analyze_apps, render_figure5_row, syscall_sets

        apps = seven_apps()
        results = analyze_apps(apps, "bench", jobs=args.jobs)
        for table in syscall_sets(apps, results).values():
            print(render_figure5_row(table))
    elif name == "fig7":
        from repro.study import analyze_apps, check_study

        apps = corpus()
        study = check_study(apps, analyze_apps(apps, "bench", jobs=args.jobs))
        print(f"{len(study.rows)} wrapper syscalls inspected; "
              f"checks/avoidability correlation: {study.correlation:+.2f}")
    elif name == "fig8":
        from repro.study import figure8

        for pair in figure8():
            print(f"{pair.app}: {pair.old.year} traced={pair.old.traced} "
                  f"required={pair.old.required} | 2021 "
                  f"traced={pair.recent.traced} required={pair.recent.required}")
    elif name == "pseudo":
        from repro.study import pseudo_file_study, render_pseudo_files

        print(render_pseudo_files(pseudo_file_study(cloud_apps())))
    else:
        print(f"unknown study {name!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    apps = corpus(args.size)
    for app in apps:
        marker = "*" if app.name in CLOUD_APPS else " "
        print(f"{marker} {app.name:<12} {app.category:<14} ({app.year})")
    print(f"{len(apps)} applications ('*' = hand-modeled cloud app)")
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    database = Database.load(args.path)
    if args.merge:
        other = Database.load(args.merge)
        changed = database.merge(other)
        database.save(args.path)
        print(f"merged {changed} record(s) into {args.path}")
        return 0
    print(f"{args.path}: {len(database)} record(s)")
    for result in database:
        print(f"  {result.app} {result.app_version} / {result.workload} "
              f"[{result.backend}]: {len(result.required_syscalls())} required "
              f"of {len(result.traced_syscalls())} traced")
    return 0


def _print_store_stats(stats) -> None:
    print(f"path: {stats.path}")
    print(f"backend: {stats.kind}")
    print(f"entries: {stats.entries}")
    print(f"loaded_records: {stats.loaded_records}")
    print(f"file_bytes: {stats.file_bytes}")
    print(f"max_entries: "
          f"{stats.max_entries if stats.max_entries is not None else '-'}")
    print(f"evictions: {stats.evictions}")
    print(f"ttl_s: {stats.ttl_s if stats.ttl_s is not None else '-'}")
    print(f"expired: {stats.expired}")


def _require_store_file(path: str) -> None:
    """Ops commands operate on *existing* stores: a typo'd path must
    exit 2, not report success on a silently-created empty store."""
    from repro.core.cachestore import parse_store_path

    kind, concrete = parse_store_path(path)
    if kind == "http":
        # A URL names a served store; reachability is checked when the
        # remote client opens (with its own actionable error).
        return
    if not concrete.exists():
        raise CacheStoreError(f"no run-cache store at {concrete}")


def _cmd_cache(args: argparse.Namespace) -> int:
    import sqlite3

    try:
        if args.cache_command == "stats":
            _require_store_file(args.path)
            with open_store(args.path, ttl_s=args.ttl) as store:
                stats = store.stats()
            if args.json:
                # The same serialization the campaign server's
                # GET /stats endpoint embeds (StoreStats.to_dict).
                print(json.dumps(stats.to_dict(), sort_keys=True))
            else:
                _print_store_stats(stats)
        elif args.cache_command == "compact":
            _require_store_file(args.path)
            with open_store(args.path) as store:
                outcome = store.compact()
            print(outcome.describe())
        elif args.cache_command == "gc":
            if args.max_entries is None and args.ttl is None:
                print("cache gc needs an eviction dimension: "
                      "--max-entries N (LRU cap) and/or "
                      "--ttl SECONDS (age sweep)", file=sys.stderr)
                return 2
            _require_store_file(args.path)
            with open_store(args.path) as store:
                evicted = store.gc(args.max_entries, ttl_s=args.ttl)
                remaining = len(store)
            bounds = []
            if args.ttl is not None:
                bounds.append(f"ttl {args.ttl:g}s")
            if args.max_entries is not None:
                bounds.append(f"cap {args.max_entries}")
            print(f"evicted {evicted} record(s); {remaining} remain "
                  f"({', '.join(bounds)})")
        elif args.cache_command == "migrate":
            _require_store_file(args.source)
            migrated = migrate_store(
                args.source, args.destination,
                max_entries=args.max_entries,
            )
            print(f"migrated {migrated} record(s): "
                  f"{args.source} -> {args.destination}")
        elif args.cache_command == "verify":
            from repro.core.cachestore import verify_store

            _require_store_file(args.path)
            with open_store(args.path) as store:
                report = verify_store(
                    store, sample=args.sample, seed=args.seed
                )
            if args.json:
                print(json.dumps(report.to_dict(), sort_keys=True))
            else:
                print(report.describe())
                for mismatch in report.mismatches:
                    print(f"  MISMATCH {mismatch.describe()}")
            if not report.ok:
                return 1
    except (CacheStoreError, ValueError, OSError, sqlite3.Error) as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _service_client(args: argparse.Namespace):
    """A :class:`~repro.server.client.ServiceClient` for the server the
    arguments point at: ``--url`` wins, otherwise the discovery file
    under ``--data-dir`` (written by ``loupe serve``) names it."""
    from repro.server import ServiceClient, discover_url

    url = args.url or discover_url(args.data_dir)
    return ServiceClient(url)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import CampaignServer

    try:
        server = CampaignServer(
            args.data_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            run_cache=args.run_cache,
            max_queue=args.max_queue,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            checkpoint_jobs=not args.no_checkpoint,
            verbose=args.verbose,
        )
    except CacheStoreError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"serve: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    server.start()
    print(f"campaign server listening on {server.url}", flush=True)
    print(f"data dir: {server.data_dir} "
          f"(discovery file: {server.discovery_path})", flush=True)

    # SIGTERM (how scripts and CI stop a backgrounded server) gets the
    # same graceful path as Ctrl-C: cancel in-flight campaigns at their
    # next wave boundary, persist their terminal state, remove the
    # discovery file. Background shells routinely start children with
    # SIGINT ignored, so SIGTERM is the shutdown signal that must work.
    if threading.current_thread() is threading.main_thread():
        def _terminate(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupt: cancelling in-flight jobs and shutting down",
              file=sys.stderr, flush=True)
        server.close(cancel_running=True)
        return 130
    server.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fabric import FabricWorker

    try:
        worker = FabricWorker(
            host=args.host,
            port=args.port,
            heartbeat_s=args.heartbeat,
            announce_url=args.announce,
        )
    except (OSError, ValueError) as error:
        print(f"worker: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    worker.start()
    print(f"fabric worker listening on {worker.address} "
          f"(pid {os.getpid()})", flush=True)
    if args.port_file:
        # Script-friendly discovery, like the server's server.json: an
        # ephemeral --port 0 worker publishes where it actually bound.
        Path(args.port_file).write_text(f"{worker.address}\n")

    # SIGTERM takes the same graceful path as Ctrl-C (background
    # shells start children with SIGINT ignored).
    if threading.current_thread() is threading.main_thread():
        def _terminate(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _terminate)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        print("interrupt: shutting down worker", file=sys.stderr,
              flush=True)
        return 130
    finally:
        worker.close()
        if args.port_file:
            try:
                Path(args.port_file).unlink()
            except FileNotFoundError:
                pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.server import ServiceError

    spec = {
        "app": args.app,
        "workload": args.workload,
        "backend": args.backend,
        "replicas": args.replicas,
        "subfeatures": args.subfeatures,
        "pseudofiles": args.pseudofiles,
        "jobs": args.jobs,
        "executor": args.executor,
        "workers": args.workers or "",
        "run_cache": args.run_cache,
        "run_cache_max_entries": args.run_cache_max_entries,
        "run_cache_ttl": args.run_cache_ttl,
        "probe_timeout": args.probe_timeout,
        "retries": args.retries,
        "retry_backoff": args.retry_backoff,
        "on_fault": args.on_fault,
        "fault_seed": args.fault_seed,
    }
    try:
        client = _service_client(args)
        meta = client.submit(spec)
    except (ServiceError, LoupeError, OSError) as error:
        print(f"submit: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(meta, sort_keys=True))
    else:
        print(f"{meta['id']} {meta['status']}")
    if args.tail:
        return _tail_job(client, meta["id"])
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.server import ServiceError

    try:
        jobs = _service_client(args).jobs(state=args.state)
    except (ServiceError, LoupeError, OSError) as error:
        print(f"jobs: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(jobs, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs" if not args.state else f"no {args.state} jobs")
        return 0
    for meta in jobs:
        line = (f"{meta['id']}  {meta['status']:<11}  "
                f"{meta['app']}/{meta['workload']} on {meta['backend']}")
        if meta.get("attempt", 1) > 1:
            line += f"  attempt={meta['attempt']}"
        if meta.get("reason"):
            line += f"  ({meta['reason']})"
        print(line)
    return 0


#: ``loupe tail`` exit codes by terminal status: done → 0, failed → 1
#: (quarantined reads as failed — the campaign never completed),
#: cancelled → 3 (distinct from failure — the campaign was *stopped*,
#: not broken — and from the usage-error 2).
_TAIL_EXIT_CODES = {"done": 0, "failed": 1, "quarantined": 1, "cancelled": 3}


def _tail_job(client, job_id: str) -> int:
    """Stream a job's event lines to stdout until it is terminal."""
    from repro.server import ServiceError

    try:
        for line in client.tail(job_id):
            sys.stdout.write(line)
            sys.stdout.flush()
    except (ServiceError, LoupeError) as error:
        # LoupeError also covers ServiceUnavailableError: the client's
        # GET retries already rode out any transient restart; by the
        # time it reaches us the server is genuinely gone.
        print(f"tail: {error}", file=sys.stderr)
        return 2
    status = client.last_status
    print(f"tail: {job_id} {status}", file=sys.stderr)
    return _TAIL_EXIT_CODES.get(status, 2)


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.server import ServiceError

    try:
        client = _service_client(args)
    except (ServiceError, LoupeError, OSError) as error:
        print(f"tail: {error}", file=sys.stderr)
        return 2
    return _tail_job(client, args.job_id)


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.server import ServiceError

    try:
        meta = _service_client(args).cancel(args.job_id)
    except (ServiceError, LoupeError, OSError) as error:
        print(f"cancel: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(meta, sort_keys=True))
    else:
        print(f"{meta['id']} {meta['status']}")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.server import ServiceError

    try:
        plan = _service_client(args).drain()
    except (ServiceError, LoupeError, OSError) as error:
        print(f"drain: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(plan, sort_keys=True))
    else:
        print(f"draining: {plan.get('running', 0)} running job(s) will "
              f"finish, {plan.get('queued', 0)} queued job(s) stay on "
              f"disk for the next start")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.staticx import scan_binary

    report = scan_binary(args.binary)
    numbers = sorted(number_of(name) for name in report.syscalls)
    print(f"{report.path}: {len(report.syscalls)} syscalls at "
          f"{report.sites} sites ({report.resolution_rate:.0%} resolved)")
    print(", ".join(str(n) for n in numbers))
    return 0


def _split_rules(raw: "str | None") -> "list[str] | None":
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticx import rules as lint_rules

    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    try:
        if args.apps:
            from repro.appsim.corpus import HANDBUILT, build

            unknown = [name for name in args.apps if name not in HANDBUILT]
            if unknown:
                print(
                    f"unknown app(s): {', '.join(unknown)}; choose from "
                    f"{', '.join(sorted(HANDBUILT))}",
                    file=sys.stderr,
                )
                return 2
            apps = [build(name) for name in args.apps]
        else:
            apps = corpus()
        findings = lint_rules.lint_corpus(
            apps, select=select, ignore=ignore
        )
        if args.db:
            database = Database.load(args.db)
            findings += lint_rules.audit_database(
                database, level=args.level, select=select, ignore=ignore
            )
        if args.plan:
            from repro.plans.state import SupportState

            state = SupportState.load(args.plan, args.os)
            # A named app list narrows the plan check too; the default
            # sweep covers the Table 1 cloud set (requirements come
            # from memoized dynamic analyses).
            findings += lint_rules.lint_plan(
                state,
                apps if args.apps else None,
                workload=args.workload,
                select=select,
                ignore=ignore,
            )
    except (lint_rules.LintRuleError, LoupeError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    errors = sum(
        1 for f in findings if f.severity == lint_rules.SEVERITY_ERROR
    )
    warnings = len(findings) - errors
    if args.format == "json":
        print(json.dumps({
            "apps_checked": len(apps),
            "findings": [finding.to_dict() for finding in findings],
            "counts": {"error": errors, "warning": warnings},
        }, indent=1))
    else:
        for finding in findings:
            print(finding.describe())
        print(
            f"lint: {len(apps)} app(s) checked, {errors} error(s), "
            f"{warnings} warning(s)"
        )
    return lint_rules.exit_code(findings)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance flags shared by ``analyze`` and ``compare``."""
    parser.add_argument("--probe-timeout", type=float, default=None,
                        metavar="S", dest="probe_timeout",
                        help="wall-clock budget per probe run attempt; "
                             "an attempt exceeding it is abandoned and "
                             "classified as a timeout fault")
    parser.add_argument("--retries", type=_nonnegative_int, default=0,
                        metavar="N",
                        help="extra attempts after a faulted probe run "
                             "(exponential backoff between attempts; "
                             "default 0)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="S", dest="retry_backoff",
                        help="base delay of the retry backoff "
                             "(default 0.05s)")
    parser.add_argument("--on-fault", choices=("fail", "degrade"),
                        default="fail", dest="on_fault",
                        help="fail: abort the campaign when a run "
                             "exhausts its attempts (default); degrade: "
                             "quarantine the run, report the feature "
                             "UNDECIDED, and keep going")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="SEED", dest="fault_seed",
                        help="seed the retry-backoff jitter for "
                             "reproducible timings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loupe",
        description="Loupe reproduction: OS feature usage analysis and "
                    "compatibility-layer support planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one application")
    analyze.add_argument("--app", default="redis")
    analyze.add_argument("--workload", default="bench",
                         choices=("health", "bench", "suite"))
    analyze.add_argument("--replicas", type=_positive_int, default=3)
    analyze.add_argument("--backend", default=None, metavar="NAME[,NAME...]",
                         help="execution backend from the registry "
                              "(default: appsim, or ptrace with --exec). "
                              "A comma list fans the campaign across "
                              "every named backend and prints the "
                              "cross-validation report")
    analyze.add_argument("--events", choices=("jsonl",), default=None,
                         help="stream analysis progress events to stdout "
                              "(one JSON object per line)")
    analyze.add_argument("--subfeatures", action="store_true")
    analyze.add_argument("--pseudofiles", action="store_true")
    analyze.add_argument("--timeout", type=float, default=60.0)
    analyze.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                         help="worker-process pool width for --executor "
                              "process (default 1)")
    analyze.add_argument("--executor", choices=EXECUTORS, default="auto",
                         help="probe sharding strategy: serial runs "
                              "probes inline, process shards them over "
                              "--jobs worker processes, remote ships "
                              "chunks to a worker fleet (--workers); "
                              "backends that cannot shard run serially "
                              "(default: auto, which is serial)")
    analyze.add_argument("--workers", metavar="HOST:PORT[,HOST:PORT...]",
                         default=None,
                         help="worker fleet for --executor remote: "
                              "comma list of `loupe worker` addresses")
    analyze.add_argument("--run-cache", metavar="PATH", default=None,
                         help="persistent run-cache store; repeated "
                              "campaigns over the same path start "
                              "warm, across processes and sessions. "
                              "A file path opens a SQLite store, "
                              "http://host:port a campaign server's "
                              "/cache surface; a *.jsonl file must "
                              "first be imported with `loupe cache "
                              "migrate`")
    analyze.add_argument("--run-cache-max-entries", type=_positive_int,
                         default=None, metavar="N",
                         help="LRU cap on the persistent run cache: "
                              "puts past N records evict the least "
                              "recently used")
    analyze.add_argument("--run-cache-ttl", type=float, default=None,
                         metavar="SECONDS",
                         help="age cap on the persistent run cache: "
                              "records older than this read as misses "
                              "(sweep them with `loupe cache gc --ttl`)")
    analyze.add_argument("--no-cache", action="store_true",
                         help="disable run-result memoization in the "
                              "probe engine")
    analyze.add_argument("--output", help="save result database to this path")
    _add_fault_arguments(analyze)
    analyze.add_argument("--exec", dest="exec_argv", nargs=argparse.REMAINDER,
                         help="trace a real command via ptrace instead")
    analyze.set_defaults(func=_cmd_analyze)

    compare = sub.add_parser(
        "compare",
        help="fan one app across several backends and cross-validate "
             "what each observed",
    )
    compare.add_argument("--app", default="redis")
    compare.add_argument("--workload", default="bench",
                         choices=("health", "bench", "suite"))
    compare.add_argument("--backends", default="appsim,ptrace",
                         metavar="NAME[,NAME...]",
                         help="registry backends to fan the campaign "
                              "over (default: appsim,ptrace — the "
                              "paper's sim-vs-real validation)")
    compare.add_argument("--replicas", type=_positive_int, default=3)
    compare.add_argument("--subfeatures", action="store_true")
    compare.add_argument("--pseudofiles", action="store_true")
    compare.add_argument("--timeout", type=float, default=60.0)
    compare.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                         help="worker-process pool width per target for "
                              "--executor process")
    compare.add_argument("--executor", choices=EXECUTORS, default="auto",
                         help="probe sharding strategy, as for analyze "
                              "(default: auto, which is serial)")
    compare.add_argument("--workers", metavar="HOST:PORT[,HOST:PORT...]",
                         default=None,
                         help="worker fleet for --executor remote")
    compare.add_argument("--events", choices=("jsonl",), default=None,
                         help="stream analysis progress events (incl. "
                              "target_started/target_finished and the "
                              "cross_validation_report) to stdout")
    compare.add_argument("--report", metavar="PATH", default=None,
                         help="also write the cross-validation report "
                              "as JSON to this path")
    compare.add_argument("--output", help="save the per-target result "
                                          "database to this path")
    _add_fault_arguments(compare)
    compare.add_argument("--exec", dest="exec_argv",
                         nargs=argparse.REMAINDER,
                         help="command line for command-running "
                              "backends (e.g. ptrace)")
    compare.set_defaults(func=_cmd_compare)

    plan = sub.add_parser("plan", help="generate a support plan")
    plan.add_argument("--os", default="unikraft")
    plan.add_argument("--support-csv", help="CSV of supported syscalls")
    plan.add_argument("--apps", default="cloud", choices=("cloud", "corpus"))
    plan.add_argument("--workload", default="bench")
    plan.add_argument("--names", action="store_true",
                      help="print syscall names instead of numbers")
    plan.set_defaults(func=_cmd_plan)

    study = sub.add_parser("study", help="regenerate a paper table/figure")
    study.add_argument("name", choices=(
        "table1", "table2", "table3", "table4",
        "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "pseudo",
    ))
    study.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="analyze up to N corpus applications "
                            "concurrently (fig3/fig4/fig5/fig7; default 1)")
    study.set_defaults(func=_cmd_study)

    corpus_cmd = sub.add_parser("corpus", help="list the application corpus")
    corpus_cmd.add_argument("--size", type=int, default=116)
    corpus_cmd.set_defaults(func=_cmd_corpus)

    db = sub.add_parser("db", help="inspect or merge result databases")
    db.add_argument("path")
    db.add_argument("--merge", help="merge another database into this one")
    db.set_defaults(func=_cmd_db)

    cache = sub.add_parser(
        "cache", help="operate on persistent run-cache stores"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print a store's entry counts and footprint"
    )
    cache_stats.add_argument("path")
    cache_stats.add_argument("--ttl", type=float, default=None,
                             metavar="SECONDS",
                             help="also count records older than this "
                                  "as expired (what `gc --ttl` with "
                                  "the same value would sweep)")
    cache_stats.add_argument("--json", action="store_true",
                             help="print the stats as one JSON object "
                                  "(the shape GET /stats of the "
                                  "campaign server embeds)")
    cache_stats.set_defaults(func=_cmd_cache)
    cache_compact = cache_sub.add_parser(
        "compact",
        help="reclaim a store's free space (checkpoint the WAL, then "
             "vacuum). Offline operation — stop concurrent writers "
             "first",
    )
    cache_compact.add_argument("path")
    cache_compact.set_defaults(func=_cmd_cache)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict records: by age (--ttl) and/or down to an "
                   "LRU cap (--max-entries)"
    )
    cache_gc.add_argument("path")
    cache_gc.add_argument("--max-entries", type=_positive_int,
                          default=None, metavar="N",
                          help="keep at most N records, evicting the "
                               "least recently used")
    cache_gc.add_argument("--ttl", type=float, default=None,
                          metavar="SECONDS",
                          help="sweep records older than this many "
                               "seconds")
    cache_gc.set_defaults(func=_cmd_cache)
    cache_migrate = cache_sub.add_parser(
        "migrate",
        help="copy every live record, policy documents included, "
             "between stores; a *.jsonl (or jsonl:PATH) side imports "
             "or exports the JSONL format, the only way in or out of "
             "a store. Warmed campaigns stay warm across the move",
    )
    cache_migrate.add_argument("source")
    cache_migrate.add_argument("destination")
    cache_migrate.add_argument("--max-entries", type=_positive_int,
                               default=None, metavar="N",
                               help="open the destination store with "
                                    "this LRU cap")
    cache_migrate.set_defaults(func=_cmd_cache)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-execute (a sample of) a store's records and diff "
             "stored vs fresh results; exits 1 on any mismatch — the "
             "audit of the determinism contract the cache rests on",
    )
    cache_verify.add_argument("path")
    cache_verify.add_argument("--sample", type=_positive_int, default=None,
                              metavar="N",
                              help="re-execute only a seeded random "
                                   "sample of N records (default: all)")
    cache_verify.add_argument("--seed", type=int, default=0,
                              help="sampling seed (default 0); the same "
                                   "seed picks the same records")
    cache_verify.add_argument("--json", action="store_true",
                              help="print the verification report as "
                                   "one JSON object (mismatches "
                                   "included); the exit code still "
                                   "signals failures")
    cache_verify.set_defaults(func=_cmd_cache)

    scan = sub.add_parser("scan", help="static binary scan of an ELF")
    scan.add_argument("binary")
    scan.set_defaults(func=_cmd_scan)

    lint = sub.add_parser(
        "lint",
        help="statically vet app models, support plans, and stored "
             "results",
        description="Run the static soundness auditor. Exit code 0 "
                    "means no error-severity findings (warnings never "
                    "gate); 1 means at least one error; 2 is a usage "
                    "problem — the contract CI jobs gate on.",
    )
    lint.add_argument("--app", action="append", dest="apps",
                      metavar="NAME",
                      help="lint only the named hand-built app "
                           "(repeatable; default: the whole corpus)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="findings as human-readable lines (default) "
                           "or one JSON object")
    lint.add_argument("--select", metavar="RULE[,RULE]", default=None,
                      help="run only these rules")
    lint.add_argument("--ignore", metavar="RULE[,RULE]", default=None,
                      help="suppress these rules")
    lint.add_argument("--db", metavar="PATH", default=None,
                      help="additionally audit a stored loupedb: every "
                           "dynamic record's traced syscalls must fall "
                           "inside its app's static footprint")
    lint.add_argument("--level", choices=("source", "binary"),
                      default="binary",
                      help="static footprint level for the --db audit "
                           "(default binary)")
    lint.add_argument("--plan", metavar="CSV", default=None,
                      help="additionally check a support-state CSV for "
                           "apps it statically cannot satisfy")
    lint.add_argument("--os", default=None,
                      help="OS name for the --plan state (default: the "
                           "CSV file stem)")
    lint.add_argument("--workload", default="bench",
                      help="workload whose requirements the --plan "
                           "check uses (default bench)")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        help="run the campaign server: accept job submissions over "
             "HTTP, drain them through a bounded worker pool, stream "
             "events live",
    )
    serve.add_argument("--data-dir", default="loupe-data",
                       help="server state root: per-job lifecycle "
                            "directories live under <data-dir>/jobs, "
                            "and the discovery file <data-dir>/"
                            "server.json records the bound address "
                            "(default: ./loupe-data)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind; 0 (the default) picks an "
                            "ephemeral one — clients find it through "
                            "the discovery file")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       metavar="N",
                       help="campaigns running concurrently; further "
                            "jobs wait queued in FIFO order "
                            "(default 2)")
    serve.add_argument("--run-cache", metavar="PATH", default=None,
                       help="service-default persistent run cache, "
                            "inherited by jobs that name none — a "
                            "long-lived server amortizes probe work "
                            "across campaigns")
    serve.add_argument("--max-queue", type=_positive_int, default=None,
                       metavar="N",
                       help="admission control: refuse submissions "
                            "(HTTP 429 + Retry-After) past N jobs "
                            "waiting for a worker (default: unbounded)")
    serve.add_argument("--lease", type=float, default=30.0,
                       metavar="SECONDS",
                       help="running-job lease: a worker that makes no "
                            "progress for this long is presumed dead "
                            "and its job reclaimed by the reaper "
                            "(default 30)")
    serve.add_argument("--max-attempts", type=_positive_int, default=3,
                       metavar="N",
                       help="attempt budget per job; reclaims and "
                            "crash-resumes beyond it quarantine the "
                            "job as poisonous (default 3)")
    serve.add_argument("--no-checkpoint", action="store_true",
                       help="disable per-job checkpoint stores "
                            "(jobs/<id>/runcache.sqlite); resumed "
                            "jobs then re-execute every probe")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run one fabric worker: accept pickled probe chunks from "
             "remote-executor campaigns (--executor remote --workers "
             "HOST:PORT,...) over TCP and execute them locally",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0,
                        help="port to bind; 0 (the default) picks an "
                             "ephemeral one — publish it with "
                             "--port-file")
    worker.add_argument("--port-file", metavar="PATH", default=None,
                        help="write the bound host:port address to "
                             "this file once listening (removed on "
                             "clean shutdown)")
    worker.add_argument("--announce", metavar="URL", default=None,
                        help="campaign server base URL to send "
                             "periodic fleet heartbeats to (feeds the "
                             "worker gauges in its GET /stats)")
    worker.add_argument("--heartbeat", type=float, default=2.0,
                        metavar="SECONDS",
                        help="connection heartbeat interval; schedulers "
                             "presume a worker dead after ~5 missed "
                             "beats (default 2)")
    worker.set_defaults(func=_cmd_worker)

    def _client_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--url", default=None,
                            help="server address (http://host:port); "
                                 "default: read the discovery file "
                                 "under --data-dir")
        parser.add_argument("--data-dir", default="loupe-data",
                            help="where to look for the server's "
                                 "discovery file when no --url is "
                                 "given (default: ./loupe-data)")

    submit = sub.add_parser(
        "submit",
        help="submit one campaign to a running server; prints the "
             "job id",
    )
    _client_arguments(submit)
    submit.add_argument("--app", default="redis")
    submit.add_argument("--workload", default="bench",
                        choices=("health", "bench", "suite"))
    submit.add_argument("--backend", default="appsim",
                        metavar="NAME[,NAME...]",
                        help="execution backend(s) from the server's "
                             "registry; a comma list fans out and the "
                             "job's report is the cross-validation "
                             "report")
    submit.add_argument("--replicas", type=_positive_int, default=3)
    submit.add_argument("--subfeatures", action="store_true")
    submit.add_argument("--pseudofiles", action="store_true")
    submit.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="worker-process pool width inside the "
                             "campaign for --executor process")
    submit.add_argument("--executor", choices=EXECUTORS, default="auto",
                        help="probe sharding strategy, as for analyze "
                             "(default: auto, which is serial)")
    submit.add_argument("--workers", metavar="HOST:PORT[,HOST:PORT...]",
                        default=None,
                        help="worker fleet the job's remote executor "
                             "dials (addresses as the *server* reaches "
                             "them)")
    submit.add_argument("--run-cache", metavar="PATH", default=None,
                        help="persistent run cache for this job "
                             "(default: the server's --run-cache, "
                             "if any); http://host:port uses a "
                             "campaign server's /cache surface")
    submit.add_argument("--run-cache-max-entries", type=_positive_int,
                        default=None, metavar="N")
    submit.add_argument("--run-cache-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="age cap on the job's run cache")
    _add_fault_arguments(submit)
    submit.add_argument("--json", action="store_true",
                        help="print the created job's meta as JSON")
    submit.add_argument("--tail", action="store_true",
                        help="immediately tail the submitted job's "
                             "event stream (exit code follows the "
                             "job's terminal status)")
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser("jobs", help="list a server's jobs")
    _client_arguments(jobs_cmd)
    jobs_cmd.add_argument("--state", default=None,
                          choices=("queued", "running", "done", "failed",
                                   "cancelled", "quarantined"),
                          help="only jobs in this lifecycle state "
                               "(e.g. --state quarantined for triage)")
    jobs_cmd.add_argument("--json", action="store_true")
    jobs_cmd.set_defaults(func=_cmd_jobs)

    tail = sub.add_parser(
        "tail",
        help="stream a job's events (the --events jsonl stream, "
             "envelope-wrapped) until it reaches a terminal state; "
             "exits 0 done / 1 failed / 3 cancelled",
    )
    _client_arguments(tail)
    tail.add_argument("job_id")
    tail.set_defaults(func=_cmd_tail)

    cancel = sub.add_parser(
        "cancel",
        help="cancel a job: queued jobs stop immediately, running "
             "jobs at the analyzer's next wave boundary",
    )
    _client_arguments(cancel)
    cancel.add_argument("job_id")
    cancel.add_argument("--json", action="store_true")
    cancel.set_defaults(func=_cmd_cancel)

    drain = sub.add_parser(
        "drain",
        help="close a server's intake: in-flight jobs finish, queued "
             "jobs stay on disk for the next start, new submissions "
             "get 503",
    )
    _client_arguments(drain)
    drain.add_argument("--json", action="store_true")
    drain.set_defaults(func=_cmd_drain)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into head/less that exited early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
