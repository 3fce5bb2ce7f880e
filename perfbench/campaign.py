"""One measured run of one workload: the process ``run.py`` starts.

It sets the workload up, prints ``READY`` (the parent times set-up from
its own start to that line), checks out the references, then repeats
iterations until ``--seconds`` are used up (at least one). With
``--trace 1`` it also runs one traced iteration at the end, and reports
per-layer numbers from it. The last line it prints is ``RESULT`` and a
JSON document that ``run.py`` turns into the benchmark's output.

``--setup-only`` stops after ``READY``: the parent starts a few such
processes to take the median of several set-up times.

The script must stay import-safe: under the forkserver and spawn start
methods, every process-pool worker imports it again as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0], values[0], values[0]) if values else (0.0, 0.0, 0.0)
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def _percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# -- process accounting ---------------------------------------------------


def _descendants(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for task in tasks:
        try:
            children = Path(f"/proc/{pid}/task/{task}/children").read_text().split()
        except FileNotFoundError:
            continue
        for child in map(int, children):
            found.append(child)
            found.extend(_descendants(child))
    return found


def _status(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus each live descendant's, in MB."""
    pids = [os.getpid(), *_descendants(os.getpid())]
    return sum(_status(pid, "VmHWM") for pid in pids) / 1024.0


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _reap_descendants() -> None:
    """Kill and wait for whatever teardown left running."""
    for pid in reversed(_descendants(os.getpid())):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in _descendants(os.getpid()):
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild: its own parent reaps it


# -- metrics --------------------------------------------------------------


def _check(iteration, refs: dict, workload) -> tuple[int, int, list]:
    """``(attempted, failed, problems)`` for one iteration's passes."""
    attempted = failed = 0
    problems = []
    for label, record in (("cold", iteration.cold), ("warm", iteration.warm)):
        if record is None:
            continue
        attempted += len(record.reports)
        problems.extend(f"{label}: {failure}" for failure in record.failures)
        for app, digest in record.reports.items():
            if digest is None:
                failed += 1
            elif digest != refs["reports"][app]:
                failed += 1
                problems.append(f"{label}: {app}: report differs from its reference")
        if label == "cold" and workload.builds_plan and record.plan != refs["plan"]:
            problems.append(f"{label}: support plan differs from its reference")
        if label == "warm" and record.stats.runs_executed != 0:
            problems.append(
                f"warm pass executed {record.stats.runs_executed} runs, expected 0"
            )
    return attempted, failed, problems


def _end_to_end(iterations: list, workload) -> tuple[dict, list]:
    """The end-to-end metrics of the untraced iterations, and the lines
    that describe their spread."""
    cold_walls = [it.cold.wall_s for it in iterations]
    latencies = [s for it in iterations for s in it.cold.latencies_s]
    runs = [it.cold.stats.runs_executed for it in iterations]
    metrics = {
        "campaign_s": (statistics.median(cold_walls), "s"),
        "runs_executed": (statistics.median(runs), "runs"),
    }
    lines = [
        _spread_line("campaign_s", cold_walls, "s", "passes"),
        _spread_line("analysis_p50_ms", [x * 1e3 for x in latencies], "ms", "analyses"),
    ]
    # A p90 needs ten analyses beyond it in a pass; smaller passes list
    # their latencies instead.
    if len(iterations[0].cold.latencies_s) >= 100:
        p90 = _percentile(latencies, 0.9) * 1e3
        lines.append(f"analysis_p90_ms {p90:.3f} ms (n={len(latencies)} analyses)")
    else:
        lines.append("cold latencies (s): " + ", ".join(
            f"{x:.3f}" for x in iterations[0].cold.latencies_s
        ))
    if workload.has_warm:
        warm_walls = [it.warm.wall_s for it in iterations]
        lines.append(_spread_line("warm_campaign_s", warm_walls, "s", "passes"))
        warm_runs = max(it.warm.stats.runs_executed for it in iterations)
        lines.append(f"warm_runs_executed {warm_runs} runs (max over passes)")
    return metrics, lines


def _spread_line(name: str, values: list, unit: str, what: str) -> str:
    low, _mid, high = _quartiles(values)
    return (
        f"{name} {statistics.median(values):.6g} {unit} "
        f"(q1 {low:.6g}, q3 {high:.6g}, n={len(values)} {what})"
    )


def _per_layer(tracer, iteration, workload, refs, untraced_campaign_s,
               leftovers: dict) -> dict:
    from repro.core.analyzer import estimated_runtime_s

    def total(name: str) -> float:
        return sum(span.duration for span in tracer.named(name))

    def count(name: str) -> int:
        return len(tracer.named(name))

    passes = [p for p in (iteration.cold, iteration.warm) if p is not None]
    stats = passes[0].stats
    for extra in passes[1:]:
        stats = stats + extra.stats
    cold = [a for a in tracer.analyses if a["phase"] == "cold"]
    cold_features = sum(a["features"] for a in cold)
    for analysis in tracer.analyses:
        analysis["model_s"] = estimated_runtime_s(
            refs["mean_run_s"][analysis["app"]], analysis["features"],
            analysis["replicas"], workload.parallel,
        )
    ratios = [a["duration_s"] / a["model_s"] for a in cold]
    engine_spans = {s.id for s in tracer.named("engine.replicas")}
    batches = [s for s in tracer.named("engine.batch") if s.parent not in engine_spans]
    runs = sorted(span.duration for span in tracer.named("appsim.run"))
    gets = tracer.named("cachestore.get")
    stats_notes = [s.note for s in tracer.named("cachestore.stats")]
    waits = tracer.named("fabric.wait")
    self_s = tracer.self_times()
    jobs = [meta for p in passes for _b, _e, meta in p.jobs]
    client_s = [ended - begun for p in passes for begun, ended, _m in p.jobs]
    job_run_s = sum(m["finished_at"] - m["started_at"] for m in jobs)
    server_cache = iteration.server_cache or {}
    traced_campaign_s = iteration.cold.wall_s
    metrics = {
        "analyzer.baseline_s": (total("analyzer.baseline"), "s"),
        "analyzer.probe_s": (total("analyzer.probe"), "s"),
        "analyzer.confirm_s": (total("analyzer.confirm"), "s"),
        "analyzer.features": (sum(a["features"] for a in tracer.analyses), "count"),
        "analyzer.bisections": (sum(a["bisections"] for a in tracer.analyses), "count"),
        "analyzer.model_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "engine.batches": (len(batches), "count"),
        "engine.batch_s": (sum(s.duration for s in batches), "s"),
        "engine.replica_calls": (count("engine.replicas"), "count"),
        "engine.replica_s": (total("engine.replicas"), "s"),
        "engine.runs_requested": (stats.runs_requested, "runs"),
        "engine.cache_hits": (stats.cache_hits, "runs"),
        "engine.persistent_hits": (stats.persistent_hits, "runs"),
        "engine.skipped": (stats.replicas_skipped, "runs"),
        "engine.faulted": (stats.faulted, "runs"),
        "engine.runs_per_verdict": (
            iteration.cold.stats.runs_executed / (2 * cold_features)
            if cold_features else 0.0,
            "ratio",
        ),
        "engine.self_s": (self_s.get("engine", 0.0), "s"),
        "appsim.runs": (len(runs), "runs"),
        "appsim.run_s": (sum(runs), "s"),
        "appsim.run_p50_us": (statistics.median(runs) * 1e6 if runs else 0.0, "us"),
        "cachestore.open_s": (total("cachestore.open"), "s"),
        "cachestore.gets": (len(gets), "count"),
        "cachestore.get_s": (total("cachestore.get"), "s"),
        "cachestore.hits": (sum(1 for s in gets if s.note), "count"),
        "cachestore.puts": (count("cachestore.put"), "count"),
        "cachestore.put_s": (total("cachestore.put"), "s"),
        "cachestore.get_many_calls": (count("cachestore.get_many"), "count"),
        "cachestore.bytes": (stats_notes[-1] if stats_notes else 0, "bytes"),
        "fabric.connects": (count("fabric.connect"), "count"),
        "fabric.connect_s": (total("fabric.connect"), "s"),
        "fabric.close_s": (total("fabric.close"), "s"),
        "fabric.chunks": (count("fabric.submit"), "count"),
        "fabric.chunk_bytes": (sum(s.note for s in tracer.named("fabric.encode")), "bytes"),
        "fabric.encode_s": (total("fabric.encode"), "s"),
        "fabric.wait_s": (sum(s.duration for s in waits), "s"),
        "fabric.requeued": (sum(1 for s in waits if s.note == "lost"), "count"),
        "server.cache_hits": (server_cache.get("hits", 0), "count"),
        "server.cache_misses": (server_cache.get("misses", 0), "count"),
        "server.claims_granted": (server_cache.get("claims_granted", 0), "count"),
        "server.claims_open": (server_cache.get("claims_open", 0), "count"),
        "server.coalesced": (server_cache.get("coalesced", 0), "count"),
        "server.job_queue_s": (sum(m["started_at"] - m["created_at"] for m in jobs), "s"),
        "server.job_run_s": (job_run_s, "s"),
        "server.job_overhead_s": (sum(client_s) - job_run_s if jobs else 0.0, "s"),
        "plans.plan_s": (
            total("plans.requirements") + total("plans.states") + total("plans.generate"),
            "s",
        ),
        "plans.apps_planned": (sum(p.apps_planned for p in passes), "count"),
        "proc.threads_left": (leftovers["threads"], "count"),
        "proc.children_left": (leftovers["children"], "count"),
        "proc.fds_left": (leftovers["fds"], "count"),
        "trace.overhead_s": (traced_campaign_s - untraced_campaign_s, "s"),
        "trace.overhead_ratio": (traced_campaign_s / untraced_campaign_s - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return metrics


# -- the run --------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fds_at_start = _fd_count()
    threads_at_start = _status(os.getpid(), "Threads")
    sys.path.insert(0, str(ROOT / "src"))

    from reference import references
    from tracing import Tracer
    from workloads import WORKLOADS, draw

    workdir = Path(args.workdir)
    apps = draw(args.seed)
    workload = WORKLOADS[args.workload](apps, args.seed, workdir)
    env = workload.open_env()
    print("READY", flush=True)
    if args.setup_only:
        workload.close_env(env)
        workload.shutdown()
        _reap_descendants()
        return 0

    refs = references(workload.apps, args.seed, time_runs=bool(args.trace))
    iterations = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        iterations.append(workload.iteration(env))
        spent = time.perf_counter() - begun
        if time.perf_counter() - started + spent > args.seconds:
            break
        workload.close_env(env)
        env = workload.open_env()
    tracer = None
    if args.trace:
        workload.close_env(env)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.phase = "cold"
            env = workload.open_env(tracer)
            traced = workload.iteration(env, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()
    workload.close_env(env)
    workload.shutdown()
    leftovers = {
        "threads": _status(os.getpid(), "Threads") - threads_at_start,
        "children": len(_descendants(os.getpid())),
        "fds": _fd_count() - fds_at_start,
    }
    _reap_descendants()

    attempted = failed = 0
    problems = []
    for iteration in iterations + ([traced] if tracer is not None else []):
        a, f, p = _check(iteration, refs, workload)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    metrics, lines = _end_to_end(iterations, workload)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    lines.append(f"failed_fraction {failed / max(attempted, 1):.6g} ratio "
                 f"({failed} of {attempted} analyses)")
    if tracer is not None:
        metrics = _per_layer(
            tracer, traced, workload, refs, metrics["campaign_s"][0], leftovers
        )
        self_s = tracer.self_times()
        spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "self_s": self_s,
            "analyses": tracer.analyses,
            "spans": [span.to_dict() for span in tracer.spans],
        }))
        lines.append("self time by layer (s): " + ", ".join(
            f"{layer} {seconds:.4f}" for layer, seconds in sorted(self_s.items())
        ))
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        lines.append("leftovers after teardown: " + ", ".join(
            f"{key} {value}" for key, value in leftovers.items()
        ))
    document = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
        "lines": [f"apps {len(workload.apps)}, iterations {len(iterations)}"] + lines,
        "problems": problems,
    }
    print("RESULT " + json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        code = main()
    except BaseException:  # noqa: BLE001 - report, then stop what the run started
        traceback.print_exc()
        _reap_descendants()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    # Leftover non-daemon threads must not keep a finished run alive;
    # every child process is already reaped.
    os._exit(code)
