"""Reference outputs: what a serial, store-less analysis concludes.

Every report a workload produces is compared with the digest of a
serial analysis of the same app without any persistent store, and
every support plan with the plan built from those analyses. For the
default seed the digests come from ``reference-seed-1.json``, committed
beside this file, so a change to the serial verdicts themselves fails
the benchmark too. For any other seed they are computed in the run,
outside the timed passes.

Run this file to rewrite the committed record after a deliberate
change of the reports:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

DEFAULT_SEED = 1
RECORD = Path(__file__).resolve().parent / f"reference-seed-{DEFAULT_SEED}.json"


def compute(apps, *, time_runs: bool = False) -> dict:
    """Digests of serial, store-less analyses of *apps* and of their
    support plan (when *apps* hold the cloud apps it needs). With
    *time_runs*, also each app's mean backend run time, the input of
    the paper's run-time model."""
    from repro.appsim.corpus import CLOUD_APPS
    from repro.core.analyzer import Analyzer

    from tracing import TimedBackend, Tracer
    from workloads import SERIAL, WORKLOAD, plan_digest, report_digest, support_plan

    reports, results, mean_run_s = {}, [], {}
    for app in apps:
        tracer = Tracer()
        backend = app.backend()
        if time_runs:
            backend = TimedBackend(backend, tracer)
        with Analyzer(SERIAL) as analyzer:
            result = analyzer.analyze(
                backend, app.workload(WORKLOAD),
                app=app.name, app_version=app.version,
            )
        reports[app.name] = report_digest(result)
        results.append(result)
        if time_runs:
            mean_run_s[app.name] = statistics.fmean(
                span.duration for span in tracer.spans
            )
    plan = None
    if set(CLOUD_APPS) <= set(reports):
        plan = plan_digest(support_plan(results))
    return {"reports": reports, "plan": plan, "mean_run_s": mean_run_s}


def references(apps, seed: int, *, time_runs: bool = False) -> dict:
    """The references for *apps*: the committed record for the default
    seed (run times still measured when asked for), computed otherwise."""
    if seed == DEFAULT_SEED and RECORD.exists():
        record = json.loads(RECORD.read_text())
        if time_runs:
            record["mean_run_s"] = compute(apps, time_runs=True)["mean_run_s"]
        return record
    return compute(apps, time_runs=time_runs)


def main() -> int:
    from workloads import draw

    record = compute(draw(DEFAULT_SEED))
    del record["mean_run_s"]
    record = {"seed": DEFAULT_SEED, **record}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
