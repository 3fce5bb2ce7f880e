"""Campaign benchmark for the Loupe reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see ``BENCHMARK.json`` for
why each was chosen):

* ``corpus-serial`` — the 15 cloud apps plus 85 synthetic apps drawn by
  the seed, analyzed one after another on the serial executor, then the
  unikraft support plan;
* ``corpus-process-sqlite`` — the same apps on the process executor
  (``parallel`` = nproc) into a fresh SQLite store, then again warm from
  that store;
* ``fleet-service`` — 8 of the drawn apps, each a campaign-server job on
  the remote executor with two ``loupe worker`` processes and the
  server's HTTP run cache, cold then warm.

Set-up is timed three times, in fresh processes, and reported as the
median. The measuring process repeats iterations for ``--seconds``
(at least one) and checks every report against a serial, store-less
reference analysis of the same app. Every metric is printed with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of one traced iteration with ``--trace 1``. The
exit code is 1 when any report, plan or warm pass is wrong, and 2 when
the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-serial", "corpus-process-sqlite", "fleet-service")
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: Everything a run does must end well inside the 180 s it is allowed.
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def _start(args, workdir: Path, *, setup_only: bool) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "campaign.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )


def _measure(args, deadline: float, *, setup_only: bool) -> tuple[float, "dict | None"]:
    """Start one measuring process; return its set-up time and, unless
    *setup_only*, its result document."""
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    process = _start(args, workdir, setup_only=setup_only)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), process.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0 or setup_s is None:
        raise RunFailed(f"measuring process exited with code {process.returncode}")
    if not setup_only and result is None:
        raise RunFailed("measuring process printed no result")
    return setup_s, result


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Loupe campaign benchmark (see the module docstring)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no Loupe sources under {ROOT / 'src'}; run it "
              f"from the root of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(f"workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    try:
        # A traced run reports no set-up time, so it measures set-up once.
        setups = [
            _measure(args, deadline, setup_only=True)[0]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        setup_s, result = _measure(args, deadline, setup_only=False)
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    setups.append(setup_s)

    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in result["lines"]:
        print(line)
    print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]['value']} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
