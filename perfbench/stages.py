"""Run one iteration of a workload's timed CLI stages in a fresh process.

Usage: python3 perfbench/stages.py PLAN.json RESULT.json

PLAN.json holds ``src`` (directory to import clusterlm from), ``cwd``,
``trace`` (0 or 1), ``run_id``, ``spans`` (where a traced run
writes its spans) and ``stages``, a list of
``[stage name, argv...]``.  Each stage goes through ``clusterlm.cli.main``
exactly as a user's run does; its standard output is captured, and its
start and end are ``time.perf_counter`` readings (a system-wide
monotonic clock), so the parent can match them to the reference
sampler's readings (see ``refclock.py``).  Peak RSS
is read before anything else runs in the process after the last stage,
and the process never ran the workload's set-up, so the figure is the
memory of the timed stages alone (plus the interpreter and imports).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run_stages(cli, stages, tracer=None) -> list[dict]:
    """Run ``[stage name, argv...]`` entries through ``cli.main`` in the
    current directory, stopping at the first failure."""
    done = []
    for name, *argv in stages:
        out = io.StringIO()
        start = time.perf_counter()
        span = contextlib.nullcontext() if tracer is None else tracer.span(f"cli.{name}")
        try:
            with contextlib.redirect_stdout(out), span:
                rc = cli.main(argv)
        except Exception:  # a crash is recorded as a failed stage, not a lost run
            rc = -1
            out.write(traceback.format_exc())
        end = time.perf_counter()
        done.append({"name": name, "rc": rc, "seconds": end - start, "start": start, "end": end,
                     "stdout": out.getvalue()})
        if rc != 0:
            break
    return done


def run(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    import clusterlm.cli as cli

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer(plan["run_id"])
        tracer.instrument()
    os.chdir(plan["cwd"])
    result = {"stages": run_stages(cli, plan["stages"], tracer)}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(peak_rss_mb=usage.ru_maxrss / 1024.0, user_s=usage.ru_utime, sys_s=usage.ru_stime)
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.layers()
        tracer.write(Path(plan["spans"]))
    return result


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = run(plan)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
