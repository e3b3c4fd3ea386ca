"""Regenerate the stored reference reports that default-seed runs are gated on.

    python3 bench/make_reference.py [WORKLOAD ...]

Writes ``reference/<workload>.json``: the argv and report (metadata lines
dropped) of the first ``pass_jobs`` jobs of each workload at
``run.DEFAULT_SEED``.  Regenerate only when a change is meant to alter
report contents, and say so in the change.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import gate
import run
from workloads import WORKLOADS


def main(names) -> int:
    cli = run.import_cli()
    run.REFERENCE.mkdir(exist_ok=True)
    home = os.getcwd()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        runner = run.Runner(cli)
        jobs = []
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                for index in range(workload.pass_jobs):
                    job = workload.job(run.DEFAULT_SEED, index)
                    text = runner.run(job).report or ""
                    report = "".join(line for line in text.splitlines(keepends=True)
                                     if not line.startswith(gate.METADATA))
                    jobs.append({"argv": list(job.argv), "report": report})
            finally:
                os.chdir(home)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        path = run.REFERENCE / f"{name}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "jobs": jobs}, indent=1) + "\n")
        print(f"wrote {path} ({len(jobs)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
