#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes, in well under a minute.

    python3 perfbench/smoke.py

For every workload it checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, with
  tracing off and on, and no call fails at the default seed;
* a traced run leaves every ``rqmc`` function unwrapped;
* a corrupted report is counted as a failed call.

It also traces one call in this process to check that the wrappers reach
call sites that imported a function by name (``rqmc.experiment.scramble``)
and that every module attribute is the original object afterwards.
"""

from __future__ import annotations

import json
import os
import sys

import run
from child import Tracer


def _check_tracer_in_process(failures: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    import rqmc.cli
    import rqmc.experiment
    import rqmc.scrambling

    def snapshot():
        return {
            (name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "rqmc" or name.startswith("rqmc.")
            for attr, val in vars(mod).items()
        }

    before = snapshot()
    original = rqmc.scrambling.scramble
    tracer = Tracer()
    tracer.install()
    try:
        if getattr(rqmc.experiment.scramble, "__wrapped__", None) is not original:
            failures.append("rqmc.experiment.scramble was not wrapped")
        rqmc.cli.main(["points", "-m", "3", "-d", "2", "--scramble", "--out", os.devnull])
    finally:
        unwrapped = tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    if not {"cli.main", "scrambling.scramble", "digital_nets.generate_points"} <= names:
        failures.append(f"in-process trace missed a layer: {sorted(names)}")
    after = snapshot()
    if not unwrapped or any(after.get(k) is not v for k, v in before.items()):
        failures.append("an rqmc attribute differs from the original after uninstall")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    _check_tracer_in_process(failures)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            out = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, size="tiny")
            res = out["result"]
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{workload} trace={trace}: metrics {got} != {want[trace]}")
            if not res["correct"] or res["failed"]:
                failures.append(f"{workload} trace={trace}: {res['failed']} calls failed")
            if not all(r["unwrapped"] for r in out["reps"]):
                failures.append(f"{workload}: a function stayed wrapped")
            if trace != any(r["traced"] for r in out["reps"]):
                failures.append(f"{workload} trace={trace}: wrong repetitions traced")
        print(f"smoke: {workload}: one corrupted report, one failure expected", flush=True)
        res = run.run_workload(
            workload, run.DEFAULT_SEED, 0, False, size="tiny", corrupt_first=True
        )["result"]
        if res["failed"] != 1 or res["correct"]:
            failures.append(f"{workload}: corrupted report counted {res['failed']} failures")
        print(f"smoke: {workload} done", flush=True)
    for failure in failures:
        print(f"smoke: FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
