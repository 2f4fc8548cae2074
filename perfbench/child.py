"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py JOB.json SPAWN``, where ``SPAWN`` is
the parent's ``time.monotonic()`` just before it started the child.  The job file names the
source directory to import ``rqmc`` from, the CLI argument lists to run
(already carrying ``--seed`` and ``--out``), whether to trace, and where to
write the result.  The child

1. imports ``rqmc.cli``, loads the direction-number table and parses every
   argument list with ``rqmc.cli.build_parser()``; the moment this is done
   is "ready", and ``ready - spawn`` is the set-up time;
2. optionally wraps each layer's public functions (see ``Tracer``);
3. calls ``rqmc.cli.main(argv)`` once per argument list, in order;
4. writes wall time, CPU time, peak RSS, exit codes and spans as JSON.

Only the standard library is imported before ``rqmc``, so the set-up time
is what a command-line user pays on every call.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback

# Public functions of each layer that the traced run wraps.  Every
# ``rqmc.*`` module attribute bound to one of them is replaced, so a call
# site that imported the function by name is traced as well.
LAYERS = {
    "rqmc.cli": ("main",),
    "rqmc.experiment": (
        "run_study",
        "replicate_estimates",
        "fit_rate",
        "report_to_json",
        "report_to_csv",
    ),
    "rqmc.scrambling": ("scramble", "uniform_points"),
    "rqmc.digital_nets": ("generate_points",),
    "rqmc.finance": ("generate_path", "payoff_eval", "path_factor"),
}


def _work(name: str, result) -> int:
    """Units of work a call produced: coordinates, points or replicates."""
    if result is None:
        return 0
    if name == "scrambling.scramble":
        return int(result.ints.size)
    if name == "digital_nets.generate_points":
        return int(result.n)
    if name in ("scrambling.uniform_points", "experiment.replicate_estimates"):
        return int(result.size)
    if name in ("finance.generate_path", "finance.payoff_eval"):
        return int(result.shape[0]) if getattr(result, "ndim", 0) else 1
    return 0


class Tracer:
    """Records a span per call of each wrapped layer function.

    A span is ``(name, start, end, parent, op, work, cpu_s)``: the parent
    is the index of the enclosing span (-1 at the top), ``op`` the index of
    the CLI call it belongs to.  Spans stay in memory until the child
    writes its result.
    """

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            c0, t0 = cpu_clock(), clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1, c1 = clock(), cpu_clock()
                stack.pop()
                spans[idx] = (
                    name, t0, t1, parent, self.op, _work(name, result), c1 - c0
                )

        return wrapper

    def _rqmc_modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rqmc" or name.startswith("rqmc."))
        ]

    def install(self) -> None:
        # Keyed by id: module attributes include unhashable objects.
        wrappers = {}
        for modname, fnames in LAYERS.items():
            mod = sys.modules[modname]
            for fname in fnames:
                fn = getattr(mod, fname)
                span_name = f"{modname.removeprefix('rqmc.')}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        self._wrappers = {id(w): w for _, w in wrappers.values()}
        for mod in self._rqmc_modules():
            for attr, val in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(val), (None, None))
                if fn is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when no wrapper is left."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return not any(
            id(val) in self._wrappers
            for mod in self._rqmc_modules()
            for val in vars(mod).values()
        )


def main(job_path: str, spawn: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import rqmc.cli
    from rqmc.digital_nets import load_direction_numbers

    load_direction_numbers()
    parser = rqmc.cli.build_parser()
    for argv in job["ops"]:
        parser.parse_args(argv)
    ready = time.monotonic()

    result: dict = {"setup_s": ready - spawn, "ops": []}
    tracer = Tracer()
    if job["trace"]:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    for i, argv in enumerate(job["ops"]):
        tracer.op = i
        code, error = None, None
        try:
            code = rqmc.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        result["ops"].append({"code": code, "error": error})
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["unwrapped"] = tracer.uninstall()
    result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
