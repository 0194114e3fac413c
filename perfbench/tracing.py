"""Span tracing of bildsim's public functions, installed from outside.

The program is not instrumented. ``Tracer.install`` wraps every public
function of the traced modules and rebinds the wrapper in every bildsim
namespace that binds the original (``acceptance`` imports integrators by
name, so patching ``bildsim.brownian`` alone would miss its calls). Spans
are kept in memory, in flat lists so that they add no objects for the
garbage collector to scan, and written out once the session ends. A
function's self time is its span minus the spans of its children.

Counters record work done at the same boundaries. They depend only on the
inputs, so they repeat exactly for a fixed workload seed.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np

TRACED_MODULES = ("fields", "chsh", "linalg", "brownian", "runio", "acceptance", "cli")


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_sample_fields(tracer, a, result):
    tracer.counts["fields.samples"] += int(a["n"])
    tracer.counts["fields.sample_bytes"] += result.nbytes


def _count_hv_sample(tracer, a, result):
    tracer.counts["chsh.records"] += int(a["n"])


def _count_integrate(tracer, a, result):
    config = a["config"]
    tracer.counts["brownian.traj_steps"] += config.n_trajectories * int(round(config.t_end / config.dt))
    tracer.counts["brownian.stored_bytes"] += result.x.nbytes + (result.p.nbytes if result.p is not None else 0)


def _count_kde(tracer, a, result):
    tracer.counts["brownian.kde_pairs"] += np.size(a["samples"]) * result.size


# these files record wall-clock seconds, so their length varies run to run
TIMED_FILES = ("manifest.json", "acceptance.json")


def _count_write(tracer, a, result):
    tracer.counts["runio.files_written"] += 1
    if os.path.basename(a["path"]) not in TIMED_FILES:
        tracer.counts["runio.bytes_written"] += len(a["data"])


def _count_load(tracer, a, result):
    tracer.counts["runio.bytes_read"] += os.path.getsize(a["path"])


def _record_criteria(tracer, a, result):
    for res in result:
        tracer.criteria[res.number] = res.seconds


COUNTERS = {
    "fields.sample_fields": _count_sample_fields,
    "chsh.hv_sample": _count_hv_sample,
    "brownian.integrate_overdamped": _count_integrate,
    "brownian.integrate_underdamped": _count_integrate,
    "brownian.log_density_gradient": _count_kde,
    "runio.write_atomic": _count_write,
    "runio.load_trajectories": _count_load,
    "acceptance.run_all": _record_criteria,
}

COUNT_UNITS = {
    "fields.samples": "count",
    "fields.sample_bytes": "B",
    "chsh.records": "count",
    "brownian.traj_steps": "count",
    "brownian.stored_bytes": "B",
    "brownian.kde_pairs": "count",
    "runio.bytes_written": "B",
    "runio.files_written": "count",
    "runio.bytes_read": "B",
}


class Tracer:
    def __init__(self):
        # span i: names[i], parents[i] (index, -1 at top level), starts[i], ends[i]
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.criteria = {}  # criterion number -> CriterionResult.seconds
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(self, _args(fn, args, kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "bildsim" or n.startswith("bildsim.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"bildsim.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def per_function(self) -> dict:
        """{name: [calls, total seconds, self seconds]} over all spans."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        stats = {}
        for name, d, c in zip(self.names, durations, child):
            s = stats.setdefault(name, [0, 0, 0])
            s[0] += 1
            s[1] += d
            s[2] += d - c
        return {k: [c, t * 1e-9, st * 1e-9] for k, (c, t, st) in stats.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, span in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                fh.write(f"{i},{span[0]},{span[1]},{span[2]},{span[3]}\n")
