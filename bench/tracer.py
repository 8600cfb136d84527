"""Run one rankaudit CLI stage with spans around the public layer functions.

Usage: python3 tracer.py SPANS_JSON STAGE CLI_ARG...

This is the only benchmark file that imports rankaudit, and it runs only
inside a traced child process.  It imports ``rankaudit.cli``, replaces every
binding of each traced function (in the defining module and in every
rankaudit module that imported it by name) with a wrapper, runs
``cli.main``, and writes the spans and counts to SPANS_JSON.  A traced
function that no longer exists is listed as absent.  The exit status is the
stage's own.
"""
from __future__ import annotations

import json
import os
import sys
import time

# (module, function) pairs; each becomes a span named "module.function".
TRACED = (
    ("dataio", "load_dataset"),
    ("dataio", "write_long_table"),
    ("dataio", "curve_rows"),
    ("dataio", "churn_rows"),
    ("dataio", "write_snapshots"),
    ("dataio", "write_ledger"),
    ("dataio", "write_protocol_table"),
    ("dataio", "filter_queries"),
    ("dataio", "export_heatmap"),
    ("names", "load_name_table"),
    ("names", "label_dataset"),
    ("model", "observed_proportions"),
    ("exposure", "deviation_curve"),
    ("exposure", "skew_curve"),
    ("exposure", "minskew_curve"),
    ("exposure", "corrected_skew_curve"),
    ("churn", "churn_grid"),
    ("detgreedy", "detgreedy_rerank"),
    ("simulate", "generate"),
    ("mixedlm", "minskew_protocol"),
    ("mixedlm", "churn_protocol"),
    ("mixedlm", "fit_random_intercept"),
    ("parallel", "ordered_map"),
)

# Spans whose time belongs to their callers when self time is computed.
TRANSPARENT = ("parallel.ordered_map", "parallel.ordered_map.task")


def _stream_size(stream) -> int | None:
    try:
        stream.flush()
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return None


def _size_counter(position: int):
    """Bytes a writer wrote to its destination argument (a path, which it
    truncates, or an open stream, measured before and after)."""
    def before(args, kwargs):
        dest = args[position]
        return 0 if isinstance(dest, (str, os.PathLike)) else _stream_size(dest)

    def after(args, kwargs, result, start):
        dest = args[position]
        end = os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else _stream_size(dest)
        return {"bytes": end - start} if start is not None and end is not None else {}
    return before, after


def _counts(name: str):
    """(before, after) hooks giving the counts recorded for one call."""
    none = (lambda args, kwargs: None)
    if name == "dataio.load_dataset":
        def after(args, kwargs, result, _):
            series, report = result
            kept = sum(len(s.entries) for one in series for s in one.snapshots.values())
            return {"rows": report.n_rows, "kept_rows": kept}
        return none, after
    if name == "dataio.write_long_table":
        before, sized = _size_counter(2)
        return before, lambda a, k, r, s: {"rows": len(a[0]), **sized(a, k, r, s)}
    if name in ("dataio.write_snapshots", "dataio.write_ledger"):
        return _size_counter(1)
    if name == "dataio.filter_queries":
        return none, lambda a, k, r, s: {"kept": len(r[0]), "seen": len(r[1])}
    if name == "names.label_dataset":
        return none, lambda a, k, r, s: {"records": r[1].total, "resolved": r[1].resolved}
    if name.startswith("exposure.") and name.endswith("_curve"):
        return none, lambda a, k, r, s: {"cells": len(r.values),
                                         "defined": sum(v is not None for v in r.values.values())}
    if name == "churn.churn_grid":
        return none, lambda a, k, r, s: {"cells": len(r), "defined": sum(c.churn is not None for c in r)}
    if name == "detgreedy.detgreedy_rerank":
        return none, lambda a, k, r, s: {"candidates": len(a[0]), "infeasible": int(not r.feasible)}
    if name == "simulate.generate":
        return none, lambda a, k, r, s: {"queries": len(r.series)}
    if name == "mixedlm.fit_random_intercept":
        return none, lambda a, k, r, s: {"converged": int(r.converged)}
    return none, lambda a, k, r, s: {}


class Tracer:
    """Spans kept in memory as [id, name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: set[str] = set()

    def span(self, name: str, fn, args, kwargs, before=None, after=None):
        sid = len(self.spans)
        record = [sid, name, 0.0, 0.0, self.stack[-1] if self.stack else None, {}]
        self.spans.append(record)
        self.stack.append(sid)
        self.active.add(name)
        state = before(args, kwargs) if before else None
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()
            self.active.discard(name)
        if after:
            record[5] = after(args, kwargs, result, state)
        return result

    def wrap(self, name: str, fn):
        before, after = _counts(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if name in tracer.active:
                # Writers re-enter themselves once with an opened handle.
                return fn(*args, **kwargs)
            if name == "parallel.ordered_map":
                task_fn = args[0]
                args = (lambda item: tracer.span("parallel.ordered_map.task", task_fn, (item,), {}),) + args[1:]
            return tracer.span(name, fn, args, kwargs, before, after)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding of each traced function; return the absent ones."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rankaudit" or n.startswith("rankaudit.")]
        absent = []
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"rankaudit.{module_name}")
            original = getattr(module, func_name, None) if module is not None else None
            if original is None:
                absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return absent


def main() -> int:
    spans_path, stage, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import rankaudit.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    absent = tracer.install()
    code = 1
    try:
        code = tracer.span(f"cli.{stage}", cli.main, (argv,), {})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"stage": stage, "run_id": f"{stage}-{os.getpid()}", "import_s": import_s,
                       "absent": absent, "transparent": list(TRANSPARENT), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
