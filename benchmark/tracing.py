"""In-memory spans recorded around calls into listlab's modules.

A span is (name, start, end, parent index). Spans are opened and closed by
wrappers that the benchmark installs over the names ``listlab.cli`` and
``listlab.oracle`` look up at call time, so nothing inside the package is
edited: the wrapped call is the same public function, timed from outside.
A span's self time is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
"""

import contextlib
import gzip
import json
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}  # items produced under a span name

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.names[index]!r} closed while {self.names[top]!r} was open")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self, first: int = 0, stop: int | None = None) -> list[float]:
        """Self time of every span in ``[first, stop)``; the range must hold
        whole subtrees (a root span and everything recorded under it)."""
        stop = len(self.names) if stop is None else stop
        own = [self.ends[i] - self.starts[i] for i in range(first, stop)]
        for i in range(first, stop):
            parent = self.parents[i]
            if parent != NO_PARENT:
                own[parent - first] -= self.ends[i] - self.starts[i]
        return own

    def self_by_name(self, first: int = 0, stop: int | None = None) -> dict[str, float]:
        totals: dict[str, float] = {}
        for offset, value in enumerate(self.self_times(first, stop)):
            name = self.names[first + offset]
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent (-1 for a root)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                out.write(json.dumps(row) + "\n")


def wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def _wrap_engine_run(tracer: Tracer, template: str, fn):
    """run_algorithm, with the engine label filled into the span name."""

    def traced(kind, *args, **kwargs):
        # run_algorithm(kind, state, sequence, model, policy, ...)
        policy = args[3] if len(args) > 3 else kwargs.get("policy")
        label = engine_label(kind.value, policy.value if policy is not None else "literal")
        index = tracer.begin(template.format(label))
        try:
            return fn(kind, *args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def _wrap_iterator(tracer: Tracer, name: str, fn):
    """A call returning an iterator: each item's production is one span."""

    def items(iterator):
        while True:
            index = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            yield item

    def traced(*args, **kwargs):
        # call eagerly, so argument errors still surface at the call
        return items(iter(fn(*args, **kwargs)))

    return traced


def engine_label(kind: str, policy: str) -> str:
    """``mtf``, ``trans``, ``fc``, ``vfc-literal`` or ``vfc-strict``."""
    return f"vfc-{policy}" if kind == "vfc" else kind


# (module, attribute, span name, wrapper kind). "engine" spans are named per
# engine; "oracle.reruns" gathers verify's five engine reruns per instance,
# which the layer split counts as one oracle-side cost.
INSTRUMENTED = (
    ("cli", "load_file", "corpus.load_file", "call"),
    ("cli", "preprocess", "corpus.preprocess", "call"),
    ("cli", "derive_list", "corpus.derive_list", "call"),
    ("cli", "run_algorithm", "algorithms.{}.run", "engine"),
    ("cli", "format_table", "report.format_table", "call"),
    ("cli", "rows_to_csv", "report.rows_to_csv", "call"),
    ("cli", "render_bar_chart", "chart.render_bar_chart", "call"),
    ("cli", "verify_engines", "oracle.verify_engines", "call"),
    ("oracle", "enumerate_instances", "oracle.enumerate", "iterator"),
    ("oracle", "naive_fc_cost", "oracle.naive_fc", "call"),
    ("oracle", "opt_free_exchange_cost", "oracle.opt", "call"),
    ("oracle", "run_algorithm", "oracle.reruns", "call"),
)

_WRAPPERS = {"call": wrap, "engine": _wrap_engine_run, "iterator": _wrap_iterator}


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Install span wrappers over the instrumented names for the duration of
    the block. Names a module no longer has are skipped and reported in the
    yielded list, so the layer shows up as idle rather than crashing."""
    saved = []
    missing = []
    try:
        for module_key, attribute, name, kind in INSTRUMENTED:
            module = modules[module_key]
            if not hasattr(module, attribute):
                missing.append(f"{module_key}.{attribute}")
                continue
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, _WRAPPERS[kind](tracer, name, original))
        yield missing
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
