"""Self-organizing sequential search laboratory.

Four list-accessing engines (move-to-front, transpose, frequency count, and
a batched-lookahead frequency-count variant) over a shared list-state core,
with corpus preprocessing, synthetic workload generators, brute-force
oracles for small instances, and CSV / SVG comparison reporting.

``import listlab`` loads none of the submodules. Each exported name is
loaded on first use, from the module ``_EXPORTS`` gives for it, and then
bound here; a submodule name (``listlab.oracle``) loads that module. Without
a bytecode cache every module imported is compiled from source, while a
caller of ``run_algorithm`` needs only ``algorithms`` and ``listcore``.
``listlab.cli`` still imports every module at its top: the benchmark
replaces the functions it calls by setting them on ``listlab.cli``, so each
must be one of its globals.
"""

import importlib

__version__ = "0.1.0"

# per submodule, the names the package exports from it (none from cli)
_EXPORTS = {
    "algorithms": ("AlgorithmKind", "RunReport", "UnsortedCounters", "VfcPolicy", "run_algorithm"),
    "chart": ("EmptyReport", "render_bar_chart"),
    "cli": (),
    "corpus": ("DEFAULT_STRIP_BYTES", "CorpusText", "EmptyAfterPreprocessing", "EmptyAlphabet", "EmptySequence",
               "ListOrderPolicy", "RunLengths", "Uniform", "Zipf", "derive_list", "generate_sequence", "load_file",
               "preprocess"),
    "listcore": ("CostModel", "InvalidListState", "ListLabError", "ListState", "RequestSequence", "StepRecord",
                 "Symbol", "SymbolNotInList"),
    "oracle": ("BoundsExceeded", "SmallInstance", "VerificationReport", "enumerate_instances", "naive_fc_cost",
               "naive_fc_step_costs", "opt_free_exchange_cost", "verify_engines"),
    "report": ("ComparisonRow", "format_table", "rows_from_csv", "rows_to_csv"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Load an exported name or a submodule on first use (see the module docstring)."""
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
