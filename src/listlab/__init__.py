"""Self-organizing sequential search laboratory.

Four list-accessing engines (move-to-front, transpose, frequency count, and
a batched-lookahead frequency-count variant) over a shared list-state core,
with corpus preprocessing, synthetic workload generators, brute-force
oracles for small instances, and CSV / SVG comparison reporting.
"""

from .algorithms import (
    AlgorithmKind,
    RunReport,
    UnsortedCounters,
    VfcPolicy,
    run_algorithm,
)
from .chart import EmptyReport, render_bar_chart
from .corpus import (
    DEFAULT_STRIP_BYTES,
    CorpusText,
    EmptyAfterPreprocessing,
    EmptyAlphabet,
    EmptySequence,
    ListOrderPolicy,
    RunLengths,
    Uniform,
    Zipf,
    derive_list,
    generate_sequence,
    load_file,
    preprocess,
)
from .listcore import (
    CostModel,
    InvalidListState,
    ListLabError,
    ListState,
    RequestSequence,
    StepRecord,
    Symbol,
    SymbolNotInList,
)
from .oracle import (
    BoundsExceeded,
    SmallInstance,
    VerificationReport,
    enumerate_instances,
    naive_fc_cost,
    naive_fc_step_costs,
    opt_free_exchange_cost,
    verify_engines,
)
from .report import ComparisonRow, format_table, rows_from_csv, rows_to_csv

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "BoundsExceeded",
    "ComparisonRow",
    "CorpusText",
    "CostModel",
    "DEFAULT_STRIP_BYTES",
    "EmptyAfterPreprocessing",
    "EmptyAlphabet",
    "EmptyReport",
    "EmptySequence",
    "InvalidListState",
    "ListLabError",
    "ListOrderPolicy",
    "ListState",
    "RequestSequence",
    "RunLengths",
    "RunReport",
    "SmallInstance",
    "StepRecord",
    "Symbol",
    "SymbolNotInList",
    "Uniform",
    "UnsortedCounters",
    "VerificationReport",
    "VfcPolicy",
    "Zipf",
    "derive_list",
    "enumerate_instances",
    "format_table",
    "generate_sequence",
    "load_file",
    "naive_fc_cost",
    "naive_fc_step_costs",
    "opt_free_exchange_cost",
    "preprocess",
    "render_bar_chart",
    "rows_from_csv",
    "rows_to_csv",
    "run_algorithm",
    "verify_engines",
]
