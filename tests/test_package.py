import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import listlab
from listlab import (
    ComparisonRow,
    CorpusText,
    CostModel,
    ListState,
    RunLengths,
    RunReport,
    SmallInstance,
    StepRecord,
    Uniform,
    VerificationReport,
    Zipf,
)
from listlab.oracle import CheckResult


def test_every_exported_name_resolves():
    missing = [name for name in listlab.__all__ if not hasattr(listlab, name)]
    assert missing == []
    assert len(set(listlab.__all__)) == len(listlab.__all__)


def test_verifier_and_engine_errors_are_exported():
    assert {"verify_engines", "UnsortedCounters"} <= set(listlab.__all__)


def test_all_lists_exactly_the_public_names():
    # dir, not vars: the package binds a name only once it is first used
    public = {
        name
        for name in dir(listlab)
        if not name.startswith("_") and not isinstance(getattr(listlab, name), types.ModuleType)
    }
    assert set(listlab.__all__) == public


SRC = Path(__file__).resolve().parent.parent / "src"
# what the package used to pull in through xml.sax and dataclasses, and the enumeration through heapq
HEAVY_IMPORTS = {"xml", "urllib", "http", "email", "ssl", "socket", "dataclasses", "inspect", "heapq"}


def fresh_imports(statement: str) -> list[str]:
    """The modules ``statement`` adds to ``sys.modules`` in a fresh interpreter; before and
    after are read in one process, as site's preloads vary by machine."""
    code = f"import sys; before = set(sys.modules); {statement}; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split()


def test_import_loads_none_of_the_heavy_stdlib_modules():
    added = fresh_imports("import listlab")
    assert [name for name in added if name.startswith("listlab")] == ["listlab"]  # and none of its submodules
    assert [name for name in added if name.split(".")[0] in HEAVY_IMPORTS] == []


@pytest.mark.parametrize("statement,loaded", [
    ("from listlab import run_algorithm", ["listlab.algorithms", "listlab.listcore"]),
    ("import listlab; listlab.oracle.verify_engines", ["listlab.algorithms", "listlab.listcore", "listlab.oracle"]),
    ("from listlab import *; import listlab; assert all(name in globals() for name in listlab.__all__)",
     ["listlab.algorithms", "listlab.chart", "listlab.corpus", "listlab.listcore", "listlab.oracle",
      "listlab.report"]),
])
def test_import_loads_only_the_submodules_a_name_needs(statement, loaded):
    assert [name for name in fresh_imports(statement) if name.startswith("listlab.")] == loaded


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        listlab.nope
    assert not hasattr(listlab, "nope")


# (class, required args only, the repr they give, which pins every default, args with one field changed or None,
#  frozen, slotted)
RECORDS = [
    pytest.param(
        ListState, ([1, 2], {1: 0, 2: 0}), "ListState(order=[1, 2], freq={1: 0, 2: 0})",
        ([2, 1], {1: 0, 2: 0}), False, False, id="ListState",
    ),
    pytest.param(
        StepRecord, (3, 2, 2),
        "StepRecord(request=3, position_before=2, cost_charged=2, requests_consumed=1, list_after=None, "
        "freq_after=None)",
        (3, 2, 1), False, True, id="StepRecord",
    ),
    pytest.param(
        RunReport, ("fc", 4, [], ListState([1], {1: 2})),
        "RunReport(label='fc', total_cost=4, steps=[], final_state=ListState(order=[1], freq={1: 2}))",
        ("fc", 5, [], ListState([1], {1: 2})), False, False, id="RunReport",
    ),
    pytest.param(
        CorpusText, (b"ab",), "CorpusText(data=b'ab', source_name='')", (b"ab", "x"), False, False, id="CorpusText",
    ),
    pytest.param(Uniform, (), "Uniform()", None, True, False, id="Uniform"),
    pytest.param(Zipf, (), "Zipf(exponent=1.0)", (1.5,), True, False, id="Zipf"),
    pytest.param(RunLengths, (), "RunLengths(mean_run=4.0)", (2.0,), True, False, id="RunLengths"),
    pytest.param(
        SmallInstance, ((1, 2), [2]), "SmallInstance(order=(1, 2), sequence=(2,), model=<CostModel.FULL: 'full'>)",
        ((1, 2), [2], "partial"), True, False, id="SmallInstance",
    ),
    pytest.param(
        CheckResult, ("opt", 3, []), "CheckResult(name='opt', instances=3, failures=[])",
        ("opt", 3, ["x"]), False, False, id="CheckResult",
    ),
    pytest.param(
        VerificationReport, ([CheckResult("opt", 3, [])], 3),
        "VerificationReport(checks=[CheckResult(name='opt', instances=3, failures=[])], instances=3)",
        ([], 3), False, False, id="VerificationReport",
    ),
    pytest.param(
        ComparisonRow, ("a", 1, 2, CostModel.FULL, {"fc": 3}),
        "ComparisonRow(file='a', n=1, list_size=2, cost_model=<CostModel.FULL: 'full'>, costs={'fc': 3})",
        ("a", 1, 2, CostModel.PARTIAL, {"fc": 3}), False, False, id="ComparisonRow",
    ),
]


@pytest.mark.parametrize("cls,args,text,changed,frozen,slotted", RECORDS)
def test_record_semantics(cls, args, text, changed, frozen, slotted):
    record = cls(*args)
    assert repr(record) == text
    assert record == cls(*args) and not record != cls(*args)
    assert record != object()
    if changed is not None:
        assert record != cls(*changed)
    assert hasattr(record, "__dict__") is not slotted
    name = (re.findall(r"\((\w+)=", text) or ["extra"])[0]
    if frozen:
        assert hash(record) == hash(cls(*args))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert repr(record) == text
    else:
        with pytest.raises(TypeError):
            hash(record)

