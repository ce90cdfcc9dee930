from bisect import bisect_right
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import listlab.algorithms
import listlab.oracle
from listlab import (
    AlgorithmKind,
    BoundsExceeded,
    CostModel,
    ListLabError,
    ListState,
    SmallInstance,
    SymbolNotInList,
    VfcPolicy,
    enumerate_instances,
    naive_fc_cost,
    naive_fc_step_costs,
    opt_free_exchange_cost,
    run_algorithm,
    verify_engines,
)

FULL = CostModel.FULL


class TestNaiveFc:
    def test_interleaved_reference_instance(self):
        inst = SmallInstance((1, 2, 3), (1, 2, 2, 3, 2, 3))
        assert naive_fc_step_costs(inst) == [1, 2, 2, 3, 1, 3]
        assert naive_fc_cost(inst) == 12

    def test_singleton(self):
        assert naive_fc_cost(SmallInstance((1,), (1, 1))) == 2

    def test_promotion_after_second_access(self):
        assert naive_fc_cost(SmallInstance((1, 2), (2, 2))) == 3

    def test_partial_model(self):
        inst = SmallInstance((1, 2), (2, 2), CostModel.PARTIAL)
        assert naive_fc_step_costs(inst) == [1, 0]

    def test_absent_symbol(self):
        with pytest.raises(SymbolNotInList):
            naive_fc_cost(SmallInstance((1, 2), (3,)))

    def test_repeated_evaluation_is_identical(self):
        inst = SmallInstance((1, 2, 3), (3, 1, 3, 2, 3, 1))
        assert naive_fc_cost(inst) == naive_fc_cost(inst)


class TestOptFreeExchange:
    def test_head_requests_cost_one_each(self):
        assert opt_free_exchange_cost(SmallInstance((1, 2, 3), (1, 1, 1))) == 3

    def test_moves_to_front_pay_off(self):
        assert opt_free_exchange_cost(SmallInstance((1, 2), (2, 2, 2))) == 4

    def test_worked_instance_upper_bounded_by_batched_engine(self):
        opt = opt_free_exchange_cost(SmallInstance((1, 2, 3), (1, 2, 2, 3, 3, 3)))
        assert opt <= 9

    def test_empty_sequence(self):
        assert opt_free_exchange_cost(SmallInstance((1, 2), ())) == 0

    def test_repeated_evaluation_is_identical(self):
        inst = SmallInstance((1, 2, 3), (3, 2, 1, 2, 3))
        assert opt_free_exchange_cost(inst) == opt_free_exchange_cost(inst)

    @pytest.mark.parametrize("model", list(CostModel))
    def test_matches_plain_search_over_every_strategy(self, model):
        instances = list(enumerate_instances(3, 5, model))
        assert len(instances) == 364
        for inst in instances:
            expected = plain_search_opt(inst.order, inst.sequence, model)
            assert opt_free_exchange_cost(inst) == expected, inst


def plain_search_opt(order, sequence, model):
    """Reference optimum: try every free-exchange strategy, with no memo.
    Serve the first request at its position, reinsert it at any index up to
    its old one, and recurse on the rest of the sequence."""
    if not sequence:
        return 0
    request, rest = sequence[0], sequence[1:]
    i = order.index(request)
    cost = i + 1 if model is CostModel.FULL else i
    others = order[:i] + order[i + 1 :]
    return cost + min(
        plain_search_opt(others[:to] + (request,) + others[to:], rest, model) for to in range(i + 1)
    )


@pytest.mark.parametrize("oracle", [opt_free_exchange_cost, naive_fc_cost])
@pytest.mark.parametrize("sequence,index", [((3, 1), 0), ((1, 2, 1, 3, 2), 3)])
def test_absent_request_names_its_index(oracle, sequence, index):
    with pytest.raises(SymbolNotInList) as info:
        oracle(SmallInstance((1, 2), sequence))
    assert info.value.symbol == 3
    assert info.value.request_index == index


class TestBounds:
    def test_instance_list_too_large(self):
        with pytest.raises(BoundsExceeded):
            SmallInstance(tuple(range(1, listlab.oracle.MAX_ENUM_LIST + 2)), ())

    def test_instance_sequence_too_long(self):
        for n in (listlab.oracle.MAX_ENUM_SEQ + 1, 11):
            with pytest.raises(BoundsExceeded):
                SmallInstance((1,), (1,) * n)

    def test_instance_list_repeats_a_symbol(self):
        # the two oracles would disagree on such a list (OPT 4, reference FC 5)
        with pytest.raises(ListLabError):
            SmallInstance((1, 1, 2), (2, 1))

    @pytest.mark.parametrize("m,n", [(listlab.oracle.MAX_ENUM_LIST + 1, 2), (2, 10), (0, 2), (2, -1)])
    def test_enumeration_bounds(self, m, n):
        with pytest.raises(BoundsExceeded):
            enumerate_instances(m, n)


class TestCostModelByValue:
    """A model given by its value is that model; an unknown value is refused."""

    def test_instance(self):
        inst = SmallInstance((1, 2, 3), (3, 3), "full")
        assert inst.model is FULL
        assert opt_free_exchange_cost(inst) == naive_fc_cost(inst) == 4

    def test_instance_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            SmallInstance((1, 2, 3), (3, 3), "bogus")

    def test_verify(self):
        assert verify_engines(2, 3, "full").summary_lines() == verify_engines(2, 3, FULL).summary_lines()

    def test_verify_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            verify_engines(2, 3, "bogus")


class TestEnumeration:
    @pytest.mark.parametrize("m,n,count", [(1, 2, 3), (2, 2, 7), (3, 6, 1093)])
    def test_counts(self, m, n, count):
        assert sum(1 for _ in enumerate_instances(m, n)) == count

    def test_sequences_are_distinct_and_complete(self):
        seqs = [inst.sequence for inst in enumerate_instances(2, 3)]
        assert len(seqs) == len(set(seqs)) == 1 + 2 + 4 + 8
        assert all(set(s) <= {1, 2} for s in seqs)

    @pytest.mark.parametrize("m,n", [(1, 9), (3, 5), (5, 3)])
    def test_order_is_sorted_order(self, m, n):
        """Python sorts a tuple before its extensions, so sorting pins the
        walk's order without the enumeration's own generator."""
        every = (s for k in range(n + 1) for s in product(range(1, m + 1), repeat=k))
        assert [inst.sequence for inst in enumerate_instances(m, n)] == sorted(every)

    @pytest.mark.parametrize("model", list(CostModel))
    def test_instances_equal_constructed_ones(self, model):
        """The enumeration skips the constructor's checks, and builds what it
        builds: the same fields, the model read from its value, the same hash."""
        every = sorted(s for k in range(5) for s in product((1, 2, 3), repeat=k))
        built = [SmallInstance([1, 2, 3], list(s), model.value) for s in every]
        instances = list(enumerate_instances(3, 4, model.value))
        assert instances == built
        assert [hash(i) for i in instances] == [hash(i) for i in built]
        assert all(i.model is model and type(i.order) is type(i.sequence) is tuple for i in instances)

    def test_lexicographic_order_puts_each_sequence_after_its_prefixes(self):
        seqs = [inst.sequence for inst in enumerate_instances(2, 2)]
        assert seqs == [(), (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2)]
        longer = [inst.sequence for inst in enumerate_instances(3, 4)]
        assert longer == sorted(longer)


def _promote_counter_only(real):
    def promote(order, neg, j, f):
        neg[j] = -f
        return j

    return promote


def _promote_batch_in_place(real):
    def promote(order, neg, j, f):
        if f + neg[j] > 1:  # a batch: the counter grows by more than one
            neg[j] = -f
            return j
        return real(order, neg, j, f)

    return promote


def _promote_one_too_many(real):
    return lambda order, neg, j, f: real(order, neg, j, f + 1)


def _promote_ignoring_ties(real):
    def promote(order, neg, j, f):  # the FC rule without its tie step: always to c
        c = bisect_right(neg, -f, 0, j)
        order.insert(c, order.pop(j))
        del neg[j]
        neg.insert(c, -f)
        return c

    return promote


def _free_head(real):
    return lambda model, m: [0, *real(model, m)[1:]]


# (check, name, change, first counterexample): each change breaks what its
# check guards. A bare name is a reference value the checks read, an
# argument of ``listlab.oracle._failures``, and change maps it; a name in
# ``listlab.algorithms`` is an engine helper, and change(real) replaces it:
# every engine run prices its positions with ``_access_costs``, and every FC or
# VFC step that moves an element calls ``_promote``.
PERTURBATIONS = [
    (
        "fc-matches-reference",
        "reference",
        lambda total: total + 1,
        "order=(1, 2, 3) seq=(): engine 0 != reference 1",
    ),
    (
        "fc-matches-reference",
        "algorithms._promote",
        _promote_ignoring_ties,
        "order=(1, 2, 3) seq=(1, 3, 1): engine 5 != reference 6",
    ),
    (
        "opt-dominates-engines",
        "opt",
        lambda opt: opt + 1,
        "order=(1, 2, 3) seq=(): mtf total 0 < opt 1",
    ),
    (
        "mtf-within-twice-opt",
        "opt",
        lambda opt: opt // 3,
        "order=(1, 2, 3) seq=(1,): mtf 1 > 2*opt - n = -1",
    ),
    (
        "fc-vfc-conservation",
        "algorithms._promote",
        _promote_one_too_many,
        "order=(1, 2, 3) seq=(2,): fc counter sum != 1",
    ),
    (
        "full-model-lower-bound",
        "algorithms._access_costs",
        _free_head,
        "order=(1, 2, 3) seq=(1,): mtf total 0 < n 1",
    ),
    (
        "frequencies-non-increasing",
        "algorithms._promote",
        _promote_counter_only,
        "order=(1, 2, 3) seq=(2,): fc counters (0, 1, 0) after serving 2",
    ),
    (
        "batch-promotes-to-head",
        "algorithms._promote",
        _promote_batch_in_place,
        "order=(1, 2, 3) seq=(1, 2, 2, 1): vfc[literal] batch on 2 left head 1",
    ),
]


# a row's id is its check, and the change's name too if an earlier row has that check
PERTURBATION_IDS = [
    f"{check}-{change.__name__.strip('_')}" if check in [p[0] for p in PERTURBATIONS[:i]] else check
    for i, (check, _, change, _) in enumerate(PERTURBATIONS)
]


class TestVerification:
    def test_default_bounds_pass(self):
        report = verify_engines(3, 6)
        assert report.passed
        assert report.instances == 1093

    def test_partial_model_passes(self):
        report = verify_engines(2, 5, CostModel.PARTIAL)
        assert report.passed

    @pytest.mark.parametrize("model", list(CostModel))
    @pytest.mark.parametrize("m", range(1, listlab.oracle.MAX_ENUM_LIST + 1))
    def test_edge_bounds_pass(self, m, model):
        """At length 0 the empty instance is a leaf; at length 1 every
        instance but the empty one is."""
        for n, count in ((0, 1), (1, m + 1)):
            report = verify_engines(m, n, model)
            assert (report.passed, report.instances) == (True, count)

    @pytest.mark.parametrize("model", list(CostModel))
    def test_single_symbol_bound_passes(self, model):
        """Every instance is (1,) * k, so the walk recomputes both references
        and runs every configuration whole on each of them."""
        report = verify_engines(1, 9, model)
        assert (report.passed, report.instances) == (True, 10)

    def test_summary_lines_one_per_check(self):
        report = verify_engines(2, 3)
        lines = report.summary_lines()
        assert len(lines) == len(report.checks)
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("check,name,change,counterexample", PERTURBATIONS, ids=PERTURBATION_IDS)
    def test_perturbation_fails_its_check(self, monkeypatch, check, name, change, counterexample):
        module, _, attr = name.rpartition(".")
        if module:
            owner = getattr(listlab, module)
            monkeypatch.setattr(owner, attr, change(getattr(owner, attr)))
        else:
            real = listlab.oracle._failures

            def failures(instance, runs, reference, opt):
                values = {"reference": reference, "opt": opt}
                values[name] = change(values[name])
                return real(instance, runs, **values)

            monkeypatch.setattr(listlab.oracle, "_failures", failures)
        lines = verify_engines(3, 5).summary_lines()
        at = lines.index(f"FAIL {check} (364 instances)")
        assert lines[at + 1] == f"  counterexample: {counterexample}"

    def test_every_counterexample_line_keeps_its_order(self, monkeypatch):
        """The shortest counterexamples first, those of one length in the
        walk's order and those of one instance in the order of the checks."""
        monkeypatch.setattr(listlab.algorithms, "_promote", _promote_counter_only(listlab.algorithms._promote))
        assert _fail_block(verify_engines(3, 5), "fc-matches-reference") == [
            "order=(1, 2, 3) seq=(2, 1): engine 3 != reference 4",
            "order=(1, 2, 3) seq=(2, 2): engine 4 != reference 3",
            "order=(1, 2, 3) seq=(3, 1): engine 4 != reference 5",
            "order=(1, 2, 3) seq=(3, 2): engine 5 != reference 6",
            "order=(1, 2, 3) seq=(3, 3): engine 6 != reference 4",
        ]
        monkeypatch.undo()
        real = listlab.oracle._failures
        monkeypatch.setattr(listlab.oracle, "_failures", lambda inst, runs, ref, opt: real(inst, runs, ref, opt + 1))
        assert _fail_block(verify_engines(3, 5), "opt-dominates-engines") == [
            "order=(1, 2, 3) seq=(): mtf total 0 < opt 1",
            "order=(1, 2, 3) seq=(): trans total 0 < opt 1",
            "order=(1, 2, 3) seq=(): fc total 0 < opt 1",
            "order=(1, 2, 3) seq=(): vfc[strict] total 0 < opt 1",
            "order=(1, 2, 3) seq=(): vfc[literal] total 0 < opt 1",
        ]

    def test_detects_perturbed_cost_constant(self, monkeypatch):
        real = listlab.algorithms._access_costs

        def skewed(model, m):
            head, *rest = real(model, m)
            return [head, *(cost + 1 for cost in rest)]

        monkeypatch.setattr(listlab.algorithms, "_access_costs", skewed)
        report = verify_engines(2, 3)
        assert not report.passed
        failing = [c for c in report.checks if c.failures]
        assert failing
        assert any("order=" in f and "seq=" in f for c in failing for f in c.failures)


def _fail_block(report, check):
    """The counterexamples ``check`` kept, checking that it failed."""
    result = next(c for c in report.checks if c.name == check)
    assert not result.passed
    return result.failures


@pytest.mark.parametrize("model", list(CostModel))
def test_prefix_walk_ends_where_each_engine_run_ends(model):
    """The verifier extends every instance's parent by one request, VFC from
    its steps whose whole window lies inside the parent; each configuration
    must end where a run over the whole instance, served in one kernel call,
    ends. Only such a call takes the repeat branches of FC's loop and MTF's."""
    count = 0
    for instance, runs, _, _ in listlab.oracle._prefix_runs(4, 6, model):
        count += 1
        state = instance.to_state()
        for (kind, policy), (label, *_), run in zip(listlab.oracle.RUNS, listlab.oracle._CONFIGS, runs):
            order, neg, cursor, total, *_ = run
            report = run_algorithm(kind, state, instance.sequence, model, policy, keep_trace=False)
            walked = (label, total, order, dict(zip(order, [-c for c in neg])), cursor)
            expected = (
                report.label,
                report.total_cost,
                report.final_state.order,
                report.final_state.freq,
                len(instance.sequence),
            )
            assert walked == expected, instance
    assert count == 5461


@pytest.mark.parametrize("model", list(CostModel))
@pytest.mark.parametrize("m,n,count", [(4, 6, 5461), (5, 5, 3906)])
def test_prefix_walk_carries_both_references(model, m, n, count):
    """The walk's references feed both sides of the checks, so a slip in the
    chain's bookkeeping shows only against the per-instance references. A
    leaf, an instance of length n, takes OPT from its parent's ``reach``
    without stepping it, so this pins that rule on every leaf too."""
    walked = leaves = 0
    for instance, _, reference, opt in listlab.oracle._prefix_runs(m, n, model):
        walked += 1
        leaves += len(instance.sequence) == n
        expected = (naive_fc_cost(instance), opt_free_exchange_cost(instance))
        assert (reference, opt) == expected, instance
    assert walked == count
    assert leaves == m**n


def test_configurations_take_their_traits_from_their_kinds():
    """Only VFC reads a window; FC and VFC keep counters."""
    assert [(label, lookahead, counting) for label, _, lookahead, counting in listlab.oracle._CONFIGS] == [
        ("mtf", False, False),
        ("trans", False, False),
        ("fc", False, True),
        ("vfc[literal]", True, True),
        ("vfc[strict]", True, True),
    ]


def test_prefix_walk_extends_each_instance_once(monkeypatch):
    """Every non-empty instance is served once from its parent's chain entry.
    A leaf (length 6) serves each run to the end and commits nothing. Every
    other instance commits each run to its own chain entry and then serves
    only VFC's rest: MTF, TRANS and FC are online, so they committed it all."""
    real = listlab.oracle._served
    calls = []

    def served(run, config, sequence, costs, committed):
        calls.append((sequence, config[0], committed))
        return real(run, config, sequence, costs, committed)

    monkeypatch.setattr(listlab.oracle, "_served", served)
    assert verify_engines(4, 6).passed
    assert len(calls) == len(set(calls)) == 30028
    served_by = {}
    for sequence, label, committed in calls:
        served_by.setdefault(sequence, set()).add((label, committed))
    labels = [label for label, *_ in listlab.oracle._CONFIGS]
    leaf = {(label, False) for label in labels}
    inner = {(label, True) for label in labels} | {("vfc[literal]", False), ("vfc[strict]", False)}
    assert len(served_by) == 5460 and () not in served_by
    assert all(how == (leaf if len(sequence) == 6 else inner) for sequence, how in served_by.items())
    # with the empty instance's, 1,365 chain entries, one per instance that is not a leaf
    assert sum(how == inner for how in served_by.values()) == 1364


def test_prefix_walk_refuses_a_chain_that_disagrees_with_the_references(monkeypatch):
    real = listlab.oracle.opt_free_exchange_cost
    monkeypatch.setattr(listlab.oracle, "opt_free_exchange_cost", lambda instance: real(instance) + 1)
    with pytest.raises(RuntimeError, match=r"sequence=\(\)"):
        verify_engines(2, 3)


def test_prefix_walk_refuses_a_whole_run_that_disagrees_with_the_walk(monkeypatch):
    """A ``_promote`` that hands back the index it was given leaves a whole
    FC run serving the repeat of (2, 2) where 2 was, not at the head; the
    walk serves one step a call, so only the whole-run check sees it."""
    real = listlab.algorithms._promote

    def stale(order, neg, j, f):
        real(order, neg, j, f)
        return j

    monkeypatch.setattr(listlab.algorithms, "_promote", stale)
    with pytest.raises(RuntimeError, match=r"sequence=\(2, 2\)"):
        verify_engines(2, 3)


# the instances verify_engines(4, 6) reruns whole: see test_prefix_walk_reruns_three_families_whole
FAMILIES_4_6 = {(4,) * k for k in range(7)} | {(4,) * k + (1,) for k in range(1, 6)} | {
    (1, 2, 2, 1), (1, 2, 2, 2, 1), (1, 2, 2, 2, 2, 1)}


def test_prefix_walk_reruns_three_families_whole():
    """At (4,6) the walk runs whole ``(4,) * k``, ``(4,) * (k - 1) + (1,)`` and, from k = 4,
    ``(1,) + (2,) * (k - 2) + (1,)``, whose first two 2s batch and whose whole strict run
    hands that batch to FC's loop; each once per configuration."""
    with mock.patch.object(listlab.oracle, "run_algorithm", wraps=listlab.oracle.run_algorithm) as run:
        assert verify_engines(4, 6).passed
    rerun = Counter(call.args[2] for call in run.call_args_list)
    assert rerun == dict.fromkeys(FAMILIES_4_6, len(listlab.oracle.RUNS))


def test_prefix_walk_reruns_reach_the_byte_slot_index():
    """``run_algorithm`` serves each rerun tuple as ``bytes``, so every rerun that serves more
    requests than the list has symbols is bytewise: MTF packs the list, and TRANS and FC read
    the 256-slot list. Strict VFC's hand-off to FC's loop serves all but the last run, more than
    four requests only on (4, 4, 4, 4, 4, 1) and (1, 2, 2, 2, 2, 1). Nothing else is bytewise.
    FC's loop takes its run loop where at least half the requests repeat the one before: every
    bytewise call but FC's on (1, 2, 2, 2, 1), which takes the request loop. The strict hand-off
    on (1, 2, 2, 2, 2) settles a batch in the run loop."""
    real_run, real_bytewise, real_runs = (listlab.oracle.run_algorithm, listlab.algorithms._bytewise,
                                          listlab.algorithms._runs)
    rerun, bytewise, by_runs = [None], set(), set()

    def run(kind, state, sequence, model, policy, **kwargs):
        rerun[0] = (sequence, listlab.algorithms._label(kind, policy))
        try:
            return real_run(kind, state, sequence, model, policy, **kwargs)
        finally:
            rerun[0] = None

    def decide(order, sequence, cursor, stop):
        fits = real_bytewise(order, sequence, cursor, stop)
        if fits:
            bytewise.add(rerun[0])
        return fits

    def runs(sequence, cursor, stop):
        lengths = real_runs(sequence, cursor, stop)
        if lengths:
            by_runs.add(rerun[0])
        return lengths

    with mock.patch.object(listlab.oracle, "run_algorithm", run), \
            mock.patch.object(listlab.algorithms, "_bytewise", decide), \
            mock.patch.object(listlab.algorithms, "_runs", runs):
        assert verify_engines(4, 6).passed
    longer = [sequence for sequence in FAMILIES_4_6 if len(sequence) > 4]
    handed_off = {((4, 4, 4, 4, 4, 1), "vfc[strict]"), ((1, 2, 2, 2, 2, 1), "vfc[strict]")}
    assert bytewise == {(sequence, label) for sequence in longer for label in ("mtf", "trans", "fc")} | handed_off
    assert by_runs == {(sequence, "fc") for sequence in longer if sequence != (1, 2, 2, 2, 1)} | handed_off


@pytest.mark.parametrize("model", list(CostModel))
def test_prefix_walk_refuses_a_vfc_run_that_disagrees_with_the_reference(monkeypatch, model):
    """The VFC reference serves each step through ``_fc_step``, as the FC reference does; one unit
    more on its batched steps alone stops the walk at the first rerun that batches."""
    real = listlab.oracle._fc_step
    monkeypatch.setattr(listlab.oracle, "_fc_step", lambda e, r, i, h, block=1: real(e, r, i, h, block) + (block > 1))
    with pytest.raises(RuntimeError, match=r"sequence=\(1, 2, 2, 1\).*: vfc\[literal\] .* the VFC reference"):
        verify_engines(4, 6, model)


class TestLiteralBatchUndercut:
    """A literal-policy batch swallows foreign requests at one unit each, so
    it can land below the optimum of any strategy that serves every request.
    This pins the known counterexample; strict batches cannot do this."""

    def test_pinned_counterexample(self):
        inst = SmallInstance((1, 2, 3), (1, 1, 2, 1, 2))
        literal = run_algorithm(
            AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.LITERAL, keep_trace=False
        )
        assert literal.total_cost == 6
        assert opt_free_exchange_cost(inst) == 7

    def test_strict_policy_never_undercuts_here(self):
        inst = SmallInstance((1, 2, 3), (1, 1, 2, 1, 2))
        strict = run_algorithm(
            AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS, keep_trace=False
        )
        assert strict.total_cost >= opt_free_exchange_cost(inst)


def test_literal_vfc_can_cost_more_than_fc():
    """The abstract says VFC performs better than FC. Literal VFC does not on
    this sequence; strict VFC ties FC and the optimum."""
    inst = SmallInstance((1, 2, 3, 4), (1, 1, 2, 1, 2, 1, 3, 1))
    state = inst.to_state()
    fc = run_algorithm(AlgorithmKind.FC, state, inst.sequence, FULL, keep_trace=False)
    literal = run_algorithm(AlgorithmKind.VFC, state, inst.sequence, FULL, VfcPolicy.LITERAL, keep_trace=False)
    strict = run_algorithm(
        AlgorithmKind.VFC, state, inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS, keep_trace=False
    )
    assert fc.total_cost == 12
    assert literal.total_cost == 13
    assert strict.total_cost == 12
    assert opt_free_exchange_cost(inst) == 12


@st.composite
def random_instance(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    order = tuple(draw(st.permutations(range(1, m + 1))))
    n = draw(st.integers(min_value=0, max_value=7))
    seq = tuple(draw(st.lists(st.sampled_from(order), min_size=n, max_size=n)))
    return SmallInstance(order, seq)


@settings(max_examples=150, deadline=None)
@given(random_instance(), st.sampled_from([AlgorithmKind.MTF, AlgorithmKind.TRANS, AlgorithmKind.FC]))
def test_opt_dominates_serving_engines_on_random_instances(inst, kind):
    total = run_algorithm(kind, inst.to_state(), inst.sequence, FULL, keep_trace=False).total_cost
    assert opt_free_exchange_cost(inst) <= total


@settings(max_examples=150, deadline=None)
@given(random_instance())
def test_opt_dominates_strict_vfc_on_random_instances(inst):
    total = run_algorithm(
        AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS, keep_trace=False
    ).total_cost
    assert opt_free_exchange_cost(inst) <= total


@settings(max_examples=150, deadline=None)
@given(random_instance())
def test_mtf_within_twice_opt_on_random_instances(inst):
    """Sleator & Tarjan: MTF <= 2 * OPT - n when the head costs one, and
    MTF <= 2 * OPT when it is free."""
    for model, slack in ((FULL, len(inst.sequence)), (CostModel.PARTIAL, 0)):
        inst = SmallInstance(inst.order, inst.sequence, model)
        mtf = run_algorithm(AlgorithmKind.MTF, inst.to_state(), inst.sequence, model, keep_trace=False).total_cost
        assert mtf <= 2 * opt_free_exchange_cost(inst) - slack
