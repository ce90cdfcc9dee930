from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import listlab.algorithms
import listlab.oracle
from listlab import (
    AlgorithmKind,
    BoundsExceeded,
    CostModel,
    InstanceTooLarge,
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
        with pytest.raises(InstanceTooLarge):
            SmallInstance((1, 2, 3, 4, 5, 6), ())

    def test_instance_sequence_too_long(self):
        with pytest.raises(InstanceTooLarge):
            SmallInstance((1,), (1,) * 11)

    def test_instance_list_repeats_a_symbol(self):
        # the two oracles would disagree on such a list (OPT 4, reference FC 5)
        with pytest.raises(ListLabError):
            SmallInstance((1, 1, 2), (2, 1))

    @pytest.mark.parametrize("m,n", [(6, 2), (2, 10), (0, 2), (2, -1)])
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
    return lambda model, position: 0 if position == 1 else real(model, position)


# (check, name, change, first counterexample): each change breaks what its
# check guards. A bare name is a reference value the checks read, an
# argument of ``listlab.oracle._failures``, and change maps it; a name in
# ``listlab.algorithms`` is an engine helper, and change(real) replaces it:
# every engine run prices its positions with ``access_cost``, and every FC or
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
        "order=(1, 2, 3) seq=(1,): mtf 1 > 2*opt 0",
    ),
    (
        "fc-vfc-conservation",
        "algorithms._promote",
        _promote_one_too_many,
        "order=(1, 2, 3) seq=(2,): fc counter sum != 1",
    ),
    (
        "full-model-lower-bound",
        "algorithms.access_cost",
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
        real = listlab.algorithms.access_cost

        def skewed(model, position):
            return real(model, position) + (1 if position > 1 else 0)

        monkeypatch.setattr(listlab.algorithms, "access_cost", skewed)
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
    must end where a run over the whole instance ends."""
    count = 0
    for instance, runs in listlab.oracle._prefix_runs(4, 6, model):
        count += 1
        state = instance.to_state()
        for (kind, policy), run in zip(listlab.oracle.RUNS, runs):
            report = run_algorithm(kind, state, instance.sequence, model, policy)
            walked = (run.label, run.total, run.order, dict(zip(run.order, [-c for c in run.neg])), run.cursor)
            expected = (
                report.label,
                report.total_cost,
                report.final_state.order,
                report.final_state.freq,
                sum(step.requests_consumed for step in report.steps),
            )
            assert walked == expected, instance
    assert count == 5461


@pytest.mark.parametrize("model", list(CostModel))
@pytest.mark.parametrize("m,n,count", [(4, 6, 5461), (5, 5, 3906)])
def test_prefix_walk_carries_both_references(model, m, n, count):
    """The walk's references feed both sides of the checks, so a slip in the
    chain's bookkeeping shows only against the per-instance references."""
    walked = 0
    for instance, runs in listlab.oracle._prefix_runs(m, n, model):
        walked += 1
        expected = (naive_fc_cost(instance), opt_free_exchange_cost(instance))
        assert (runs.reference, runs.opt) == expected, instance
    assert walked == count


def test_prefix_walk_extends_each_instance_once(monkeypatch):
    """Every non-empty instance extends its parent once, and no prefix is
    extended again."""
    real = listlab.oracle._Prefix.extended
    calls = []

    def extended(self, sequence, *args):
        calls.append(sequence)
        return real(self, sequence, *args)

    monkeypatch.setattr(listlab.oracle._Prefix, "extended", extended)
    assert verify_engines(4, 6).passed
    assert len(calls) == len(set(calls)) == 5460


def test_prefix_walk_refuses_a_chain_that_disagrees_with_the_references(monkeypatch):
    real = listlab.oracle.opt_free_exchange_cost
    monkeypatch.setattr(listlab.oracle, "opt_free_exchange_cost", lambda instance: real(instance) + 1)
    with pytest.raises(RuntimeError, match=r"sequence=\(\)"):
        verify_engines(2, 3)


def test_prefix_walk_refuses_a_whole_run_that_disagrees_with_the_walk(monkeypatch):
    """A ``_promote`` that hands back the index it was given leaves a whole
    VFC run serving the repeat of (2, 2) where 2 was, not at the head; the
    walk serves one step a call, so only the whole-run check sees it."""
    real = listlab.algorithms._promote

    def stale(order, neg, j, f):
        real(order, neg, j, f)
        return j

    monkeypatch.setattr(listlab.algorithms, "_promote", stale)
    with pytest.raises(RuntimeError, match=r"sequence=\(2, 2\)"):
        verify_engines(2, 3)


class TestLiteralBatchUndercut:
    """A literal-policy batch swallows foreign requests at one unit each, so
    it can land below the optimum of any strategy that serves every request.
    This pins the known counterexample; strict batches cannot do this."""

    def test_pinned_counterexample(self):
        inst = SmallInstance((1, 2, 3), (1, 1, 2, 1, 2))
        literal = run_algorithm(
            AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.LITERAL
        )
        assert literal.total_cost == 6
        assert opt_free_exchange_cost(inst) == 7

    def test_strict_policy_never_undercuts_here(self):
        inst = SmallInstance((1, 2, 3), (1, 1, 2, 1, 2))
        strict = run_algorithm(
            AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS
        )
        assert strict.total_cost >= opt_free_exchange_cost(inst)


def test_literal_vfc_can_cost_more_than_fc():
    """The abstract says VFC performs better than FC. Literal VFC does not on
    this sequence; strict VFC ties FC and the optimum."""
    inst = SmallInstance((1, 2, 3, 4), (1, 1, 2, 1, 2, 1, 3, 1))
    state = inst.to_state()
    fc = run_algorithm(AlgorithmKind.FC, state, inst.sequence, FULL)
    literal = run_algorithm(AlgorithmKind.VFC, state, inst.sequence, FULL, VfcPolicy.LITERAL)
    strict = run_algorithm(AlgorithmKind.VFC, state, inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS)
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
@given(random_instance())
def test_fc_engine_matches_reference_on_random_instances(inst):
    engine = run_algorithm(AlgorithmKind.FC, inst.to_state(), inst.sequence, FULL)
    assert engine.total_cost == naive_fc_cost(inst)


@settings(max_examples=150, deadline=None)
@given(random_instance(), st.sampled_from([AlgorithmKind.MTF, AlgorithmKind.TRANS, AlgorithmKind.FC]))
def test_opt_dominates_serving_engines_on_random_instances(inst, kind):
    total = run_algorithm(kind, inst.to_state(), inst.sequence, FULL).total_cost
    assert opt_free_exchange_cost(inst) <= total


@settings(max_examples=150, deadline=None)
@given(random_instance())
def test_opt_dominates_strict_vfc_on_random_instances(inst):
    total = run_algorithm(
        AlgorithmKind.VFC, inst.to_state(), inst.sequence, FULL, VfcPolicy.STRICT_HOMOGENEOUS
    ).total_cost
    assert opt_free_exchange_cost(inst) <= total


@settings(max_examples=150, deadline=None)
@given(random_instance())
def test_mtf_within_twice_opt_on_random_instances(inst):
    mtf = run_algorithm(AlgorithmKind.MTF, inst.to_state(), inst.sequence, FULL).total_cost
    assert mtf <= 2 * opt_free_exchange_cost(inst)
