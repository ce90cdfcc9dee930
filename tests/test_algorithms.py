from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import listlab.algorithms
from listlab import (
    AlgorithmKind,
    CostModel,
    ListState,
    RunLengths,
    SmallInstance,
    SymbolNotInList,
    UnsortedCounters,
    VfcPolicy,
    Zipf,
    derive_list,
    enumerate_instances,
    generate_sequence,
    naive_fc_step_costs,
    preprocess,
    run_algorithm,
)
from listlab.oracle import MAX_ENUM_SEQ, naive_vfc_steps

from _textgen import surrogate_corpus

FULL = CostModel.FULL
PARTIAL = CostModel.PARTIAL
LITERAL = VfcPolicy.LITERAL
STRICT = VfcPolicy.STRICT_HOMOGENEOUS
CONFIGURATIONS = [(kind, LITERAL) for kind in AlgorithmKind] + [(AlgorithmKind.VFC, STRICT)]


def state(order, freq=None):
    if freq is None:
        return ListState.from_order(order)
    return ListState(list(order), dict(zip(order, freq, strict=True)))


def first_step(kind, s, sequence, model=FULL, policy=LITERAL):
    """The step that serves ``sequence[0]`` from ``s``. Lookahead reads only
    forward, so the step at cursor c of a sequence is the first step of its
    suffix ``sequence[c:]``."""
    return run_algorithm(kind, s, sequence, model, policy, snapshots=True).steps[0]


def step_costs(report):
    return [step.cost_charged for step in report.steps]


def consumed_counts(report):
    return [step.requests_consumed for step in report.steps]


def counters_after(step):
    return dict(zip(step.list_after, step.freq_after))


class TestMtf:
    def test_moves_request_to_front(self):
        step = first_step(AlgorithmKind.MTF, state([1, 2, 3]), (3,))
        assert (step.list_after, step.cost_charged) == ((3, 1, 2), 3)

    def test_head_access_is_fixpoint(self):
        step = first_step(AlgorithmKind.MTF, state([1, 2, 3]), (1,))
        assert (step.list_after, step.cost_charged) == ((1, 2, 3), 1)

    def test_full_run_total(self):
        # step costs 1,2,1,3,1,1 by direct simulation
        report = run_algorithm(AlgorithmKind.MTF, state([1, 2, 3]), (1, 2, 2, 3, 3, 3), FULL)
        assert step_costs(report) == [1, 2, 1, 3, 1, 1]
        assert report.total_cost == 9

    def test_ignores_counters(self):
        zero = run_algorithm(AlgorithmKind.MTF, state([1, 2, 3]), (3, 1, 2, 3))
        skewed = run_algorithm(AlgorithmKind.MTF, state([1, 2, 3], (9, 0, 4)), (3, 1, 2, 3))
        assert step_costs(zero) == step_costs(skewed)
        assert zero.final_state.order == skewed.final_state.order


class TestTrans:
    def test_swaps_with_predecessor(self):
        step = first_step(AlgorithmKind.TRANS, state([1, 2, 3]), (3,))
        assert (step.list_after, step.cost_charged) == ((1, 3, 2), 3)

    def test_head_has_no_predecessor(self):
        step = first_step(AlgorithmKind.TRANS, state([1, 2, 3]), (1,))
        assert (step.list_after, step.cost_charged) == ((1, 2, 3), 1)

    def test_partial_cost(self):
        step = first_step(AlgorithmKind.TRANS, state([2, 1, 3]), (3,), PARTIAL)
        assert (step.list_after, step.cost_charged) == ((2, 3, 1), 2)


class TestReorganize:
    """FC's placement after the accessed counter is bumped; each case starts
    one below the bumped counter and serves the accessed symbol once."""

    def test_tie_with_self_successor_blocks_move(self):
        s = state([1, 2, 3], (1, 0, 0))
        assert first_step(AlgorithmKind.FC, s, (2,)).list_after == (1, 2, 3)

    def test_strictly_greater_moves_to_front(self):
        s = state([1, 2, 3], (1, 1, 0))
        assert first_step(AlgorithmKind.FC, s, (2,)).list_after == (2, 1, 3)

    def test_tie_with_smaller_successor_jumps_ahead(self):
        s = ListState([2, 1, 3], {2: 2, 1: 1, 3: 1})
        assert first_step(AlgorithmKind.FC, s, (3,)).list_after == (3, 2, 1)

    def test_absent_symbol(self):
        with pytest.raises(SymbolNotInList):
            run_algorithm(AlgorithmKind.FC, state([1, 2]), (7,))

    def test_input_not_mutated(self):
        s = state([1, 2, 3], (1, 1, 0))
        run_algorithm(AlgorithmKind.FC, s, (2,))
        assert s.order == [1, 2, 3]


class TestFc:
    def test_reference_instance_with_interleaved_requests(self):
        report = run_algorithm(AlgorithmKind.FC, state([1, 2, 3]), (1, 2, 2, 3, 2, 3), FULL)
        assert step_costs(report) == [1, 2, 2, 3, 1, 3]
        assert report.total_cost == 12

    def test_reference_instance_with_run_suffix(self):
        report = run_algorithm(AlgorithmKind.FC, state([1, 2, 3]), (1, 2, 2, 3, 3, 3), FULL)
        assert step_costs(report) == [1, 2, 2, 3, 3, 1]
        assert report.total_cost == 12

    def test_singleton_list(self):
        report = run_algorithm(AlgorithmKind.FC, state([1]), (1, 1, 1), FULL)
        assert report.total_cost == 3

    def test_counters_match_occurrence_counts(self):
        seq = (2, 3, 2, 1, 2, 3)
        report = run_algorithm(AlgorithmKind.FC, state([1, 2, 3]), seq, FULL)
        assert report.final_state.freq == {1: 1, 2: 3, 3: 2}

    def test_step_returns_new_state(self):
        s = state([1, 2, 3])
        step = first_step(AlgorithmKind.FC, s, (2,))
        assert step.cost_charged == 2
        assert counters_after(step)[2] == 1
        assert s.freq[2] == 0


class TestVfcStep:
    def test_batch_consumes_window(self):
        seq, cursor = (1, 2, 2, 3, 3, 3), 1
        step = first_step(AlgorithmKind.VFC, state([1, 2, 3], (1, 0, 0)), seq[cursor:], FULL, LITERAL)
        assert (step.cost_charged, step.requests_consumed) == (3, 2)
        assert step.list_after == (2, 1, 3)
        assert counters_after(step)[2] == 2
        assert cursor + step.requests_consumed == 3
        assert step.freq_after[0] == 2

    def test_second_batch_reaches_final_configuration(self):
        seq, cursor = (1, 2, 2, 3, 3, 3), 3
        s = ListState([2, 1, 3], {2: 2, 1: 1, 3: 0})
        step = first_step(AlgorithmKind.VFC, s, seq[cursor:], FULL, LITERAL)
        assert (step.cost_charged, step.requests_consumed) == (5, 3)
        assert step.list_after == (3, 2, 1)
        assert step.freq_after == (3, 2, 1)

    def test_empty_window_falls_back_to_normal_service(self):
        seq, cursor = (1, 1, 2), 2
        step = first_step(AlgorithmKind.VFC, state([1, 2], (1, 0)), seq[cursor:], FULL, LITERAL)
        assert (step.cost_charged, step.requests_consumed) == (2, 1)
        assert counters_after(step)[2] == 1

    def test_untriggered_window_serves_single_request(self):
        # window exists but never repeats the request
        seq, cursor = (1, 2, 1), 1
        step = first_step(AlgorithmKind.VFC, state([1, 2], (1, 0)), seq[cursor:], FULL, LITERAL)
        assert (step.cost_charged, step.requests_consumed) == (2, 1)

    def test_strict_rejects_heterogeneous_window(self):
        seq, cursor = (1, 1, 2, 1, 2), 2
        s = state([1, 2, 3], (2, 0, 0))
        strict = first_step(AlgorithmKind.VFC, s, seq[cursor:], FULL, STRICT)
        assert strict.requests_consumed == 1
        literal = first_step(AlgorithmKind.VFC, s, seq[cursor:], FULL, LITERAL)
        assert literal.requests_consumed == 3

    @pytest.mark.parametrize("policy", [LITERAL, STRICT])
    def test_batch_up_to_the_predecessors_counter_stays_put(self, policy):
        """A batch clipped at the sequence's end lifts the counter to exactly
        its predecessor's: the tie rule keeps the element in place, so the
        kernel writes the counter and never calls the promotion search."""
        s = state([1, 2, 3], (3, 2, 0))
        with mock.patch.object(listlab.algorithms, "_promote", wraps=listlab.algorithms._promote) as promote:
            step = first_step(AlgorithmKind.VFC, s, (3, 3), FULL, policy)
        assert (step.cost_charged, step.requests_consumed) == (4, 2)
        assert (step.list_after, step.freq_after) == ((1, 2, 3), (3, 2, 2))
        assert not promote.called


@st.composite
def counted_instance(draw, max_m=5, max_n=12):
    """A list whose counters never increase from front to back, and requests over it."""
    m = draw(st.integers(min_value=1, max_value=max_m))
    order = tuple(draw(st.permutations(range(1, m + 1))))
    freq = sorted(draw(st.lists(st.integers(min_value=0, max_value=4), min_size=m, max_size=m)), reverse=True)
    seq = draw(st.lists(st.sampled_from(order), max_size=max_n))
    return order, freq, tuple(seq)


@st.composite
def run_heavy_instance(draw):
    """Like ``counted_instance``, but the requests are up to six runs of one
    symbol, each 1 to 6 long, so VFC often serves repeats after a rejected
    window."""
    order, freq, _ = draw(counted_instance(max_n=0))
    runs = draw(st.lists(st.tuples(st.sampled_from(order), st.integers(min_value=1, max_value=6)), max_size=6))
    return order, freq, tuple(s for s, length in runs for _ in range(length))


def counted_or_run_heavy(max_n=12):
    return st.one_of(counted_instance(max_n=max_n), run_heavy_instance())


BATCH_THEN_REPEAT = [(2, 2, 4, 3), (2, 1, 1, 1), (1, 2, 2, 1)]
NO_WINDOW_THEN_REPEATS = [(2, 2, 2, 1), (2, 1, 1, 1), (2, 1, 1, 1)]


class TestVfcRepeats:
    """Requests that repeat the symbol just served, on the list 1, 2, ...
    with the given counters under FULL. A run without a trace is served
    whole: literal VFC looks each repeat up, and strict hands every run but
    its last to FC's loop, which serves a repeat at the index the last step
    left; a traced run and a run with snapshots go one call a step and
    record these ``(request, position, cost, consumed)`` steps. All three
    charge the steps' total, and the whole run ends in the stepped runs'
    state."""

    @pytest.mark.parametrize(
        "policy,freq,sequence,steps",
        [
            # the batch lifts 2 to the head; the fourth 2 is served there
            (LITERAL, (2, 0), (2, 2, 2, 2, 1), BATCH_THEN_REPEAT),
            (STRICT, (2, 0), (2, 2, 2, 2, 1), BATCH_THEN_REPEAT),
            # g equals the head's counter: no window, and 2 moves to the head
            (LITERAL, (1, 1), (2, 2, 2), NO_WINDOW_THEN_REPEATS),
            (STRICT, (1, 1), (2, 2, 2), NO_WINDOW_THEN_REPEATS),
            # strict rejects the window (2, 2, 1) and each repeat's shorter one; literal takes it all
            (STRICT, (4, 0), (2, 2, 2, 1), [(2, 2, 2, 1), (2, 2, 2, 1), (2, 2, 2, 1), (1, 1, 1, 1)]),
            (LITERAL, (4, 0), (2, 2, 2, 1), [(2, 2, 5, 4)]),
            # strict rejects (3, 3, 1); the second 3 moves to index 1, short of the head, and the third is served there
            (STRICT, (5, 1, 0), (3, 3, 3, 1), [(3, 3, 3, 1), (3, 3, 3, 1), (3, 2, 2, 1), (1, 1, 1, 1)]),
            (LITERAL, (5, 1, 0), (3, 3, 3, 1), [(3, 3, 6, 4)]),
        ],
        ids=["batch-literal", "batch-strict", "no-window-literal", "no-window-strict", "rejected-strict",
             "rejected-literal", "promoted-short-of-head-strict", "promoted-short-of-head-literal"],
    )
    def test_whole_run_serves_repeats_as_steps_do(self, policy, freq, sequence, steps):
        order = range(1, len(freq) + 1)
        whole = run_algorithm(AlgorithmKind.VFC, state(order, freq), sequence, FULL, policy, keep_trace=False)
        traced = run_algorithm(AlgorithmKind.VFC, state(order, freq), sequence, FULL, policy)
        stepped = run_algorithm(AlgorithmKind.VFC, state(order, freq), sequence, FULL, policy, snapshots=True)
        for report in (traced, stepped):
            assert [(r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in report.steps] == steps
        for report in (whole, traced, stepped):
            assert report.total_cost == sum(step[2] for step in steps)
        assert whole.final_state == traced.final_state == stepped.final_state

    @settings(max_examples=500, deadline=None)
    @given(counted_or_run_heavy(max_n=24), st.sampled_from([LITERAL, STRICT]), st.sampled_from([FULL, PARTIAL]))
    def test_lookahead_loop_finds_each_repeat_at_the_head(self, case, policy, model):
        """Why VFC's lookahead loop needs no repeat branch: a repeat of the
        request served last finds its symbol at the head, so its lookup is
        the cheapest and it opens no window. Literal leaves the symbol at the
        head unless it rejects a window, and then the next request is another.
        A whole strict call serves only its last run in that loop, from the
        state a traced run reaches at the run's start r; a rejected strict
        window before r may leave a repeat short of the head."""
        order, freq, seq = case
        report = run_algorithm(AlgorithmKind.VFC, state(order, freq), seq, model, policy)
        r = len(seq) if policy is STRICT else 0
        while r and seq[r - 1] == seq[-1]:
            r -= 1
        cursor, previous = 0, None
        for step in report.steps:
            if cursor >= r and step.request == previous:
                assert step.position_before == 1
            cursor, previous = cursor + step.requests_consumed, step.request


class TestRunAlgorithm:
    def test_vfc_worked_instance(self):
        for policy in (LITERAL, STRICT):
            report = run_algorithm(
                AlgorithmKind.VFC, state([1, 2, 3]), (1, 2, 2, 3, 3, 3), FULL, policy
            )
            assert report.total_cost == 9
            assert step_costs(report) == [1, 3, 5]
            assert consumed_counts(report) == [1, 2, 3]
            assert report.final_state.order == [3, 2, 1]

    def test_empty_sequence(self):
        report = run_algorithm(AlgorithmKind.FC, state([1, 2, 3]), (), FULL)
        assert report.total_cost == 0
        assert report.steps == []

    def test_absent_request_carries_index(self):
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.MTF, state([1, 2]), (1, 2, 9), FULL)
        assert exc.value.request_index == 2
        assert exc.value.symbol == 9

    @pytest.mark.parametrize("absent", [300, -1])
    def test_packed_mtf_call_raises_for_a_symbol_no_byte_holds(self, absent):
        # the list (1, 2) would pack into bytes, but 300 and -1 fit no byte, so run_algorithm keeps
        # the tuple, the whole call is not bytewise, and MTF scans the list unpacked
        sequence = (1, 2, 2, 1, absent, 1, absent)
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.MTF, state([1, 2]), sequence, FULL, keep_trace=False)
        assert (exc.value.symbol, exc.value.request_index) == (absent, 4)

    def test_vfc_absent_request_carries_index(self):
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 7), FULL, keep_trace=False)
        assert exc.value.request_index == 1

    def test_literal_batch_swallows_an_absent_request(self):
        # the batch on 2 at index 2 consumes (2, 9, 2), so the first request
        # served that is not listed is the 7, not the earlier 9
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 1, 2, 9, 2, 7), FULL, LITERAL, keep_trace=False)
        assert (exc.value.symbol, exc.value.request_index) == (7, 5)
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 1, 2, 9, 2, 7), FULL, STRICT, keep_trace=False)
        assert (exc.value.symbol, exc.value.request_index) == (9, 3)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS, ids=lambda c: f"{c[0].value}-{c[1].value}")
    @pytest.mark.parametrize(
        "sequence,index",
        [((9, 1, 2), 0), ((2, 1, 2, 9), 3), ((9,), 0), ((None,), 0), ((None, 1, 1, 1), 0), ((1, 2, 1, None), 3)],
    )
    def test_absent_request_at_either_end(self, configuration, sequence, index):
        """None is no symbol either: no kernel takes it for a repeat of the request it served last."""
        kind, policy = configuration
        # served whole, a step a call with a trace, and a step a call with snapshots
        for keep_trace, snapshots in ((False, False), (True, False), (False, True)):
            with pytest.raises(SymbolNotInList) as exc:
                run_algorithm(kind, state([1, 2]), sequence, FULL, policy, keep_trace=keep_trace, snapshots=snapshots)
            assert (exc.value.symbol, exc.value.request_index) == (sequence[index], index)

    def test_snapshots_capture_order_and_counters(self):
        report = run_algorithm(
            AlgorithmKind.VFC, state([1, 2, 3]), (1, 2, 2, 3, 3, 3), FULL, snapshots=True
        )
        assert report.steps[-1].list_after == (3, 2, 1)
        assert report.steps[-1].freq_after == (3, 2, 1)

    def test_cost_model_given_by_value(self):
        report = run_algorithm(AlgorithmKind.MTF, state([1, 2, 3]), (3, 3), "full")
        assert report.total_cost == run_algorithm(AlgorithmKind.MTF, state([1, 2, 3]), (3, 3), FULL).total_cost == 4
        with pytest.raises(ValueError):
            run_algorithm(AlgorithmKind.MTF, state([1, 2, 3]), (3, 3), "bogus")

    def test_trace_can_be_dropped(self):
        report = run_algorithm(AlgorithmKind.FC, state([1, 2]), (2, 2, 1), keep_trace=False)
        assert report.steps == []
        assert report.total_cost > 0

    def test_snapshots_keep_the_trace(self):
        report = run_algorithm(AlgorithmKind.FC, state([1, 2]), (2, 2, 1), keep_trace=False, snapshots=True)
        assert [(step.request, step.list_after) for step in report.steps] == [(2, (2, 1)), (2, (2, 1)), (1, (2, 1))]

    def test_labels_name_the_engine_and_vfc_policy(self):
        reports = [run_algorithm(kind, state([1, 2]), (2, 1), FULL, policy) for kind, policy in CONFIGURATIONS]
        assert {report.label for report in reports} == {"mtf", "trans", "fc", "vfc[literal]", "vfc[strict]"}


@st.composite
def small_instance(draw, max_m=4, max_n=24):
    m = draw(st.integers(min_value=1, max_value=max_m))
    order = list(draw(st.permutations(range(m))))
    n = draw(st.integers(min_value=0, max_value=max_n))
    seq = draw(st.lists(st.sampled_from(order), min_size=n, max_size=n))
    return order, tuple(seq)


@settings(max_examples=200)
@given(small_instance(), st.sampled_from(list(AlgorithmKind)), st.sampled_from([FULL, PARTIAL]))
def test_every_engine_consumes_each_request_once(case, kind, model):
    order, seq = case
    report = run_algorithm(kind, state(order), seq, model)
    assert sum(consumed_counts(report)) == len(seq)
    assert sorted(report.final_state.order) == sorted(order)


@settings(max_examples=200)
@given(small_instance(), st.sampled_from(list(AlgorithmKind)))
def test_full_model_lower_bound(case, kind):
    order, seq = case
    report = run_algorithm(kind, state(order), seq, FULL, keep_trace=False)
    assert report.total_cost >= len(seq)


@settings(max_examples=100)
@given(small_instance(), st.sampled_from(list(AlgorithmKind)), st.sampled_from([LITERAL, STRICT]))
def test_engines_are_deterministic(case, kind, policy):
    order, seq = case
    first = run_algorithm(kind, state(order), seq, FULL, policy)
    second = run_algorithm(kind, state(order), seq, FULL, policy)
    assert step_costs(first) == step_costs(second)
    assert first.final_state == second.final_state


@settings(max_examples=200)
@given(small_instance(), st.sampled_from([LITERAL, STRICT]))
def test_vfc_conserves_counter_totals(case, policy):
    order, seq = case
    report = run_algorithm(AlgorithmKind.VFC, state(order), seq, FULL, policy, keep_trace=False)
    assert sum(report.final_state.freq.values()) == len(seq)


@settings(max_examples=200)
@given(small_instance(), st.sampled_from([AlgorithmKind.FC, AlgorithmKind.VFC]))
def test_counters_non_increasing_after_every_step(case, kind):
    order, seq = case
    report = run_algorithm(kind, state(order), seq, FULL, snapshots=True)
    for step in report.steps:
        freqs = step.freq_after
        assert all(freqs[i] >= freqs[i + 1] for i in range(len(freqs) - 1))


@settings(max_examples=300, deadline=None)
@given(
    small_instance(max_m=6, max_n=20),
    st.sampled_from(list(AlgorithmKind)),
    st.sampled_from([LITERAL, STRICT]),
    st.sampled_from([FULL, PARTIAL]),
)
def test_steps_move_only_the_request_forward(case, kind, policy, model):
    """Every step is charged at the request's position in the list it found,
    and reorganizes by a free exchange: the request moves toward the front,
    and every other symbol keeps its relative order."""
    order, seq = case
    before = tuple(order)
    for step in run_algorithm(kind, state(order), seq, model, policy, snapshots=True).steps:
        position = before.index(step.request) + 1
        assert step.position_before == position
        assert step.cost_charged == position - (model is PARTIAL) + step.requests_consumed - 1
        after = step.list_after
        assert after.index(step.request) <= position - 1
        assert [s for s in after if s != step.request] == [s for s in before if s != step.request]
        before = after


@settings(max_examples=500, deadline=None)
@given(counted_or_run_heavy(), st.sampled_from([LITERAL, STRICT]), st.sampled_from([FULL, PARTIAL]))
def test_vfc_steps_match_reference(case, policy, model):
    order, freq, seq = case
    s = ListState(list(order), dict(zip(order, freq)))
    expected = naive_vfc_steps(order, freq, seq, model, policy)
    report = run_algorithm(AlgorithmKind.VFC, s, seq, model, policy)
    steps = [(r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in report.steps]
    assert steps == expected
    # served whole, so strict hands every run but its last to FC's loop
    whole = run_algorithm(AlgorithmKind.VFC, s, seq, model, policy, keep_trace=False)
    assert whole.total_cost == sum(step[2] for step in expected)


@settings(max_examples=300, deadline=None)
@given(
    counted_or_run_heavy(max_n=16),
    st.sampled_from([(AlgorithmKind.FC, LITERAL), (AlgorithmKind.VFC, LITERAL), (AlgorithmKind.VFC, STRICT)]),
    st.sampled_from([FULL, PARTIAL]),
)
def test_promotion_search_runs_only_on_steps_that_move(case, configuration, model):
    """FC and VFC call ``_promote`` on exactly the steps whose list differs
    from the list the step found, when the run goes a step at a time, and so
    do FC and literal VFC served whole. A call is matched to its step by the
    counter sum it finds, which grows by each step's consumed requests.

    A whole strict run serves every run of requests but its last through
    FC's loop. Its run loop jumps a settled batch as a stepped run does, so
    the whole run calls ``_promote`` where the stepped run does. Its request
    loop climbs instead: below the last run's start r it calls ``_promote``
    where FC served whole does, and from r on where the stepped run does."""
    order, freq, seq = case
    kind, policy = configuration
    real, real_runs = listlab.algorithms._promote, listlab.algorithms._runs
    calls, by_runs = [], []

    def promote(order, neg, j, f):
        calls.append(-sum(neg))
        symbol = order[j]
        c = real(order, neg, j, f)
        assert order[c] == symbol
        return c

    def runs(sequence, cursor, stop):
        lengths = real_runs(sequence, cursor, stop)
        by_runs.append(lengths is not None)
        return lengths

    # patched in the body, since hypothesis rejects function-scoped fixtures such as monkeypatch
    with mock.patch.object(listlab.algorithms, "_promote", promote), \
            mock.patch.object(listlab.algorithms, "_runs", runs):
        run_algorithm(kind, state(order, freq), seq, model, policy, keep_trace=False)
        whole, calls, jumps = calls, [], any(by_runs)
        run_algorithm(AlgorithmKind.FC, state(order, freq), seq, model, keep_trace=False)
        fc, calls = calls, []
        report = run_algorithm(kind, state(order, freq), seq, model, policy, snapshots=True)
    moved, before, served = [], order, sum(freq)
    for step in report.steps:
        if step.list_after != before:
            moved.append(served)
        before, served = step.list_after, served + step.requests_consumed
    assert calls == moved
    if policy is STRICT and not jumps:
        r = len(seq)  # the start of the last run
        while r and seq[r - 1] == seq[-1]:
            r -= 1
        last = sum(freq) + r
        assert [c for c in whole if c < last] == [c for c in fc if c < last]
        assert [c for c in whole if c >= last] == [c for c in moved if c >= last]
    else:
        assert whole == moved


@settings(max_examples=300, deadline=None)
@given(counted_instance(), st.sampled_from(CONFIGURATIONS), st.sampled_from([FULL, PARTIAL]))
def test_run_leaves_its_input_and_ends_at_its_last_snapshot(case, configuration, model):
    """The input state is never written; the final state is the last step's
    snapshot (the input state when nothing was served), and MTF and TRANS
    hand back the counters they were given."""
    order, freq, seq = case
    kind, policy = configuration
    counters = dict(zip(order, freq))
    s = ListState(list(order), dict(counters))
    report = run_algorithm(kind, s, seq, model, policy, snapshots=True)
    final = report.final_state
    assert (s.order, s.freq) == (list(order), counters)
    assert final.order is not s.order and final.freq is not s.freq
    if report.steps:
        last = report.steps[-1]
        assert final == ListState(list(last.list_after), dict(zip(last.list_after, last.freq_after)))
    else:
        assert final == s
    if kind in (AlgorithmKind.MTF, AlgorithmKind.TRANS):
        assert final.freq == counters


@settings(max_examples=300, deadline=None)
@given(counted_or_run_heavy(max_n=24), st.sampled_from(CONFIGURATIONS), st.sampled_from([FULL, PARTIAL]))
def test_whole_run_and_step_at_a_time_agree(case, configuration, model):
    """A run without a trace (served whole in one kernel call), a traced run
    and a run with snapshots (both served a step at a time) end with the same
    total and state, and the traced steps charge that total between them."""
    order, freq, seq = case
    kind, policy = configuration
    s = ListState(list(order), dict(zip(order, freq)))
    plain = run_algorithm(kind, s, seq, model, policy, keep_trace=False)
    traced = run_algorithm(kind, s, seq, model, policy)
    stepped = run_algorithm(kind, s, seq, model, policy, snapshots=True)
    for report in (traced, stepped):
        assert (report.total_cost, report.final_state) == (plain.total_cost, plain.final_state)
        assert sum(step_costs(report)) == report.total_cost
        assert sum(consumed_counts(report)) == len(seq)
    assert [(r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in stepped.steps] == [
        (r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in traced.steps
    ]


def run_free(alphabet, length):
    """``length`` Zipf requests over ``alphabet``, none of which repeats the one before it."""
    requests = generate_sequence(alphabet, 2 * length, Zipf(1.0), seed=3)
    return [r for r, previous in zip(requests, [None] + requests) if r != previous][:length]


# name: (list size, the requests over that list); the last two straddle the selection of
# FC's run loop, which reads a call's first 4,096 requests
WHOLE_CALLS = {
    "zipf": (64, lambda a: generate_sequence(a, 3000, Zipf(1.0), seed=3)),
    "runs": (64, lambda a: generate_sequence(a, 3000, RunLengths(4.0), seed=3)),
    "long-runs": (4, lambda a: generate_sequence(a, 3000, RunLengths(64.0), seed=3)),
    "run-free-then-runs": (64, lambda a: run_free(a, 4096) + generate_sequence(a, 3000, RunLengths(8.0), seed=3)),
    "runs-then-run-free": (64, lambda a: generate_sequence(a, 4096, RunLengths(8.0), seed=3) + run_free(a, 3000)),
}


@pytest.mark.parametrize("first", [0, 200], ids=["bytes", "wide"])
@pytest.mark.parametrize("model", [FULL, PARTIAL])
@pytest.mark.parametrize("inputs", list(WHOLE_CALLS))
@pytest.mark.parametrize("label", ["mtf", "trans", "fc", "vfc[literal]", "vfc[strict]"])
def test_indexed_whole_call_matches_scanning_one_step_calls(label, inputs, model, first):
    """On a 64-symbol list (4 for the long runs), one call a step, which
    scans the list, one kernel call over the whole sequence as a Python list,
    which scans it too, and one over the same requests as ``bytes``, which is
    bytewise: it looks symbols up in a 256-slot list (TRANS, FC's loop) or in
    the list packed into bytes (MTF). All charge the same total and leave the
    same order and counters. FC's loop serves the bytes run by run when at
    least half its first 4,096 requests repeat the one before, so the long
    runs hold s at the head for dozens of repeats there. The symbols from
    200 on run past 255, so they cannot be bytes, and only the scanning
    calls run. The property-based tests' lists hold at most five symbols."""
    size, generate = WHOLE_CALLS[inputs]
    alphabet = list(range(first, first + size))
    sequence = generate(alphabet)
    if first == 0:
        by_runs = listlab.algorithms._runs(bytes(sequence), 0, len(sequence)) is not None
        assert by_runs == (inputs in ("runs", "long-runs", "runs-then-run-free"))
    serve = listlab.algorithms._KERNELS[label]
    costs = listlab.algorithms._access_costs(model, len(alphabet))
    calls = [(sequence, 1), (sequence, len(sequence))] + ([(bytes(sequence), len(sequence))] if first == 0 else [])
    runs = []
    for requests, step in calls:
        order, neg, cursor, total = alphabet[:], [0] * len(alphabet), 0, 0
        while cursor < len(requests):
            cursor, cost = serve(order, neg, requests, cursor, cursor + step, costs)
            total += cost
        runs.append((total, order, neg))
    assert runs[1:] == runs[:1] * (len(runs) - 1)


@pytest.mark.parametrize("configuration", CONFIGURATIONS, ids=lambda c: f"{c[0].value}-{c[1].value}")
def test_whole_run_reads_byte_values_however_they_come(configuration):
    """``run_algorithm`` serves a list of byte values as ``bytes``, bytewise, and an
    ``array('H')`` of them as it is, scanning; all three runs agree. ``bytes()`` of
    the array would copy its two-byte items, so every request would read wrong."""
    kind, policy = configuration
    alphabet = list(range(40, 60))
    requests = generate_sequence(alphabet, 2000, RunLengths(3.0), seed=5)
    reports = [run_algorithm(kind, state(alphabet), sequence, FULL, policy, keep_trace=False)
               for sequence in (requests, bytes(requests), array("H", requests))]
    assert reports[1:] == reports[:1] * 2


@pytest.mark.parametrize("label", ["mtf", "trans", "fc", "vfc[literal]", "vfc[strict]"])
@pytest.mark.parametrize(
    "order,sequence,absent",
    [
        ((1, 2), bytes((1, 2, 2, 1, 9, 1, 9)), (9, 4)),
        ((1, 2), bytearray((1, 2, 2, 1, 9, 1, 9)), (9, 4)),
        # a list indexed by -1 would read the last slot, 255's; a whole call on a tuple scans
        ((0, 255), (0, 255, 0, -1), (-1, 3)),
        ((0, 255), (0, 255, 256), (256, 2)),
        ((-1, 1), bytes((1, 1, 255)), (255, 2)),  # and -1, swapped back, would rewrite 255's slot
    ],
    ids=["bytes", "bytearray", "minus-one", "past-255", "listed-minus-one"],
)
def test_whole_call_raises_for_the_first_unlisted_request(label, order, sequence, absent):
    """A whole call, bytewise on bytes and scanning on a tuple, raises
    ``SymbolNotInList`` naming the first unlisted request and its index: an
    unlisted byte finds no slot, and no request outside 0..255 is served
    as the symbol whose slot it would wrap around to."""
    serve = listlab.algorithms._KERNELS[label]
    with pytest.raises(SymbolNotInList) as exc:
        serve(list(order), [0] * len(order), sequence, 0, len(sequence), listlab.algorithms._access_costs(FULL, 2))
    assert (exc.value.symbol, exc.value.request_index) == absent


def _strict_one_step_calls(sequence, costs):
    """Strict VFC from the list 1, 2, 3, all counters zero, its kernel called once a step: (total, order, neg)."""
    serve = listlab.algorithms._KERNELS["vfc[strict]"]
    order, neg, cursor, total = [1, 2, 3], [0, 0, 0], 0, 0
    while cursor < len(sequence):
        cursor, cost = serve(order, neg, sequence, cursor, cursor + 1, costs)
        total += cost
    return total, order, neg


@pytest.mark.parametrize("model", [FULL, PARTIAL])
def test_strict_kernel_split_anywhere_matches_one_step_calls(model):
    """On every sequence at (3,7), strict VFC's kernel called over ``[0, a)``
    and then from the cursor it returns to the end, at every split point a,
    ends with the total, order and counters of one call a step: the first
    call serves its runs but the last through FC's loop and settles their
    batches after the fact, and the second may start inside a run."""
    serve = listlab.algorithms._KERNELS["vfc[strict]"]
    costs = listlab.algorithms._access_costs(model, 3)
    for instance in enumerate_instances(3, 7, model):
        sequence = instance.sequence
        expected = _strict_one_step_calls(sequence, costs)
        for a in range(len(sequence) + 1):
            order, neg = [1, 2, 3], [0, 0, 0]
            cursor, first = serve(order, neg, sequence, 0, a, costs)
            end, second = serve(order, neg, sequence, cursor, len(sequence), costs)
            assert (end, (first + second, order, neg)) == (len(sequence), expected), (sequence, a)


@pytest.mark.parametrize(
    "sequence,model,total,order,counters,fc",
    [
        # the last run's batch is cut at the end: 3 jumps to the head, where FC's climbs stop at index 1
        ((1, 1, 1, 3, 3, 3), FULL, 8, (3, 1, 2), (3, 3, 0), (10, (1, 3, 2), (3, 3, 0))),
        # 3 ties the head's counter 1 and jumps it: budget 2, the repeat charged one unit where FC pays 0
        ((1, 3, 3, 2), PARTIAL, 5, (3, 1, 2), (2, 1, 1), (4, (3, 1, 2), (2, 1, 1))),
    ],
    ids=["cut-batch", "head-tie-budget-2"],
)
def test_strict_whole_run_batches_as_steps_do(sequence, model, total, order, counters, fc):
    """A whole strict run, served through FC's loop up to its last run, ends
    where one call a step does, on a cut batch and on a budget-2 batch."""
    costs = listlab.algorithms._access_costs(model, 3)
    assert _strict_one_step_calls(sequence, costs) == (total, list(order), [-c for c in counters])
    for kind, expected in ((AlgorithmKind.VFC, (total, order, counters)), (AlgorithmKind.FC, fc)):
        report = run_algorithm(kind, state((1, 2, 3)), sequence, model, STRICT, keep_trace=False)
        final = report.final_state
        assert (report.total_cost, tuple(final.order), tuple(final.freq[s] for s in final.order)) == expected


class TestUnsortedCounters:
    """FC and VFC place by binary search, which needs counters that never
    increase along the list; MTF and TRANS never read counters."""

    RISING = (0, 3, 1)

    @pytest.mark.parametrize(
        "kind,policy",
        [(AlgorithmKind.FC, LITERAL), (AlgorithmKind.VFC, LITERAL), (AlgorithmKind.VFC, STRICT)],
    )
    def test_counting_engines_reject(self, kind, policy):
        with pytest.raises(UnsortedCounters):
            run_algorithm(kind, state([1, 2, 3], self.RISING), (3, 1), FULL, policy)

    def test_single_steps_reject(self):
        with pytest.raises(UnsortedCounters):
            run_algorithm(AlgorithmKind.FC, state([1, 2, 3], self.RISING), (1,))
        with pytest.raises(UnsortedCounters):
            run_algorithm(AlgorithmKind.VFC, state([1, 2, 3], self.RISING), (1, 1))
        with pytest.raises(UnsortedCounters):
            # rising ahead of the accessed element, whatever its own counter
            run_algorithm(AlgorithmKind.FC, state([1, 2, 3, 4], (0, 3, 1, 4)), (4,))

    @pytest.mark.parametrize("kind,total", [(AlgorithmKind.MTF, 3 + 2), (AlgorithmKind.TRANS, 3 + 1)])
    def test_mtf_and_trans_accept(self, kind, total):
        report = run_algorithm(kind, state([1, 2, 3], self.RISING), (3, 1), FULL)
        assert report.total_cost == total
        assert report.final_state.freq == {1: 0, 2: 3, 3: 1}


@st.composite
def oracle_instance(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    order = tuple(draw(st.permutations(range(1, m + 1))))
    seq = draw(st.lists(st.sampled_from(order), max_size=MAX_ENUM_SEQ))
    return SmallInstance(order, tuple(seq), draw(st.sampled_from([FULL, PARTIAL])))


@settings(max_examples=300, deadline=None)
@given(oracle_instance())
def test_fc_step_costs_match_reference(inst):
    report = run_algorithm(AlgorithmKind.FC, inst.to_state(), inst.sequence, inst.model)
    assert step_costs(report) == naive_fc_step_costs(inst)
    # served whole, so a repeat takes the kernel's repeat branch
    whole = run_algorithm(AlgorithmKind.FC, inst.to_state(), inst.sequence, inst.model, keep_trace=False)
    assert whole.total_cost == sum(step_costs(report))


# Totals of every engine configuration over the surrogate corpus texts
# (spaces and line breaks stripped, list in first-occurrence order, full cost
# model), recorded from the prefix-scan engines that the binary-search
# placement replaced: (requests, mtf, trans, fc, vfc[literal], vfc[strict]).
SURROGATE_TOTALS = {
    "surrogate-trans": (51202, 466144, 365220, 350523, 75397, 350521),
    "surrogate-book1": (51203, 521591, 414042, 397791, 79932, 397791),
    "surrogate-news": (51207, 597344, 456295, 439522, 76292, 439520),
    "surrogate-bib": (58835, 879392, 639223, 614433, 103103, 614433),
    "surrogate-paper1": (51203, 496239, 388456, 372989, 73157, 372988),
    "surrogate-progp": (51292, 779651, 541115, 515636, 88309, 515636),
    "surrogate-progc": (51225, 820928, 564279, 539957, 92384, 539954),
    "surrogate-geo": (58873, 1768680, 1387419, 1357641, 104719, 1357641),
}


def test_surrogate_corpus_totals():
    engines = [
        (AlgorithmKind.MTF, LITERAL),
        (AlgorithmKind.TRANS, LITERAL),
        (AlgorithmKind.FC, LITERAL),
        (AlgorithmKind.VFC, LITERAL),
        (AlgorithmKind.VFC, STRICT),
    ]
    totals = {}
    for name, raw in surrogate_corpus().items():
        sequence = preprocess(raw)
        initial = derive_list(sequence)
        totals[name] = (len(sequence),) + tuple(
            run_algorithm(kind, initial, sequence, FULL, policy, keep_trace=False).total_cost
            for kind, policy in engines
        )
    assert totals == SURROGATE_TOTALS
