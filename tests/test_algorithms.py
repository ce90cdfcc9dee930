from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import listlab.algorithms
from listlab import (
    AlgorithmKind,
    CostModel,
    ListState,
    SmallInstance,
    SymbolNotInList,
    UnsortedCounters,
    VfcPolicy,
    access_cost,
    derive_list,
    naive_fc_step_costs,
    preprocess,
    run_algorithm,
)

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


BATCH_THEN_REPEAT = [(2, 2, 4, 3), (2, 1, 1, 1), (1, 2, 2, 1)]
NO_WINDOW_THEN_REPEATS = [(2, 2, 2, 1), (2, 1, 1, 1), (2, 1, 1, 1)]


class TestVfcRepeats:
    """Requests that repeat the symbol just served, on the list 1, 2, ...
    with the given counters under FULL. A whole run serves them at the index
    the last step left and a run with snapshots one call a step; both give
    these ``(request, position, cost, consumed)`` steps."""

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
        whole = run_algorithm(AlgorithmKind.VFC, state(order, freq), sequence, FULL, policy)
        stepped = run_algorithm(AlgorithmKind.VFC, state(order, freq), sequence, FULL, policy, snapshots=True)
        for report in (whole, stepped):
            assert [(r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in report.steps] == steps
            assert report.total_cost == sum(step[2] for step in steps)
        assert whole.final_state == stepped.final_state


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

    def test_vfc_absent_request_carries_index(self):
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 7), FULL)
        assert exc.value.request_index == 1

    def test_literal_batch_swallows_an_absent_request(self):
        # the batch on 2 at index 2 consumes (2, 9, 2), so the first request
        # served that is not listed is the 7, not the earlier 9
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 1, 2, 9, 2, 7), FULL, LITERAL)
        assert (exc.value.symbol, exc.value.request_index) == (7, 5)
        with pytest.raises(SymbolNotInList) as exc:
            run_algorithm(AlgorithmKind.VFC, state([1, 2]), (1, 1, 2, 9, 2, 7), FULL, STRICT)
        assert (exc.value.symbol, exc.value.request_index) == (9, 3)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS, ids=lambda c: f"{c[0].value}-{c[1].value}")
    @pytest.mark.parametrize("sequence,index", [((9, 1, 2), 0), ((2, 1, 2, 9), 3), ((9,), 0)])
    def test_absent_request_at_either_end(self, configuration, sequence, index):
        kind, policy = configuration
        for snapshots in (False, True):
            with pytest.raises(SymbolNotInList) as exc:
                run_algorithm(kind, state([1, 2]), sequence, FULL, policy, snapshots=snapshots)
            assert (exc.value.symbol, exc.value.request_index) == (9, index)

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
    report = run_algorithm(kind, state(order), seq, FULL)
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
    report = run_algorithm(AlgorithmKind.VFC, state(order), seq, FULL, policy)
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
        assert step.cost_charged == access_cost(model, position) + step.requests_consumed - 1
        after = step.list_after
        assert after.index(step.request) <= position - 1
        assert [s for s in after if s != step.request] == [s for s in before if s != step.request]
        before = after


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


def naive_vfc_steps(order, freq, sequence, model, policy):
    """VFC's ``(request, position_before, cost_charged, requests_consumed)``
    per step, by the rule in the ``algorithms`` docstring applied directly
    over ``(symbol, counter)`` entries: below the head's counter f_head, the
    request's counter g opens a window of the ``f_head - g`` requests after
    it; if the trigger fires, the request and its window (clipped at the end)
    are consumed as one block of B requests, charged the access cost plus
    B - 1, and g grows by B before the one FC reorganization."""
    entries = [[s, f] for s, f in zip(order, freq)]
    steps = []
    cursor = 0
    while cursor < len(sequence):
        request = sequence[cursor]
        k = [e[0] for e in entries].index(request)
        g, head = entries[k][1], entries[0][1]
        block = 1
        if g < head:
            window = sequence[cursor + 1 : cursor + 1 + head - g]
            if policy is LITERAL:
                fires = request in window
            else:
                fires = len(window) > 0 and all(r == request for r in window)
            if fires:
                block = 1 + len(window)
        steps.append((request, k + 1, (k + 1 if model is FULL else k) + block - 1, block))
        entries[k][1] = f = g + block
        for i in range(k):
            # entries[i + 1] may be the accessed entry itself, counter updated
            if f > entries[i][1] or (f == entries[i][1] and f > entries[i + 1][1]):
                entries.insert(i, entries.pop(k))
                break
        cursor += block
    return steps


@settings(max_examples=500, deadline=None)
@given(counted_or_run_heavy(), st.sampled_from([LITERAL, STRICT]), st.sampled_from([FULL, PARTIAL]))
def test_vfc_steps_match_reference(case, policy, model):
    order, freq, seq = case
    report = run_algorithm(AlgorithmKind.VFC, ListState(list(order), dict(zip(order, freq))), seq, model, policy)
    steps = [(r.request, r.position_before, r.cost_charged, r.requests_consumed) for r in report.steps]
    assert steps == naive_vfc_steps(order, freq, seq, model, policy)


@settings(max_examples=300, deadline=None)
@given(
    counted_or_run_heavy(max_n=16),
    st.sampled_from([(AlgorithmKind.FC, LITERAL), (AlgorithmKind.VFC, LITERAL), (AlgorithmKind.VFC, STRICT)]),
    st.sampled_from([FULL, PARTIAL]),
)
def test_promotion_search_runs_only_on_steps_that_move(case, configuration, model):
    """FC and VFC call ``_promote`` on exactly the steps whose list differs
    from the list the step found, whether the run is served whole or a step
    at a time. A call is matched to its step by the counter sum it finds,
    which grows by each step's consumed requests."""
    order, freq, seq = case
    kind, policy = configuration
    real = listlab.algorithms._promote
    calls = []

    def promote(order, neg, j, f):
        calls.append(-sum(neg))
        symbol = order[j]
        c = real(order, neg, j, f)
        assert order[c] == symbol
        return c

    # patched in the body, since hypothesis rejects function-scoped fixtures such as monkeypatch
    with mock.patch.object(listlab.algorithms, "_promote", promote):
        run_algorithm(kind, state(order, freq), seq, model, policy)
        whole, calls = calls, []
        report = run_algorithm(kind, state(order, freq), seq, model, policy, snapshots=True)
    moved, before, served = [], order, sum(freq)
    for step in report.steps:
        if step.list_after != before:
            moved.append(served)
        before, served = step.list_after, served + step.requests_consumed
    assert calls == moved
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
    """A run without a trace, a traced run and a run with snapshots (served a
    step at a time) end with the same total and state, and the traced steps
    charge that total between them."""
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
    seq = draw(st.lists(st.sampled_from(order), max_size=10))
    return SmallInstance(order, tuple(seq), draw(st.sampled_from([FULL, PARTIAL])))


@settings(max_examples=300, deadline=None)
@given(oracle_instance())
def test_fc_step_costs_match_reference(inst):
    report = run_algorithm(AlgorithmKind.FC, inst.to_state(), inst.sequence, inst.model)
    assert step_costs(report) == naive_fc_step_costs(inst)


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
