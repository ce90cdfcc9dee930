"""Reference implementations for validating the engines on small instances.

``naive_fc_step_costs`` and ``naive_vfc_steps`` re-implement the
frequency-count and VFC service loops directly over (symbol, counter) pairs,
one ``_fc_step`` a step; they share no state or helpers with the engines
they cross-check. ``opt_free_exchange_cost`` is the offline optimum
restricted to free exchanges (after each access the accessed element may
move closer to the front at zero cost), computed by the forward dynamic
program of Reingold & Westbrook (IPL 1996) over the list orders, each order
a row of a transition table cached per starting list. The unrestricted
optimum could also use paid exchanges and is never larger, so the value
computed here upper-bounds it. That is the safe direction for every check
in :func:`verify_engines`: the engines use free exchanges only, hence cost
at least the free-exchange optimum, and Sleator & Tarjan's move-to-front
bound (CACM 1985), ``MTF <= 2 * OPT - n`` over n requests (``2 * OPT`` under
the partial model), only gets weaker when OPT is replaced by an upper bound.

One deliberate exception: dominance over the optimum is a theorem only for
engines that actually serve every request. A LITERAL-policy VFC batch may
swallow requests for other symbols at one unit each without ever visiting
their list positions, and that can legitimately land below the optimum of
any true serving strategy (requests (1,1,2,1,2) on list (1,2,3) cost 6
against an optimum of 7). Strict-policy batches consume only repeats of the
accessed symbol. Accessing it at p, moving it to the front for free and
serving the other B - 1 repeats at the head costs p + (B - 1) under the full
model, the batch's charge, and p - 1 under the partial one, at most the
batch's (p - 1) + (B - 1). That strategy leaves the list an uncut batch
leaves (:mod:`listlab.algorithms`), and a cut one ends the run. So no charge
is below a serving strategy's cost, dominance holds for strict VFC under both
models, and the check covers MTF, TRANS, FC and strict VFC on every instance,
and literal VFC only on runs whose batches swallowed nothing.

The instances come in lexicographic order, so the one before each instance is
its parent (the instance one request shorter) or extends it. Rather than
rerun the engines per instance, the walk keeps what serving each prefix of
the current instance left and extends the parent's state by one request,
driving the kernels of ``algorithms.CONFIGURATIONS``, read at each call of
:func:`verify_engines`, one step a call. A run's state is a tuple ``(order,
neg, cursor, total, unsorted, batches, swallowed)``: the list, its negated
counters, the requests consumed, the cost charged, the first step after which
the counters increase, a (cursor after, detail) pair per batch that left
another head, and whether a batch swallowed a request for another symbol.
MTF, TRANS and FC are online, so that state is the prefix's own: they are not
served again. A VFC step reads a window of later requests, clipped at the
sequence's end, so the chain commits only steps whose unclipped window lies
in the prefix, and each instance serves the rest over its own end. Both
references are online too: each prefix keeps the FC reference's (symbol,
counter) entries and total and OPT's ``reach``, moved one request forward by
the steps of ``naive_fc_step_costs`` and ``opt_free_exchange_cost``. Nothing
extends a leaf, an instance of the bound's length, so it commits nothing, and
its OPT is the least ``reach[at]`` plus the request's index in order ``at``
and the head's cost: every order may leave the requested element in place, so
the last free exchanges cannot lower it. A slip in the chain would feed both
sides of every check, so the per-instance functions stay its oracle: the
tests compare the two on every instance at small bounds.

On three families the walk recomputes both references from scratch, and
when the instance passes every check (a fault a check sees is reported as
its counterexample) it runs each configuration whole, once, and VFC's
reference too; only there is a VFC charge bounded from above. On
``(m,) * k``, the last instance of its length and a leaf at ``k = n_max``,
a whole run reaches the repeat branches of FC's and MTF's loops, which
one-step calls never take. A whole run of more than m requests is bytewise
(:mod:`listlab.algorithms`), so the last request of ``(m,) * (k - 1) + (1,)``
reads a slot that a promotion or a swap rewrote. Neither batches, but
``(1,) + (2,) * (k - 2) + (1,)`` for k >= 4 does: both policies batch its
first two 2s, and a whole strict run settles that batch in FC's loop. A
bytewise call of FC's loop serves run by run when at least half its requests
repeat the one before: on ``(m,) * k``, on ``(m,) * (k - 1) + (1,)`` from
k = 4 and on ``(1,) + (2,) * (k - 2) + (1,)`` from k = 6, where strict's
hand-off, from k = 5, settles the batch in the run loop. Shorter bytewise
calls take FC's request loop.
"""

import itertools
from bisect import insort
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from . import algorithms  # the walk reads CONFIGURATIONS and _access_costs through it, so one patch reaches every run
from .algorithms import VfcPolicy, run_algorithm
from .listcore import (CostModel, InvalidListState, ListLabError, ListState, RequestSequence, Symbol, SymbolNotInList,
                       _Frozen, _Record)

# the largest list and sequence a SmallInstance holds, and so verify's bounds
MAX_ENUM_LIST = 6
MAX_ENUM_SEQ = 9
# counterexamples kept per check; later ones are dropped
FAILURE_LIMIT = 5
# the free exchanges from every order of one list, built by _exchanges
_Table = Mapping[Symbol, tuple[tuple[int, tuple[int, ...]], ...]]
# a VFC step: (request, position_before, cost_charged, requests_consumed)
_Step = tuple[Symbol, int, int, int]


class BoundsExceeded(ListLabError):
    """An instance or an enumeration exceeds ``MAX_ENUM_LIST`` symbols or ``MAX_ENUM_SEQ`` requests."""


class SmallInstance(_Frozen):
    """A tiny benchmark case: initial list order (all counters zero), the
    request sequence, and the cost model (a ``CostModel`` or its value)."""

    _fields = ("order", "sequence", "model")

    def __init__(self, order: tuple[Symbol, ...], sequence: tuple[Symbol, ...], model: CostModel = CostModel.FULL):
        vars(self).update(order=tuple(order), sequence=tuple(sequence), model=CostModel(model))
        if len(self.order) > MAX_ENUM_LIST:
            raise BoundsExceeded(f"list size {len(self.order)} exceeds {MAX_ENUM_LIST}")
        if len(self.sequence) > MAX_ENUM_SEQ:
            raise BoundsExceeded(f"sequence length {len(self.sequence)} exceeds {MAX_ENUM_SEQ}")
        if len(set(self.order)) != len(self.order):  # the two oracles would disagree on the list
            raise InvalidListState("list symbols must be pairwise distinct")

    def to_state(self) -> ListState:
        return ListState.from_order(self.order)


def naive_fc_step_costs(instance: SmallInstance) -> list[int]:
    """Per-request costs of frequency count, evaluated by the direct rule."""
    head = _head_cost(instance.model)
    entries = [(s, 0) for s in instance.order]
    return [_fc_step(entries, request, index, head) for index, request in enumerate(instance.sequence)]


def naive_fc_cost(instance: SmallInstance) -> int:
    """Total frequency-count cost per the independent reference loop."""
    return sum(naive_fc_step_costs(instance))


def opt_free_exchange_cost(instance: SmallInstance) -> int:
    """Minimum total cost over all free-exchange serving strategies.

    One pass over the requests; ``reach`` maps each list order (by index)
    some strategy can hold after the requests so far to its least cost.
    """
    head = _head_cost(instance.model)
    table = _exchanges(instance.order)
    reach = {0: 0}
    for index, request in enumerate(instance.sequence):
        reach = _opt_step(reach, table, request, index, head)
    return min(reach.values())


def _head_cost(model: CostModel) -> int:
    """What both references charge at the front; they share no cost helper with the engines."""
    return 1 if model is CostModel.FULL else 0


def naive_vfc_steps(order: tuple[Symbol, ...], freq: list[int], sequence: RequestSequence, model: CostModel,
                    policy: VfcPolicy) -> list[_Step]:
    """VFC's steps from ``order`` with the counters ``freq``, served by the direct rule (see ``_vfc_steps``)."""
    return _vfc_steps(list(zip(order, freq)), sequence, _head_cost(CostModel(model)), VfcPolicy(policy))


def _vfc_steps(entries: list[tuple[Symbol, int]], sequence: RequestSequence, head: int,
               policy: VfcPolicy) -> list[_Step]:
    """Serve ``sequence`` on ``entries`` in place, one ``_fc_step`` a step, by
    the :mod:`listlab.algorithms` rule: below the head's counter, the request's
    counter g opens a window of the ``f_head - g`` requests after it, clipped
    at the end; LITERAL fires when the request is in it, STRICT when it is
    non-empty and holds the request alone, and the step consumes it too."""
    steps, cursor = [], 0
    while cursor < len(sequence):
        request = sequence[cursor]
        g = dict(entries).get(request)  # an absent request opens no window, and _fc_step raises
        window = () if g is None else sequence[cursor + 1 : cursor + 1 + entries[0][1] - g]
        fires = request in window if policy is VfcPolicy.LITERAL else set(window) == {request}
        block = 1 + len(window) if fires else 1
        cost = _fc_step(entries, request, cursor, head, block)
        steps.append((request, cost - head - block + 2, cost, block))  # charged k + head + block - 1 at index k
        cursor += block
    return steps


def _fc_step(entries: list[tuple[Symbol, int]], request: Symbol, index: int, head: int, block: int = 1) -> int:
    """Serve ``request``, the one at ``index``, and the ``block - 1`` requests
    consumed with it on the (symbol, counter) ``entries`` in place by the
    direct rule; return the charge, the access cost plus ``block - 1``."""
    k = next((i for i, e in enumerate(entries) if e[0] == request), None)
    if k is None:
        raise SymbolNotInList(request, index)
    f = entries[k][1] + block
    entries[k] = (request, f)
    for i in range(k):
        # entries[i + 1] may be the accessed entry itself, counter updated
        if f > entries[i][1] or (f == entries[i][1] and f > entries[i + 1][1]):
            entries.insert(i, entries.pop(k))
            break
    return k + head + block - 1


def _opt_step(reach: dict[int, int], table: _Table, request: Symbol, index: int, head: int) -> dict[int, int]:
    """``reach`` after serving ``request``, the one at ``index``, then making
    each free exchange that ``table`` lists for it."""
    rows = table.get(request)
    if rows is None:
        raise SymbolNotInList(request, index)
    after: dict[int, int] = {}
    for at, cost in reach.items():
        i, targets = rows[at]
        cost += i + head
        for to in targets:
            if to not in after or cost < after[to]:
                after[to] = cost
    return after


@lru_cache(maxsize=32)  # a verify run reads one list order
def _exchanges(order: tuple[Symbol, ...]) -> _Table:
    """Per symbol, a row per permutation of ``order`` (by index, ``order``
    first): the symbol's index there and the permutations its free exchanges leave."""
    orders = list(itertools.permutations(order))
    index = {o: k for k, o in enumerate(orders)}
    table: dict[Symbol, list] = {s: [] for s in order}
    for o in orders:
        for i, s in enumerate(o):
            rest = o[:i] + o[i + 1 :]
            table[s].append((i, tuple(index[rest[:to] + (s,) + rest[to:]] for to in range(i + 1))))
    return MappingProxyType({s: tuple(rows) for s, rows in table.items()})


def enumerate_instances(m: int, n_max: int, model: CostModel = CostModel.FULL) -> Iterator[SmallInstance]:
    """Every sequence over the alphabet {1..m} up to length ``n_max``, each
    paired with the identity-ordered zero-counter list, in lexicographic
    order, each after its proper prefixes: (), (1,), (1, 1), ..., (m,) * n_max."""
    if not 1 <= m <= MAX_ENUM_LIST:
        raise BoundsExceeded(f"list size {m} not in 1..{MAX_ENUM_LIST}")
    if not 0 <= n_max <= MAX_ENUM_SEQ:
        raise BoundsExceeded(f"sequence bound {n_max} not in 0..{MAX_ENUM_SEQ}")
    return _preorder(tuple(range(1, m + 1)), n_max, CostModel(model))


def _preorder(alphabet: tuple[Symbol, ...], n_max: int, model: CostModel) -> Iterator[SmallInstance]:
    """The instances over ``alphabet`` up to length ``n_max``, depth first, in lexicographic order.
    Their bounds and list hold by construction, so they skip ``SmallInstance.__init__``'s checks."""
    stack = [()]
    while stack:
        seq = stack.pop()
        instance = SmallInstance.__new__(SmallInstance)
        vars(instance).update(order=alphabet, sequence=seq, model=model)
        yield instance
        if len(seq) < n_max:
            stack.extend([seq + (s,) for s in reversed(alphabet)])


CHECKS = (
    "fc-matches-reference",
    "opt-dominates-engines",
    "mtf-within-twice-opt",
    "fc-vfc-conservation",
    "full-model-lower-bound",
    "frequencies-non-increasing",
    "batch-promotes-to-head",
)
# the checks that hold only when accessing the head costs one
FULL_MODEL_CHECKS = ("full-model-lower-bound",)
# a run after some requests: (order, neg, cursor, total, unsorted, batches, swallowed); see the module docstring
_State = tuple[list[Symbol], list[int], int, int, str | None, tuple[tuple[int, str], ...], bool]


class CheckResult(_Record):
    _fields = ("name", "instances", "failures")

    def __init__(self, name: str, instances: int, failures: list[str]) -> None:
        self.name, self.instances, self.failures = name, instances, failures

    @property
    def passed(self) -> bool:
        return not self.failures


class VerificationReport(_Record):
    _fields = ("checks", "instances")

    def __init__(self, checks: list[CheckResult], instances: int) -> None:
        self.checks, self.instances = checks, instances

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status} {check.name} ({check.instances} instances)")
            lines.extend(f"  counterexample: {f}" for f in check.failures)
        return lines


def verify_engines(
    max_list_size: int = 3,
    max_seq_len: int = 6,
    model: CostModel | str = CostModel.FULL,
) -> VerificationReport:
    """Exhaustive cross-check of every engine configuration against the oracles.

    Per instance: the FC engine must match the independent reference total;
    the free-exchange optimum must not exceed the total of any engine that
    served every request (see the module docstring for why a swallowing
    literal-VFC run is exempt); MTF must obey Sleator & Tarjan's bound; FC
    and VFC runs must conserve counters and list membership and consume each
    request exactly once; totals must be at least the request count;
    counters along the list must be non-increasing after every step; an
    uncut batched step must leave the batched symbol at the head. The checks
    in ``FULL_MODEL_CHECKS`` run only under the full model. Each check keeps
    its ``FAILURE_LIMIT`` shortest counterexamples, those of one length in
    the walk's order and those of one instance in ``_failures`` order.

    Returns every check's result and the instance count. Raises
    ``RuntimeError`` (exit 3) naming the instance if the walk's references
    disagree with a pass from scratch, or a whole rerun breaks its list or
    disagrees with the walk, or VFC with its reference, and naming the
    configuration and the sequence if a step of the walk lost a symbol.
    """
    model = CostModel(model)
    # the table, read at each call, as (label, kernel, lookahead, counting, kind, policy), faster to unpack
    configs = [(k, c.serve, c.lookahead, c.counting, c.kind, c.policy) for k, c in algorithms.CONFIGURATIONS.items()]
    failures: dict[str, list[tuple[int, str]]] = {name: [] for name in CHECKS}  # (length, line)
    total = 0
    for instance, runs, reference, opt in _prefix_runs(max_list_size, max_seq_len, model, configs):
        total += 1
        n = len(instance.sequence)
        for name, detail in _failures(instance, configs, runs, reference, opt):
            kept = failures[name]
            if len(kept) < FAILURE_LIMIT or n < kept[-1][0]:  # insort puts it after every kept line of length n
                insort(kept, (n, f"order={instance.order} seq={instance.sequence}: {detail}"), key=lambda k: k[0])
                del kept[FAILURE_LIMIT:]
    skipped = () if model is CostModel.FULL else FULL_MODEL_CHECKS
    checks = [CheckResult(name, 0 if name in skipped else total, [f for _, f in failures[name]]) for name in CHECKS]
    return VerificationReport(checks, total)


def _served(run: _State, config: tuple, sequence: RequestSequence, costs: list[int], committed: bool) -> _State:
    """``run``, a state of ``config``, after ``sequence``, its kernel driven one
    step a call, so windows clip at the end; ``committed`` stops at the first
    window reaching past the end, so every step taken holds for any extension."""
    order, neg, cursor, total, unsorted, batches, swallowed = run
    end = len(sequence)
    if cursor == end:  # every request is served: nothing to copy
        return run
    label, serve, lookahead, counting, _, _ = config
    order = order[:]  # the chain shares the run's lists
    if counting:
        neg = neg[:]
    try:
        while cursor < end:
            request = sequence[cursor]
            # the unclipped window ends at cursor + |g - f_head| + 1; a step
            # with no window (head counter <= g) ends by cursor + 1 <= end
            if committed and lookahead and cursor - neg[0] + neg[order.index(request)] + 1 > end:
                break
            after, cost = serve(order, neg, sequence, cursor, cursor + 1, costs)
            total += cost
            if counting:
                if unsorted is None and neg != sorted(neg):
                    unsorted = f"{label} counters {tuple(-c for c in neg)} after serving {request}"
                if after - cursor > 1:
                    if order[0] != request:
                        batches += ((after, f"{label} batch on {request} left head {order[0]}"),)
                    swallowed |= sequence[cursor:after].count(request) != after - cursor
            cursor = after
    except ValueError as err:  # a scan missed, in the kernel or the window test: one-step calls build no slots
        # every request is listed, so a step lost a symbol; the walk's instances differ only in sequence
        raise RuntimeError(f"{label} lost a symbol of the list serving seq={sequence}: {err}") from None
    return order, neg, cursor, total, unsorted, batches, swallowed


def _prefix_runs(m: int, n_max: int, model: CostModel,
                 configs: list[tuple]) -> Iterator[tuple[SmallInstance, list[_State], int, int]]:
    """Yield each instance of ``enumerate_instances`` with the runs of
    ``configs`` after serving it, the FC reference's total and OPT. ``chain[k]``
    holds what the first k requests of the previous instance left: its runs,
    each committed, the FC reference's (symbol, counter) entries and total, and
    OPT's ``reach``."""
    costs = algorithms._access_costs(model, m)
    head = _head_cost(model)
    # the instances rerun from scratch: see the module docstring
    reruns = ({(m,) * n for n in range(n_max + 1)} | {(m,) * n + (1,) for n in range(1, n_max)}
              | {(1,) + (2,) * n + (1,) for n in range(2, n_max - 1)})
    chain: list[tuple[list[_State], list[tuple[Symbol, int]], int, dict[int, int]]] = []
    for instance in enumerate_instances(m, n_max, model):
        sequence = instance.sequence
        n = len(sequence)
        if chain:
            del chain[n:]
            runs, entries, reference, reach = chain[-1]
            request = sequence[-1]
            entries = entries[:]
            reference += _fc_step(entries, request, n - 1, head)
            # a leaf commits nothing, as nothing extends it (see the module docstring)
            runs = [_served(run, config, sequence, costs, n < n_max) for run, config in zip(runs, configs)]
            if n < n_max:
                reach = _opt_step(reach, table, request, n - 1, head)
                chain.append((runs, entries, reference, reach))
                opt = min(reach.values())
                # the online configurations' committed runs are already this instance's
                runs = [_served(run, config, sequence, costs, False) if config[2] else run
                        for run, config in zip(runs, configs)]
            else:
                rows = table[request]
                opt = min([cost + rows[at][0] for at, cost in reach.items()]) + head
        else:  # the empty instance comes first; every instance starts from its list, all counters zero
            table = _exchanges(instance.order)
            runs = [(list(instance.order), [0] * m, 0, 0, None, (), False)] * len(configs)
            reference = opt = 0
            chain.append((runs, [(s, 0) for s in instance.order], 0, {0: 0}))
        if sequence in reruns:
            chained = (reference, opt)
            expected = (naive_fc_cost(instance), opt_free_exchange_cost(instance))
            if chained != expected:
                raise RuntimeError(f"{instance}: the prefix chain gives (reference, opt) {chained}, "
                                   f"a pass from scratch {expected}")
        # the engines' reruns look for faults no check sees: one that a check sees here is its counterexample
        if sequence in reruns and not any(_failures(instance, configs, runs, reference, opt)):
            for (label, _, lookahead, _, kind, policy), (order, neg, _, total, *_) in zip(configs, runs):
                walked = ListState(order, dict(zip(order, [-c for c in neg])))
                try:
                    whole = run_algorithm(kind, instance.to_state(), sequence, model, policy, keep_trace=False)
                except RuntimeError as err:
                    raise RuntimeError(f"{instance}: a whole run: {err}") from None
                if (total, walked) != (whole.total_cost, whole.final_state):
                    raise RuntimeError(f"{instance}: {label} walks to total {total}, {walked}; "
                                       f"a whole run to total {whole.total_cost}, {whole.final_state}")
                if lookahead:  # VFC
                    entries = [(s, 0) for s in instance.order]
                    cost = sum(step[2] for step in _vfc_steps(entries, sequence, head, policy))
                    final = ListState([s for s, _ in entries], dict(entries))
                    if (cost, final) != (total, walked):
                        raise RuntimeError(f"{instance}: {label} runs to total {total}, {walked}; "
                                           f"the VFC reference to total {cost}, {final}")
        yield instance, runs, reference, opt


def _failures(instance: SmallInstance, configs: list[tuple], runs: list[_State], reference: int,
              opt: int) -> Iterator[tuple[str, str]]:
    """Yield (check, detail) for every check ``instance`` fails, given the runs of
    ``configs`` after serving it, the FC reference's total and OPT."""
    n = len(instance.sequence)
    mtf, trans, fc, literal, strict = named = [(config[0], run[3]) for config, run in zip(configs, runs)]

    if fc[1] != reference:
        yield "fc-matches-reference", f"engine {fc[1]} != reference {reference}"

    for (label, _, _, counting, _, _), (order, neg, cursor, _, unsorted, batches, _) in zip(configs, runs):
        if not counting:
            continue
        if sum(neg) != -n:
            yield "fc-vfc-conservation", f"{label} counter sum != {n}"
        if sorted(order) != sorted(instance.order):
            yield "fc-vfc-conservation", f"{label} lost or invented symbols"
        if unsorted is not None:
            yield "frequencies-non-increasing", unsorted
        # a cut-short batch always ends the run, so any batched step with
        # requests left behind it used its whole window
        for after, detail in batches:
            if after < n:
                yield "batch-promotes-to-head", detail
        if cursor != n:
            yield "fc-vfc-conservation", f"{label} consumed {cursor} of {n}"

    swallowed = runs[3][6]  # by literal VFC's batches
    for label, total in (mtf, trans, fc, strict) if swallowed else (mtf, trans, fc, strict, literal):
        if total < opt:
            yield "opt-dominates-engines", f"{label} total {total} < opt {opt}"

    full = instance.model is CostModel.FULL  # the full model's bound is n lower
    if mtf[1] > 2 * opt - n * full:
        yield "mtf-within-twice-opt", f"mtf {mtf[1]} > 2*opt{' - n' * full} = {2 * opt - n * full}"
    if full:
        for label, total in named:
            if total < n:
                yield "full-model-lower-bound", f"{label} total {total} < n {n}"
