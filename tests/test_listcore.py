import pytest
from hypothesis import given, strategies as st

from listlab import CostModel, ListState, PositionOutOfRange, access_cost

FULL = CostModel.FULL
PARTIAL = CostModel.PARTIAL


def state(order, freq=None):
    return ListState.from_order(order, freq)


class TestListState:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            state([1, 2, 1])

    def test_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            ListState([1, 2], {1: 0, 2: -1})

    def test_rejects_missing_counter(self):
        with pytest.raises(ValueError):
            ListState([1, 2], {1: 0})

    def test_positional_counters(self):
        s = state([5, 6, 7], (3, 1, 0))
        assert s.freq == {5: 3, 6: 1, 7: 0}
        assert s.frequencies_in_order() == (3, 1, 0)

    def test_from_order_refuses_counters_keyed_by_symbol(self):
        # a dict would otherwise be zipped by its keys, as if they were counters
        with pytest.raises(TypeError):
            state([5, 6], {5: 1, 6: 0})

    def test_copy_is_independent(self):
        s = state([1, 2, 3])
        c = s.copy()
        c.order.reverse()
        c.freq[1] = 9
        assert s.order == [1, 2, 3]
        assert s.freq[1] == 0


class TestAccessCost:
    @pytest.mark.parametrize(
        "model,position,expected",
        [(FULL, 3, 3), (PARTIAL, 3, 2), (PARTIAL, 1, 0), (FULL, 1, 1)],
    )
    def test_models(self, model, position, expected):
        assert access_cost(model, position) == expected

    def test_rejects_zero_position(self):
        with pytest.raises(PositionOutOfRange):
            access_cost(FULL, 0)

    @given(st.integers(min_value=1, max_value=1000))
    def test_full_is_partial_plus_one(self, position):
        assert access_cost(FULL, position) == access_cost(PARTIAL, position) + 1

    @given(st.integers(min_value=1, max_value=999))
    def test_strictly_increasing(self, position):
        for model in (FULL, PARTIAL):
            assert access_cost(model, position + 1) > access_cost(model, position)
