import pytest
from hypothesis import given, strategies as st

from listlab import CostModel, ListState, PositionOutOfRange, access_cost

FULL = CostModel.FULL
PARTIAL = CostModel.PARTIAL


class TestListState:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            ListState.from_order([1, 2, 1])

    def test_rejects_negative_counter(self):
        with pytest.raises(ValueError):
            ListState([1, 2], {1: 0, 2: -1})

    def test_rejects_missing_counter(self):
        with pytest.raises(ValueError):
            ListState([1, 2], {1: 0})


class TestAccessCost:
    @pytest.mark.parametrize(
        "model,position,expected",
        # a model may be given by its value
        [(FULL, 3, 3), (PARTIAL, 3, 2), (PARTIAL, 1, 0), (FULL, 1, 1), ("full", 3, 3), ("partial", 3, 2)],
    )
    def test_models(self, model, position, expected):
        assert access_cost(model, position) == expected

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            access_cost("bogus", 1)

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
