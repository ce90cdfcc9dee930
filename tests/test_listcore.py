import pytest
from hypothesis import given, strategies as st

from listlab import AlgorithmKind, CostModel, ListState, run_algorithm

FULL = CostModel.FULL
PARTIAL = CostModel.PARTIAL
LIST = ListState.from_order(range(1, 1001))


def charge(model, position):
    """The charge of one move-to-front access at ``position`` on the list 1..1000."""
    return run_algorithm(AlgorithmKind.MTF, LIST, [position], model).total_cost


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
        assert charge(model, position) == expected

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            charge("bogus", 1)

    @given(st.integers(min_value=1, max_value=1000))
    def test_full_is_partial_plus_one(self, position):
        assert charge(FULL, position) == charge(PARTIAL, position) + 1

    @given(st.integers(min_value=1, max_value=999))
    def test_strictly_increasing(self, position):
        for model in (FULL, PARTIAL):
            assert charge(model, position + 1) > charge(model, position)
