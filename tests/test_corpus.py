from collections import Counter

import pytest
from hypothesis import given, strategies as st

from listlab import (
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
    preprocess,
)


class TestPreprocess:
    def test_strips_spaces_and_line_breaks(self):
        assert preprocess(b"ab cd\r\n") == b"abcd"

    def test_raises_when_nothing_remains(self):
        with pytest.raises(EmptyAfterPreprocessing):
            preprocess(b"   \r\n")

    def test_keeps_tab(self):
        assert preprocess(b"aa\tb") == b"aa\tb"

    def test_custom_strip_set(self):
        assert preprocess(b"aa\tb", strip={0x09}) == b"aab"

    def test_accepts_labeled_text(self):
        assert preprocess(CorpusText(b"x y", "sample")) == b"xy"

    def test_label_appears_in_error(self):
        with pytest.raises(EmptyAfterPreprocessing, match="sample"):
            preprocess(CorpusText(b"  ", "sample"))

    @given(st.binary(max_size=200))
    def test_idempotent(self, data):
        stripped = data.translate(None, b" \r\n")
        if not stripped:
            return
        once = preprocess(data)
        assert preprocess(once) == once


class TestDeriveList:
    def test_first_occurrence_order(self):
        assert derive_list(b"babc").order == list(b"bac")

    def test_byte_value_order(self):
        assert derive_list(b"babc", ListOrderPolicy.BYTE_VALUE).order == list(b"abc")

    def test_worked_instance_list(self):
        assert derive_list((1, 2, 2, 3, 3, 3)).order == [1, 2, 3]

    def test_counters_start_at_zero(self):
        assert set(derive_list(b"xyz").freq.values()) == {0}

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            derive_list(b"")

    @given(st.binary(min_size=1, max_size=200))
    def test_alphabet_matches_sequence(self, data):
        for policy in ListOrderPolicy:
            derived = derive_list(data, policy)
            assert set(derived.order) == set(data)
            assert len(derived.order) == len(set(data))


class TestGenerateSequence:
    def test_singleton_alphabet(self):
        assert generate_sequence([1], 5, Uniform(), seed=3) == [1, 1, 1, 1, 1]

    def test_zero_length(self):
        assert generate_sequence([1, 2, 3], 0, Uniform(), seed=1) == []

    def test_empty_alphabet(self):
        with pytest.raises(EmptyAlphabet):
            generate_sequence([], 5, Uniform(), seed=1)

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence([1, 1], 5, Uniform(), seed=1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence([1], -1, Uniform(), seed=1)

    def test_uniform_counts_concentrate(self):
        # binomial: 3 sigma around 5000 is +-150
        seq = generate_sequence([1, 2], 10_000, Uniform(), seed=42)
        counts = Counter(seq)
        assert abs(counts[1] - 5000) <= 150
        assert abs(counts[2] - 5000) <= 150

    def test_deterministic_per_seed(self):
        a = generate_sequence([1, 2, 3], 500, Zipf(1.2), seed=9)
        b = generate_sequence([1, 2, 3], 500, Zipf(1.2), seed=9)
        c = generate_sequence([1, 2, 3], 500, Zipf(1.2), seed=10)
        assert a == b
        assert a != c

    def test_zipf_prefers_early_ranks(self):
        seq = generate_sequence(list(range(6)), 20_000, Zipf(1.0), seed=7)
        counts = Counter(seq)
        assert counts[0] > counts[5] * 2

    def test_zipf_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_sequence([1, 2], 10, Zipf(0.0), seed=1)

    @pytest.mark.parametrize("exponent", [float("inf"), float("nan")])
    def test_zipf_exponent_must_be_finite(self, exponent):
        with pytest.raises(ValueError, match="exponent must be finite"):
            generate_sequence([1, 2], 10, Zipf(exponent), seed=1)

    def test_run_lengths_mean(self):
        seq = generate_sequence(list(range(4)), 10_000, RunLengths(5.0), seed=3)
        runs = 1 + sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        mean = len(seq) / runs
        assert 3.5 <= mean <= 6.5

    def test_run_lengths_mean_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            generate_sequence([1, 2], 10, RunLengths(0.5), seed=1)

    @pytest.mark.parametrize("k", [2, 4])
    def test_run_lengths_neighbouring_runs_never_merge(self, k):
        # mean 1 makes every run one request long, so each request is one
        # symbol draw; a draw that repeated the previous symbol would merge
        # two runs and leave fewer maximal runs than draws
        seq = generate_sequence(list(range(k)), 2_000, RunLengths(1.0), seed=3)
        runs = 1 + sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        assert runs == len(seq)

    def test_run_lengths_single_symbol_repeats(self):
        for mean, seed in ((1.0, 0), (5.0, 3), (40.0, 11)):
            assert generate_sequence([7], 250, RunLengths(mean), seed=seed) == [7] * 250

    @pytest.mark.parametrize("mean", [float("inf"), float("nan"), 1e300])
    def test_run_lengths_mean_must_be_finite_and_drawable(self, mean):
        with pytest.raises(ValueError):
            generate_sequence([1, 2], 10, RunLengths(mean), seed=1)

    def test_symbols_stay_in_alphabet(self):
        for dist in (Uniform(), Zipf(1.5), RunLengths(3.0)):
            seq = generate_sequence([10, 20, 30], 300, dist, seed=5)
            assert len(seq) == 300
            assert set(seq) <= {10, 20, 30}
