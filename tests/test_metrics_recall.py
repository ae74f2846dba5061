"""Tests for the recall measure (Section II-A definition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.metrics.recall import recall_at_k, recall_per_query
from tests.oracles.recall import recall_per_query_rows


class TestRecallPerQuery:
    def test_perfect_recall(self):
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(truth.copy(), truth)[0] == 1.0

    def test_order_does_not_matter(self):
        returned = np.array([[3, 1, 2]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == 1.0

    def test_partial_overlap(self):
        returned = np.array([[1, 2, 9]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == pytest.approx(2 / 3)

    def test_no_overlap(self):
        returned = np.array([[7, 8, 9]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == 0.0

    def test_padding_never_matches(self):
        returned = np.array([[1, -1, -1]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == pytest.approx(1 / 3)

    def test_multiple_queries_independent(self):
        returned = np.array([[1, 2], [5, 6]])
        truth = np.array([[1, 2], [7, 8]])
        assert np.allclose(recall_per_query(returned, truth), [1.0, 0.0])

    def test_rejects_1d_input(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            recall_per_query(np.array([1, 2]), np.array([[1, 2]]))

    def test_rejects_query_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="counts differ"):
            recall_per_query(np.zeros((2, 3), dtype=int),
                             np.zeros((3, 3), dtype=int))

    def test_rejects_empty_ground_truth(self):
        with pytest.raises(ConfigurationError, match="at least 1"):
            recall_per_query(np.zeros((1, 0), dtype=int),
                             np.zeros((1, 0), dtype=int))

    @pytest.mark.parametrize("side", ["returned", "ground truth"])
    def test_rejects_non_integer_ids(self, side):
        """A float id matrix would score its NaN entries as silent
        misses; it is refused instead."""
        ints = np.array([[1, 2, 3]])
        floats = np.array([[1.0, np.nan, 3.0]])
        args = (floats, ints) if side == "returned" else (ints, floats)
        with pytest.raises(ConfigurationError,
                           match=f"{side} of dtype float64"):
            recall_at_k(*args)


class TestRecallEdgeCases:
    """Degenerate shapes the serving/tuning layers can produce."""

    def test_returned_wider_than_ground_truth(self):
        """k larger than the ground-truth width: extra columns may add
        hits but the denominator stays the truth width."""
        returned = np.array([[3, 1, 9, 8, 2]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == 1.0

    def test_returned_narrower_than_ground_truth(self):
        returned = np.array([[1]])
        truth = np.array([[1, 2, 3, 4]])
        assert recall_per_query(returned, truth)[0] == pytest.approx(0.25)

    def test_duplicate_returned_ids_count_once(self):
        """A duplicated correct id must not double-count as two hits."""
        returned = np.array([[1, 1, 9]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == pytest.approx(1 / 3)

    def test_duplicate_ground_truth_ids_count_once(self):
        """Duplicate truth entries shrink the denominator to the unique
        count, so a fully correct answer still scores 1.0."""
        returned = np.array([[1, 2, 9]])
        truth = np.array([[1, 2, 2]])
        assert recall_per_query(returned, truth)[0] == 1.0

    def test_empty_result_row_scores_zero(self):
        returned = np.array([[-1, -1, -1]])
        truth = np.array([[1, 2, 3]])
        assert recall_per_query(returned, truth)[0] == 0.0

    def test_ground_truth_padding_excluded_from_denominator(self):
        """A dataset with fewer than k points pads its ground truth with
        -1; recall of a perfect answer must still reach 1.0."""
        returned = np.array([[4, 7, -1]])
        truth = np.array([[4, 7, -1]])
        assert recall_per_query(returned, truth)[0] == 1.0

    def test_fully_padded_ground_truth_row_scores_zero(self):
        returned = np.array([[1, 2], [3, 4]])
        truth = np.array([[1, 2], [-1, -1]])
        assert np.allclose(recall_per_query(returned, truth), [1.0, 0.0])

    def test_recall_bounded_even_with_padding_and_duplicates(self):
        rng = np.random.default_rng(3)
        returned = rng.integers(-1, 10, size=(50, 6))
        truth = rng.integers(-1, 10, size=(50, 4))
        values = recall_per_query(returned, truth)
        assert (values >= 0.0).all() and (values <= 1.0).all()


@st.composite
def _id_matrices(draw):
    """``(returned, truth)`` over a small id range: ``-1`` padding on
    either side, repeated ids, unequal widths, all-padding truth rows."""
    n_queries = draw(st.integers(0, 8))
    ids = st.integers(-1, 12)
    returned = draw(hnp.arrays(np.int64, (n_queries, draw(st.integers(0, 7))),
                               elements=ids))
    truth = draw(hnp.arrays(np.int64, (n_queries, draw(st.integers(1, 7))),
                            elements=ids))
    if n_queries and draw(st.booleans()):
        truth[draw(st.integers(0, n_queries - 1))] = -1
    return returned, truth


class TestRecallMatchesTheRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(_id_matrices())
    def test_bit_equal_to_the_per_row_loop(self, matrices):
        returned, truth = matrices
        got = recall_per_query(returned, truth)
        expected = recall_per_query_rows(returned, truth)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_mixed_integer_dtypes(self):
        returned = np.array([[3, 1, 3, -1], [7, 7, 8, 2]], dtype=np.int32)
        truth = np.array([[1, 2, 3], [-1, -1, -1]], dtype=np.int64)
        assert (recall_per_query(returned, truth).tobytes()
                == recall_per_query_rows(returned, truth).tobytes())


class TestRecallAtK:
    def test_mean_over_queries(self):
        returned = np.array([[1, 2], [5, 6]])
        truth = np.array([[1, 2], [5, 9]])
        assert recall_at_k(returned, truth) == pytest.approx(0.75)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        returned = rng.integers(0, 50, size=(20, 10))
        truth = rng.integers(0, 50, size=(20, 10))
        value = recall_at_k(returned, truth)
        assert 0.0 <= value <= 1.0
