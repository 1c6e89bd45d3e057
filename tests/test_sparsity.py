import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn import SupportSet, hard_threshold, peak_mask
from util import sorting_hard_threshold


class TestSupportSet:
    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            SupportSet((1, 1))
        with pytest.raises(ValueError):
            SupportSet((-1, 2))

    def test_order_preserved_set_compare(self):
        s = SupportSet((5, 2, 9))
        assert s.indices == (5, 2, 9)
        assert s.sorted_indices == (2, 5, 9)
        assert s.same_atoms(SupportSet((9, 5, 2)))
        assert s.same_atoms({2, 5, 9})
        assert not s.same_atoms({2, 5})
        assert 5 in s and 7 not in s and len(s) == 3


class TestHardThresholdElements:
    def test_two_largest(self):
        sup = hard_threshold([0.1, 5.0, 0.2, 3.0], 2)
        assert sup.indices == (1, 3)

    def test_all_zero_tie_rule(self):
        sup = hard_threshold(np.zeros(5), 2)
        assert sup.indices == (0, 1)

    def test_k_larger_than_length(self):
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0], 3, peak=True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hard_threshold([1.0, np.inf], 1)
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0], 0)

    @pytest.mark.parametrize("peak", [False, True])
    def test_rejects_a_matrix(self, peak):
        with pytest.raises(ValueError, match="power vector must be 1-D"):
            hard_threshold(np.ones((2, 3)), 1, peak=peak)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("peak", [False, True])
    def test_rejects_non_finite_entries(self, bad, peak):
        for at in (0, 2, 4):
            g = np.array([1.0, 3.0, 2.0, 5.0, 0.5])
            g[at] = bad
            with pytest.raises(ValueError, match="finite"):
                hard_threshold(g, 2, peak=peak)


class TestHardThresholdPeaks:
    def test_shadowed_neighbor(self):
        g = [0.0, 2.0, 1.0, 0.0, 5.0, 4.0, 0.0]
        sup = hard_threshold(g, 2, peak=True)
        assert sup.indices == (1, 4)  # index 5 is shadowed by the peak at 4

    def test_endpoints_can_be_peaks(self):
        assert peak_mask([3.0, 1.0, 2.0]).tolist() == [True, False, True]

    def test_plateau_takes_first_index(self):
        assert peak_mask([5.0, 5.0, 4.0]).tolist() == [True, False, False]

    def test_shortfall_fills_from_largest_remaining(self):
        # single peak at index 1; remaining slot filled by the largest non-peak
        g = [0.0, 5.0, 4.0, 3.0, 2.0]
        sup = hard_threshold(g, 2, peak=True)
        assert sup.indices == (1, 2)

    def test_flat_vector_degenerate(self):
        sup = hard_threshold(np.zeros(4), 2, peak=True)
        assert sup.indices == (0, 1)


def _oracle_vectors():
    rng = np.random.default_rng(41)
    yield "all-zero", np.zeros(9)
    for m in (1, 2, 7, 40):
        yield f"random-{m}", rng.random(m)
        yield f"coarse-{m}", rng.integers(0, 3, m).astype(float)
        # runs of equal values: plateaus and tied peaks
        yield f"plateau-{m}", np.repeat(rng.integers(0, 4, m), rng.integers(1, 4, m))[:m].astype(float)
    yield "signed-zeros", np.array([0.0, -0.0, 1.0, -0.0, 1.0, 0.0])


class TestHardThresholdMatchesSortingOracle:
    """The partition-based selection picks what a full stable sort picks."""

    @pytest.mark.parametrize("name, g", list(_oracle_vectors()))
    @pytest.mark.parametrize("peak", [False, True])
    def test_every_k(self, name, g, peak):
        for k in range(1, g.size + 1):
            sup = hard_threshold(g, k, peak=peak)
            assert sup.indices == sorting_hard_threshold(g, k, peak), (name, k)


coarse_values = st.integers(min_value=0, max_value=10**6)


@st.composite
def vector_and_k(draw, unique=False):
    values = draw(
        st.lists(coarse_values, min_size=1, max_size=30, unique=unique).map(
            lambda xs: [float(x) for x in xs]
        )
    )
    k = draw(st.integers(min_value=1, max_value=len(values)))
    return np.asarray(values), k


class TestHardThresholdProperties:
    @given(vector_and_k())
    @settings(max_examples=200)
    def test_support_size_and_agreement(self, case):
        g, k = case
        sup = hard_threshold(g, k)
        assert len(sup) == k
        mask = np.ones(g.size, dtype=bool)
        mask[list(sup.indices)] = False
        # kept values dominate dropped values
        if mask.any():
            assert min(g[list(sup.indices)]) >= max(g[mask])

    @given(vector_and_k(unique=True), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_permutation_equivariance(self, case, rnd):
        g, k = case
        perm = list(range(g.size))
        rnd.shuffle(perm)
        perm = np.asarray(perm)
        sup = hard_threshold(g, k)
        sup_p = hard_threshold(g[perm], k)
        # position j in the permuted vector holds original index perm[j]
        assert {int(perm[j]) for j in sup_p.indices} == set(sup.indices)

    @given(vector_and_k(), st.integers(min_value=-30, max_value=30), st.booleans())
    @settings(max_examples=200)
    def test_scaling_invariance(self, case, exponent, peak):
        g, k = case
        c = 2.0**exponent  # exact scaling, no rounding ties introduced
        sup = hard_threshold(g, k, peak=peak)
        sup_scaled = hard_threshold(c * g, k, peak=peak)
        assert sup.indices == sup_scaled.indices

    @given(vector_and_k())
    @settings(max_examples=100)
    def test_peak_support_size_always_k(self, case):
        g, k = case
        sup = hard_threshold(g, k, peak=True)
        assert len(sup) == k
