import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonogap.sampling import (
    ParameterDef,
    ParameterSpace,
    SampleSet,
    canonical_space,
    lhs_sample,
    map_to_space,
)
from phonogap.sobol import analytic_poly_model, sobol_indices


def stratum_counts(matrix: np.ndarray) -> np.ndarray:
    """Per-dimension histogram over the N equal strata."""
    n = matrix.shape[0]
    bins = np.floor(matrix * n).astype(int)
    counts = np.zeros((n, matrix.shape[1]), dtype=int)
    for d in range(matrix.shape[1]):
        np.add.at(counts[:, d], bins[:, d], 1)
    return counts


class TestLatinHypercube:
    def test_shapes_and_range(self):
        s = lhs_sample(4, 50, 7)
        assert s.original.shape == (50, 4)
        assert s.complementary.shape == (50, 4)
        assert s.original.min() >= 0.0 and s.original.max() <= 1.0
        assert s.n_samples == 50 and s.n_dims == 4

    def test_exact_stratification_both_matrices(self):
        s = lhs_sample(3, 97, 123)
        for m in (s.original, s.complementary):
            assert (stratum_counts(m) == 1).all()

    @settings(max_examples=20, deadline=None)
    @given(
        n_dims=st.integers(min_value=1, max_value=6),
        n_samples=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_stratification_property(self, n_dims, n_samples, seed):
        s = lhs_sample(n_dims, n_samples, seed)
        assert (stratum_counts(s.original) == 1).all()
        assert (stratum_counts(s.complementary) == 1).all()

    def test_two_samples_split_the_halves(self):
        s = lhs_sample(1, 2, 99)
        for m in (s.original, s.complementary):
            col = np.sort(m[:, 0])
            assert 0.0 <= col[0] < 0.5 <= col[1] < 1.0

    def test_deterministic_given_seed(self):
        a = lhs_sample(3, 100, 42)
        b = lhs_sample(3, 100, 42)
        np.testing.assert_array_equal(a.original, b.original)
        np.testing.assert_array_equal(a.complementary, b.complementary)

    def test_different_seeds_differ(self):
        a = lhs_sample(3, 100, 1)
        b = lhs_sample(3, 100, 2)
        assert not np.array_equal(a.original, b.original)

    def test_original_and_complementary_are_distinct_streams(self):
        s = lhs_sample(5, 200, 3)
        assert not np.array_equal(s.original, s.complementary)
        corr = np.corrcoef(s.original.ravel(), s.complementary.ravel())[0, 1]
        assert abs(corr) < 0.1

    def test_marginal_means(self):
        s = lhs_sample(5, 2000, 8)
        for m in (s.original, s.complementary):
            assert np.allclose(m.mean(axis=0), 0.5, atol=0.02)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lhs_sample(0, 10, 1)
        with pytest.raises(ValueError):
            lhs_sample(2, 1, 1)

    def test_matrices_are_frozen(self):
        s = lhs_sample(2, 10, 0)
        with pytest.raises(ValueError):
            s.original[0, 0] = 0.5

    def test_generator_is_documented(self):
        assert sobol_indices(analytic_poly_model(), lhs_sample(3, 8, 0)).to_json_dict()["generator"] == "pcg64"


class TestParameterSpace:
    def test_canonical_dimensions(self):
        space = canonical_space()
        assert space.names == ("E2/E1", "rho2/rho1", "h2/h1", "nu1", "nu2")
        bounds = [(d.lower, d.upper, d.scale) for d in space.dims]
        assert bounds == [
            (10.0, 10000.0, "log10"),
            (1.0, 1000.0, "log10"),
            (0.11, 9.0, "log10"),
            (0.0, 0.463, "linear"),
            (0.0, 0.463, "linear"),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterDef("bad", 2.0, 1.0)
        with pytest.raises(ValueError):
            ParameterDef("bad", -1.0, 1.0, "log10")
        with pytest.raises(ValueError):
            ParameterDef("bad", 0.0, 1.0, "log2")
        with pytest.raises(ValueError):
            ParameterSpace(())

    def test_json_round_trip(self):
        space = canonical_space()
        again = ParameterSpace.from_json(space.to_json())
        assert again == space
        payload = json.loads(space.to_json())
        assert [d["name"] for d in payload["dims"]][0] == "E2/E1"


class TestMapToSpace:
    def test_lower_corner(self):
        space = canonical_space()
        np.testing.assert_allclose(
            map_to_space(np.zeros(5), space), [10.0, 1.0, 0.11, 0.0, 0.0], rtol=1e-12
        )

    def test_upper_corner(self):
        space = canonical_space()
        np.testing.assert_allclose(
            map_to_space(np.ones(5), space), [10000.0, 1000.0, 9.0, 0.463, 0.463], rtol=1e-12
        )

    def test_log_midpoint(self):
        space = canonical_space()
        point = map_to_space(np.array([0.5, 0.0, 0.0, 0.0, 0.0]), space)
        assert point[0] == pytest.approx(10.0**2.5, rel=1e-12)

    def test_matrix_input(self):
        space = canonical_space()
        out = map_to_space(np.vstack([np.zeros(5), np.ones(5)]), space)
        assert out.shape == (2, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            map_to_space(np.array([1.2, 0, 0, 0, 0]), canonical_space())
        with pytest.raises(ValueError):
            map_to_space(np.zeros(3), canonical_space())

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=10**9).map(lambda k: k / 10**9),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    def test_strictly_monotone_every_dimension(self, us):
        space = canonical_space()
        us = np.sort(np.asarray(us))
        for d in range(space.n_dims):
            pts = np.full((len(us), space.n_dims), 0.3)
            pts[:, d] = us
            col = map_to_space(pts, space)[:, d]
            assert (np.diff(col) > 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_linear_round_trip(self, u):
        space = canonical_space()
        pts = np.full(5, 0.5)
        pts[3] = u
        x = map_to_space(pts, space)[3]
        assert (x - 0.0) / (0.463 - 0.0) == pytest.approx(u, abs=1e-12)


class TestSampleSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[1.5]]), np.array([[0.5]]), seed=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((3, 2)), np.zeros((4, 2)), seed=0)
