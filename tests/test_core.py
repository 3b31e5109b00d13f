import numpy as np
import pytest

from dpsampler.core import (
    KaryDataset,
    PrivacyBudget,
    RandomSource,
    VectorDataset,
    empirical_dist,
    read_kary_csv,
    read_vector_csv,
    validate_categorical,
    write_kary_csv,
    write_vector_csv,
)
from dpsampler.errors import (
    DomainTooSmall,
    EmptyDataset,
    NotNormalized,
    NegativeMass,
    OutOfDomain,
    ValidationError,
)


class TestValidateCategorical:
    def test_symmetric(self):
        dist = validate_categorical([0.5, 0.5])
        assert dist.k == 2
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_point_mass(self):
        dist = validate_categorical([1.0, 0.0, 0.0])
        assert dist.k == 3
        assert dist.prob(1) == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate_categorical([0.6, 0.5])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            validate_categorical([1.2, -0.2])

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            validate_categorical([1.0])

    def test_immutable(self):
        dist = validate_categorical([0.5, 0.5])
        with pytest.raises(ValueError):
            dist.probs[0] = 0.9


class TestEmpiricalDist:
    def test_counting(self):
        dist = empirical_dist(KaryDataset(values=[1, 1, 2], k=2))
        assert np.allclose(dist.probs, [2 / 3, 1 / 3])

    def test_single_point(self):
        dist = empirical_dist(KaryDataset(values=[3], k=3))
        assert np.allclose(dist.probs, [0, 0, 1])

    def test_uniform(self):
        dist = empirical_dist(KaryDataset(values=[1, 2, 3, 4], k=4))
        assert np.allclose(dist.probs, 0.25)

    def test_always_validates(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            k = int(gen.integers(2, 8))
            n = int(gen.integers(1, 40))
            values = gen.integers(1, k + 1, size=n)
            dist = empirical_dist(KaryDataset(values=values, k=k))
            validate_categorical(dist.probs)


class TestDatasets:
    def test_kary_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            KaryDataset(values=[0, 1], k=2)
        with pytest.raises(OutOfDomain):
            KaryDataset(values=[1, 3], k=2)

    def test_kary_empty(self):
        with pytest.raises(EmptyDataset):
            KaryDataset(values=[], k=2)

    def test_kary_subset(self):
        data = KaryDataset(values=[1, 2, 3, 1], k=3)
        sub = data.subset(1, 3)
        assert list(sub.values) == [2, 3]
        assert sub.k == 3

    def test_vector_shapes(self):
        data = VectorDataset(rows=[[1.0, 2.0], [3.0, 4.0]])
        assert (data.n, data.d) == (2, 2)
        flat = VectorDataset(rows=[1.0, 2.0, 3.0])
        assert (flat.n, flat.d) == (3, 1)

    def test_vector_empty(self):
        with pytest.raises(EmptyDataset):
            VectorDataset(rows=np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vector_non_finite_rejected(self, bad):
        rows = np.zeros((100, 2))
        rows[37, 1] = bad
        with pytest.raises(ValidationError, match="row index 37"):
            VectorDataset(rows=rows)


class TestPrivacyBudget:
    def test_rho_consistency(self):
        PrivacyBudget.zcdp(2.0)
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=2.0, rho=1.0)

    def test_delta_range(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=1.0, delta=1.0)

    def test_negative_epsilon(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(epsilon=-0.1)


class TestRandomSource:
    def test_replay(self):
        a = RandomSource(123).generator.standard_normal(100)
        b = RandomSource(123).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_children_replayable_and_distinct(self):
        root = RandomSource(9)
        c0 = root.child(0).generator.standard_normal(50)
        c0_again = RandomSource(9).child(0).generator.standard_normal(50)
        c1 = root.child(1).generator.standard_normal(50)
        assert np.array_equal(c0, c0_again)
        assert not np.array_equal(c0, c1)

    def test_child_independent_of_parent_draws(self):
        # stateless derivation: consuming the parent does not change children
        fresh = RandomSource(5)
        fresh.generator.standard_normal(1000)
        after = fresh.child(2).generator.standard_normal(10)
        direct = RandomSource(5).child(2).generator.standard_normal(10)
        assert np.array_equal(after, direct)


class TestCsvIO:
    def test_kary_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_kary_csv(path, [1, 2, 3, 2])
        data = read_kary_csv(path)
        assert list(data.values) == [1, 2, 3, 2]
        assert data.k == 3

    def test_kary_explicit_k_and_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("value\n1\n2\n")
        data = read_kary_csv(path, k=5)
        assert data.k == 5

    def test_vector_roundtrip(self, tmp_path):
        path = tmp_path / "vec.csv"
        rows = np.array([[0.125, -3.5], [1e-8, 2.0]])
        write_vector_csv(path, rows)
        data = read_vector_csv(path)
        assert np.array_equal(data.rows, rows)

    def test_vector_ragged(self, tmp_path):
        path = tmp_path / "vec.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError):
            read_vector_csv(path)
