import hashlib
import random
from collections import Counter

import pytest

from negofs.data import (
    Dataset,
    SparseTextParseError,
    SyntheticSpec,
    budget,
    generate_synthetic,
    load_sparse_text,
    permute,
    save_sparse_text,
)
from negofs.sparse import SparseVector


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- load_sparse_text ---------------------------------------------------------

def test_one_based_index_shift(tmp_path):
    ds = load_sparse_text(write(tmp_path, "+1 3:0.5\n-1 1:1.0\n"))
    assert ds.dimension == 3
    assert ds.instances[0] == (SparseVector(3, {2: 0.5}), 1)
    assert ds.instances[1] == (SparseVector(3, {0: 1.0}), -1)


def test_zero_one_label_mapping(tmp_path):
    ds = load_sparse_text(write(tmp_path, "0 1:1.0\n1 2:1.0\n"))
    assert [y for _, y in ds.instances] == [-1, 1]


def test_one_two_label_mapping(tmp_path):
    ds = load_sparse_text(write(tmp_path, "1 1:1.0\n2 2:1.0\n"))
    assert [y for _, y in ds.instances] == [-1, 1]


def test_plus_minus_labels_kept(tmp_path):
    ds = load_sparse_text(write(tmp_path, "+1 1:1.0\n-1 2:1.0\n"))
    assert [y for _, y in ds.instances] == [1, -1]


def test_three_labels_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="non-binary labels"):
        load_sparse_text(write(tmp_path, "0 1:1.0\n1 1:1.0\n2 1:1.0\n"))


def test_unsupported_alphabet_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="non-binary labels"):
        load_sparse_text(write(tmp_path, "-1 1:1.0\n2 1:1.0\n"))


def test_malformed_token_names_line(tmp_path):
    with pytest.raises(SparseTextParseError, match="line 2.*malformed token"):
        load_sparse_text(write(tmp_path, "+1 1:1.0\n-1 2:abc\n"))


@pytest.mark.parametrize("text, reason", [
    ("+1 1:1.0\ninf 2:1.0\n", "non-finite label"),
    ("+1 1:1.0\nnan 2:1.0\n", "non-finite label"),
    ("+1 1:1.0\n-1 2:nan\n", "non-finite value"),
    ("+1 1:1.0\n-1 2:inf\n", "non-finite value"),
    ("+1 1:1.0\n-1 2:1e400\n", "non-finite value"),
])
def test_non_finite_token_names_line(tmp_path, text, reason):
    with pytest.raises(SparseTextParseError, match=f"line 2.*{reason}"):
        load_sparse_text(write(tmp_path, text))


def test_non_ascending_indices_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="line 1.*non-ascending"):
        load_sparse_text(write(tmp_path, "+1 3:1.0 2:1.0\n"))


def test_duplicate_indices_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="line 1.*duplicate"):
        load_sparse_text(write(tmp_path, "+1 2:1.0 2:3.0\n"))


def test_comments_blank_lines_and_crlf(tmp_path):
    text = "# header comment\r\n+1 1:1.0  # trailing comment\r\n\r\n-1 2:0.5\r\n"
    ds = load_sparse_text(write(tmp_path, text))
    assert len(ds) == 2
    assert ds.dimension == 2


def test_dimension_override(tmp_path):
    ds = load_sparse_text(write(tmp_path, "+1 1:1.0\n-1 2:1.0\n"), dimension=10)
    assert ds.dimension == 10
    with pytest.raises(ValueError, match="smaller than max index"):
        load_sparse_text(write(tmp_path, "+1 5:1.0\n-1 2:1.0\n"), dimension=3)


def test_loaded_instances_respect_sparse_invariants(tmp_path):
    ds = load_sparse_text(write(tmp_path, "+1 1:0.0 2:1.0\n-1 3:2.0\n"))
    for x, _ in ds.instances:
        indices = list(x.indices())
        assert indices == sorted(indices)
        assert all(v != 0.0 for _, v in x.items())


def test_round_trip(tmp_path):
    spec = SyntheticSpec(d=25, n_samples=40, n_relevant=5, density=0.3,
                         label_noise=0.1, seed=5)
    ds, _ = generate_synthetic(spec)
    path = tmp_path / f"{ds.name}.txt"
    save_sparse_text(ds, path)
    again = load_sparse_text(path, dimension=ds.dimension, name=ds.name)
    assert again.dimension == ds.dimension
    assert again.name == ds.name
    assert again.instances == ds.instances


# -- permute -------------------------------------------------------------------

def test_permute_singleton_is_identity():
    assert permute(1, seed=0) == [0]


def test_permute_deterministic():
    assert permute(50, seed=9) == permute(50, seed=9)


def test_permute_is_bijective():
    order = permute(100, seed=4)
    assert sorted(order) == list(range(100))


def test_permute_uniformity_over_seeds():
    # 1000 fixed seeds over the 120 orderings of 5 items; each cell must sit
    # within 1/120 +- 3 sigma of the multinomial count (bound precomputed).
    counts = Counter(tuple(permute(5, seed=s)) for s in range(1000))
    expected = 1000 / 120
    sigma = (1000 * (1 / 120) * (119 / 120)) ** 0.5
    assert len(counts) == 120
    for count in counts.values():
        assert abs(count - expected) <= 3 * sigma


# -- budget ----------------------------------------------------------------------

def test_budget_known_dimensionalities():
    assert budget(123, 0.1) == 12
    assert budget(54, 0.1) == 5


def test_budget_floors_at_one():
    assert budget(5, 0.1) == 1
    assert budget(1, 0.5) == 1


def test_budget_half_rounds_up():
    assert budget(55, 0.1) == 6
    assert budget(10, 1.0) == 10


def test_budget_rejects_bad_fraction():
    with pytest.raises(ValueError):
        budget(10, 0.0)
    with pytest.raises(ValueError):
        budget(10, 1.5)


# -- generate_synthetic ------------------------------------------------------------

def test_synthetic_noise_free_is_realizable():
    spec = SyntheticSpec(d=40, n_samples=300, n_relevant=6, density=0.25,
                         label_noise=0.0, seed=2)
    ds, planted = generate_synthetic(spec)
    rng = random.Random(2)
    planted_order = sorted(rng.sample(range(spec.d), spec.n_relevant))
    w_star = {i: float(rng.choice((-1, 1))) for i in planted_order}
    assert set(planted) == set(planted_order)
    for x, y in ds.instances:
        margin = sum(w_star.get(i, 0.0) * v for i, v in x.items())
        assert (1 if margin > 0 else -1) == y


def test_synthetic_all_features_relevant():
    spec = SyntheticSpec(d=8, n_samples=10, n_relevant=8, density=0.5, seed=1)
    _, planted = generate_synthetic(spec)
    assert planted == frozenset(range(8))


def test_synthetic_regenerates_bit_identically():
    spec = SyntheticSpec(d=200, n_samples=5000, n_relevant=10, density=0.1,
                         label_noise=0.05, seed=7)
    ds1, planted1 = generate_synthetic(spec)
    ds2, planted2 = generate_synthetic(spec)
    assert planted1 == planted2
    assert ds1.instances == ds2.instances
    # frozen digest guards cross-session stability of the generator
    lines = []
    for x, y in ds1.instances:
        parts = ["+1" if y > 0 else "-1"] + [f"{i + 1}:{v!r}" for i, v in x.items()]
        lines.append(" ".join(parts))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "026ce99ea6f5508bc69452c7a129187cb920e199eae59682d5cab1b1ece30076"
    assert sorted(planted1) == [12, 18, 24, 38, 82, 93, 101, 137, 149, 166]


def test_synthetic_instance_density():
    spec = SyntheticSpec(d=50, n_samples=20, n_relevant=3, density=0.2, seed=0)
    ds, _ = generate_synthetic(spec)
    for x, _ in ds.instances:
        assert len(x) == 10


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        Dataset("bad", 3, [(SparseVector(3, {0: 1.0}), 0)])


def test_dataset_rejects_mismatched_dimension():
    with pytest.raises(ValueError, match="dimension"):
        Dataset("bad", 3, [(SparseVector(4, {0: 1.0}), 1)])
