import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import synthetic_reference
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


def test_unsupported_alphabet_names_the_line_that_completes_it(tmp_path):
    with pytest.raises(SparseTextParseError, match=r"line 2: .*alphabet \[0, 2\]"):
        load_sparse_text(write(tmp_path, "0 1:1.0\n2 1:1.0\n0 1:1.0\n0 1:1.0\n"))


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


@pytest.mark.parametrize("text", [
    "+1 1:1.0\n-1 1_0:1_5\n",
    "+1 1:1.0\n0_1 2:1.0\n",
    "+1 1:1.0\n-1 \u0661:\u0662\n",
], ids=["underscore-index-and-value", "underscore-label", "arabic-indic-digits"])
def test_numerals_only_python_reads_are_refused(tmp_path, text):
    # int() and float() read 1_0 as 10, 0_1 as 1 and the Arabic-Indic 1 and 2 as 1 and 2.
    with pytest.raises(SparseTextParseError) as err:
        load_sparse_text(write(tmp_path, text))
    assert str(err.value) == "line 2: '_' or a non-ASCII character"


@pytest.mark.parametrize("data, message", [
    (b"+1 1:1.0\n-1 2:\xff.0\n", "line 2: not valid UTF-8"),
    (b"+1 1:1.0\r\n# header\r\n-1 2:1.0 # \xe9t\xe9\r\n", "line 3: not valid UTF-8"),
    (b"+1 1:1.0\r-1 2:1.0\r+1 \xc3\n", "line 3: not valid UTF-8"),
], ids=["value", "crlf-comment", "cr"])
def test_invalid_utf8_names_its_line(tmp_path, data, message):
    # Lines are counted as text mode counts them: \n, \r\n and a lone \r each end one.
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(SparseTextParseError) as err:
        load_sparse_text(path)
    assert str(err.value) == message


def test_non_ascii_utf8_in_a_comment_is_accepted(tmp_path):
    ds = load_sparse_text(write(tmp_path, "# caf\u00e9 \u2192 r\u00e9sum\u00e9\n+1 1:1.0\n-1 2:0.5  # \u00e9t\u00e9\n"))
    assert len(ds) == 2


def test_non_ascending_indices_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="line 1.*non-ascending"):
        load_sparse_text(write(tmp_path, "+1 3:1.0 2:1.0\n"))


def test_duplicate_indices_rejected(tmp_path):
    with pytest.raises(SparseTextParseError, match="line 1.*duplicate"):
        load_sparse_text(write(tmp_path, "+1 2:1.0 2:3.0\n"))


@pytest.mark.parametrize("text, dimension, message", [
    ("+1 1:1.0\n3 2:1.0\n", None, "line 2: non-binary labels: unsupported label '3'"),
    ("+1 1:1.0\n1.5 2:1.0\n", None, "line 2: non-binary labels: unsupported label '1.5'"),
    ("+1 1:1.0\n-1 0:1.0\n", None, "line 2: feature index must be >= 1, got 0"),
    ("", None, "line 1: empty dataset"),
    ("# only a comment\n\n", None, "line 2: empty dataset"),
    ("+1\n-1\n", None, "line 2: cannot infer a positive dimension from an all-empty file"),
    ("+1 5:1.0\n-1 2:1.0\n", 3, "line 1: dimension override 3 smaller than max index 5"),
], ids=["label-3", "label-1.5", "index-0", "empty", "comments-only", "no-features", "override"])
def test_bad_file_message_names_the_line_where_known(tmp_path, text, dimension, message):
    with pytest.raises(SparseTextParseError) as err:
        load_sparse_text(write(tmp_path, text), dimension=dimension)
    assert str(err.value) == message


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


@st.composite
def small_datasets(draw):
    d = draw(st.integers(1, 8), label="d")
    values = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: abs(v) >= 1e-15)
    rows = draw(st.lists(st.tuples(st.dictionaries(st.integers(0, d - 1), values),
                                   st.sampled_from((-1, 1))),
                         min_size=1, max_size=6), label="rows")
    return Dataset("rows", d, [(SparseVector(d, entries), y) for entries, y in rows])


@given(ds=small_datasets(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_save_load_round_trip_and_bad_value_names_its_line(tmp_path_factory, ds, data):
    path = tmp_path_factory.mktemp("round-trip") / "data.txt"
    save_sparse_text(ds, path)
    again = load_sparse_text(path, dimension=ds.dimension)
    assert again.dimension == ds.dimension
    assert again.instances == ds.instances

    lines = path.read_text(encoding="utf-8").splitlines()
    line_no = data.draw(st.integers(1, len(lines)), label="bad line")
    tokens = lines[line_no - 1].split()
    if len(tokens) > 1:
        at = data.draw(st.integers(1, len(tokens) - 1), label="bad token")
        tokens[at] = tokens[at].partition(":")[0] + ":abc"
    else:  # an empty row: its only value is the label
        tokens[0] = "abc"
    lines[line_no - 1] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SparseTextParseError, match=f"^line {line_no}: malformed") as err:
        load_sparse_text(path, dimension=ds.dimension)
    assert err.value.line_no == line_no


# -- permute -------------------------------------------------------------------

def sized(n):
    """A dataset of n instances; permute reads only its length."""
    return Dataset("sized", 1, [(SparseVector(1, {0: 1.0}), 1)] * n)


def test_permute_singleton_is_identity():
    assert permute(sized(1), seed=0) == [0]


def test_permute_rejects_an_empty_dataset():
    with pytest.raises(ValueError, match="^cannot permute an empty dataset$"):
        permute(sized(0), 1)


def test_permute_deterministic():
    assert permute(sized(50), seed=9) == permute(sized(50), seed=9)


def test_permute_is_bijective():
    order = permute(sized(100), seed=4)
    assert sorted(order) == list(range(100))


def test_permute_uniformity_over_seeds():
    # 1000 fixed seeds over the 120 orderings of 5 items; each cell must sit
    # within 1/120 +- 3 sigma of the multinomial count (bound precomputed).
    five = sized(5)
    counts = Counter(tuple(permute(five, seed=s)) for s in range(1000))
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

@pytest.mark.parametrize("fields, message", [
    ({"d": 0}, "d and n_samples must be positive"),
    ({"n_samples": 0}, "d and n_samples must be positive"),
    ({"n_relevant": 11}, "n_relevant must lie in [1, 10], got 11"),
    ({"density": 0.0}, "density must lie in (0, 1], got 0.0"),
    ({"label_noise": 0.5}, "label_noise must lie in [0, 0.5), got 0.5"),
    ({"d": 57.0}, "d must be an int, got 57.0"),
    ({"n_samples": 10.0}, "n_samples must be an int, got 10.0"),
    ({"n_relevant": 2.0}, "n_relevant must be an int, got 2.0"),
    ({"d": True}, "d must be an int, got True"),
    ({"seed": 1.5}, "seed must be an int, got 1.5"),
    ({"seed": False}, "seed must be an int, got False"),
    ({"density": True}, "density must be a real, got True"),
    ({"label_noise": False}, "label_noise must be a real, got False"),
], ids=["d", "n_samples", "n_relevant", "density", "label_noise", "float-d",
        "float-n_samples", "float-n_relevant", "bool-d", "float-seed", "bool-seed",
        "bool-density", "bool-label_noise"])
def test_synthetic_spec_rejects_out_of_range_fields(fields, message):
    with pytest.raises(ValueError) as err:
        SyntheticSpec(**{"d": 10, "n_samples": 5, "n_relevant": 2, **fields})
    assert str(err.value) == message


@st.composite
def synthetic_specs(draw):
    d = draw(st.integers(1, 300))
    return SyntheticSpec(
        d=d,
        n_samples=draw(st.integers(1, 25)),
        n_relevant=draw(st.one_of(st.just(d), st.integers(1, d))),
        density=draw(st.floats(0.001, 1.0)),
        label_noise=draw(st.sampled_from([0.0, 0.05, 0.3])),
        seed=draw(st.integers(0, 2**32)),
    )


# CPython's sample swaps from a pool while d <= setsize (21 for nnz <= 5, 85
# for nnz in 6..21) and redraws repeats from a set above it; an odd nnz carries
# gauss's spare value into the next instance.
@given(synthetic_specs())
@example(SyntheticSpec(d=20, n_samples=30, n_relevant=20, density=0.15, seed=3))  # pool, nnz 3
@example(SyntheticSpec(d=100, n_samples=30, n_relevant=4, density=0.05,
                       label_noise=0.1, seed=4))                                  # set, nnz 5
@example(SyntheticSpec(d=30, n_samples=30, n_relevant=30, density=0.2,
                       label_noise=0.1, seed=5))                                  # pool, nnz 6
@example(SyntheticSpec(d=200, n_samples=30, n_relevant=9, density=0.035,
                       label_noise=0.3, seed=6))                                  # set, nnz 7
@example(SyntheticSpec(d=57, n_samples=4601, n_relevant=8, density=0.35,
                       label_noise=0.03, seed=2025))                              # ensemble's
@example(SyntheticSpec(d=2000, n_samples=1000, n_relevant=10, density=0.01,
                       label_noise=0.05, seed=7))                                 # set, nnz 20
@settings(max_examples=200, deadline=None)
def test_synthetic_draws_equal_the_random_methods(spec):
    ds, planted = generate_synthetic(spec)
    reference, reference_planted = synthetic_reference(spec)
    assert planted == reference_planted
    assert len(ds.instances) == len(reference)
    for (x, y), (ref_x, ref_y) in zip(ds.instances, reference):
        assert [(i, v.hex()) for i, v in x.items()] == [(i, v.hex()) for i, v in ref_x.items()]
        assert y == ref_y


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
    with pytest.raises(ValueError, match="^labels must be -1 or \\+1, got True$"):
        Dataset("bad", 3, [(SparseVector(3, {0: 1.0}), True)])


def test_dataset_rejects_mismatched_dimension():
    with pytest.raises(ValueError, match="dimension"):
        Dataset("bad", 3, [(SparseVector(4, {0: 1.0}), 1)])
