"""Schema, CSV, encoding and synthetic-data tests."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mixedae import errors, tabular
from mixedae.losses import compute_balance_weights
from mixedae.tabular import (
    Column,
    Dataset,
    EncodedMatrix,
    Schema,
    decode,
    encode,
    fit_encoder,
    generate_synthetic,
    read_csv,
    split,
    write_csv,
)
from oracles import same_dataset


def small_schema():
    return Schema((Column("a"), Column("b", ("x", "y"))))


def small_dataset(n=3):
    return Dataset(small_schema(), {"a": np.arange(n, dtype=float), "b": np.arange(n) % 2})


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(errors.DataError):
            Schema((Column("a"), Column("a")))

    def test_single_category_rejected(self):
        with pytest.raises(errors.DataError):
            Column("q", ("only",))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(errors.DataError):
            Column("q", ("x", "x"))

    def test_encoded_width(self):
        s = Schema((Column("a"), Column("b", ("x", "y", "z"))))
        assert sum(len(c.categories) if c.is_categorical else 1 for c in s.columns) == 4

    def test_empty_schema_rejected(self):
        with pytest.raises(errors.DataError, match="no columns"):
            Schema(())


class TestReadCsv:
    def test_inference(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n2,y\n3,x\n")
        d = read_csv(p)
        assert d.n == 3
        assert d.schema.p == 2
        assert d.schema.column("b").categories == ("x", "y")
        assert not d.schema.column("a").is_categorical

    def test_write_read_round_trip(self, tmp_path):
        d = generate_synthetic("balanced", 50, seed=3)
        p = tmp_path / "round.csv"
        write_csv(d, p)
        back = read_csv(p, d.schema, target="y")
        assert same_dataset(back, d)

    def test_adults_style_shape(self, tmp_path):
        # 14 variables: 11 categorical and 3 numerical
        cat_names = [f"c{i}" for i in range(11)]
        num_names = ["n0", "n1", "n2"]
        header = ",".join(cat_names + num_names)
        rows = [
            ",".join(["v0"] * 11 + ["1.5", "2.5", "3.5"]),
            ",".join(["v1"] * 11 + ["4.5", "5.5", "6.5"]),
        ]
        p = tmp_path / "adults.csv"
        p.write_text(header + "\n" + "\n".join(rows * 2) + "\n")
        d = read_csv(p)
        assert sum(not c.is_categorical for c in d.schema.columns) == 3
        assert len(d.schema.categorical_names()) == 11

    def test_missing_value(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n,y\n")
        with pytest.raises(errors.MissingValue):
            read_csv(p)

    def test_unknown_category(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n2,zzz\n")
        with pytest.raises(errors.UnknownCategory):
            read_csv(p, small_schema())

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,x\n2\n")
        with pytest.raises(errors.ShapeError):
            read_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-NaN"])
    @pytest.mark.parametrize("column", ["a", "y"])
    def test_non_finite_number_rejected(self, tmp_path, column, cell):
        cells = {"a": "2", "y": "0.5", column: cell}
        p = tmp_path / "t.csv"
        p.write_text(f"a,b,y\n1,x,0\n{cells['a']},y,{cells['y']}\n3,x,1\n")
        with pytest.raises(errors.DataError, match=f"'{column}', row 3"):
            read_csv(p, target="y")

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("z,b\n1,x\n")
        with pytest.raises(errors.SchemaMismatch):
            read_csv(p, small_schema())

    def test_categorical_cells_are_text(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(small_dataset(), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].split(",")[1] == "x"


class TestSidecar:
    def test_round_trip(self, tmp_path):
        schema = generate_synthetic("balanced", 5, seed=0).schema
        p = tmp_path / "s.schema"
        tabular.save_schema_sidecar(schema, p, target="y")
        back, target = tabular.load_schema_sidecar(p)
        assert back == schema
        assert target == "y"

    @pytest.mark.parametrize("where", ["kindless-line", "directory", "non-utf8", "missing"])
    def test_unreadable_or_malformed_is_a_data_error(self, tmp_path, where):
        p = tmp_path / "s.schema"
        if where == "directory":
            p.mkdir()
        elif where == "non-utf8":
            p.write_bytes(b"a,numeric\nq,categorical,u|\xff\n")
        elif where == "kindless-line":
            p.write_text("a,numeric\nbroken\n")
        with pytest.raises(errors.DataError):
            tabular.load_schema_sidecar(p)


class TestFitEncoder:
    def test_counting(self):
        d = Dataset(small_schema(), {"a": [1.0, 2.0, 3.0], "b": [0, 0, 1]})
        enc = fit_encoder(d)
        assert enc.category_counts["b"].tolist() == [2, 1]
        assert enc.category_counts["b"][0] / enc.n == pytest.approx(2 / 3)

    def test_numeric_range(self):
        d = Dataset(small_schema(), {"a": [2.0, 4.0, 6.0], "b": [0, 1, 0]})
        assert fit_encoder(d).numeric_range["a"] == (2.0, 6.0)

    def test_empty_category(self):
        d = Dataset(small_schema(), {"a": [1.0, 2.0], "b": [0, 0]})
        with pytest.raises(errors.EmptyCategory):
            fit_encoder(d)

    def test_constant_numeric(self):
        d = Dataset(small_schema(), {"a": [1.0, 1.0], "b": [0, 1]})
        with pytest.raises(errors.ConstantNumeric):
            fit_encoder(d)

    def test_seventy_thirty_frequency(self):
        # Q1 is drawn 70/30; the fitted frequency should sit near 0.7.
        d = generate_synthetic("imbalanced", 2000, seed=11)
        enc = fit_encoder(d)
        assert 0.65 <= enc.category_counts["Q1"][0] / enc.n <= 0.75

    def test_frequencies_sum_to_one_exactly(self):
        import math

        d = generate_synthetic("imbalanced", 500, seed=5)
        enc = fit_encoder(d)
        for name in d.schema.categorical_names():
            # exact at the count level; correctly-rounded sum is exactly 1.0
            assert enc.category_counts[name].sum() == enc.n
            assert math.fsum(enc.category_counts[name] / enc.n) == 1.0


class TestEncodeDecode:
    def test_affine_map(self):
        d = Dataset(small_schema(), {"a": [2.0, 4.0, 6.0], "b": [0, 1, 0]})
        enc = fit_encoder(d)
        m = encode(d, enc)
        assert m.values[1, 0] == 0.5

    def test_one_hot(self):
        schema = Schema((Column("q", ("x", "y", "z")),))
        d = Dataset(schema, {"q": [1, 0]})
        enc = tabular.EncoderState(schema, 2, {}, {"q": np.array([1, 1])})
        m = encode(d, enc)
        assert m.values[0].tolist() == [0.0, 1.0, 0.0]

    def test_clipping(self):
        d = Dataset(small_schema(), {"a": [2.0, 6.0], "b": [0, 1]})
        enc = fit_encoder(d)
        test = Dataset(small_schema(), {"a": [8.0, -1.0], "b": [0, 1]})
        m = encode(test, enc)
        assert m.values[0, 0] == 1.0
        assert m.values[1, 0] == 0.0

    def test_schema_mismatch(self):
        d = small_dataset()
        enc = fit_encoder(d)
        other = Dataset(Schema((Column("a"),)), {"a": [1.0, 2.0]})
        with pytest.raises(errors.SchemaMismatch):
            encode(other, enc)

    def test_round_trip(self):
        d = generate_synthetic("imbalanced", 300, seed=2)
        features = Dataset(d.schema, dict(d.columns))
        enc = fit_encoder(features)
        back = decode(encode(features, enc), enc)
        # categorical codes are exact; numerics round-trip to float precision
        assert same_dataset(back, features, numeric_tol=1e-12)

    def test_argmax_decoding(self):
        schema = Schema((Column("q", ("x", "y", "z")),))
        enc = tabular.EncoderState(schema, 2, {}, {"q": np.array([1, 1])})
        m = EncodedMatrix(np.array([[0.2, 0.9, 0.1]]), enc)
        assert decode(m, enc).column("q")[0] == 1

    def test_tie_breaks_low(self):
        schema = Schema((Column("q", ("x", "y")),))
        enc = tabular.EncoderState(schema, 2, {}, {"q": np.array([1, 1])})
        m = EncodedMatrix(np.array([[0.5, 0.5]]), enc)
        assert decode(m, enc).column("q")[0] == 0

    def test_encode_decode_encode_idempotent(self):
        d = generate_synthetic("balanced", 200, seed=9)
        features = Dataset(d.schema, dict(d.columns))
        enc = fit_encoder(features)
        m1 = encode(features, enc)
        m2 = encode(decode(m1, enc), enc)
        assert np.allclose(m1.values, m2.values, atol=1e-12)
        # a second pass is an exact fixed point of the projection
        m3 = encode(decode(m2, enc), enc)
        assert np.array_equal(m2.values, m3.values)

    def test_one_hot_groups_sum_to_one(self):
        d = generate_synthetic("majority", 100, seed=4)
        enc = fit_encoder(d)
        m = encode(d, enc)
        for g in enc.categorical_groups():
            assert np.array_equal(m.values[:, g].sum(axis=1), np.ones(d.n))

    def test_scaled_training_values_in_unit_interval(self):
        d = generate_synthetic("imbalanced", 100, seed=4)
        enc = fit_encoder(d)
        m = encode(d, enc)
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0


class TestGenerateSynthetic:
    def test_schema_shape(self):
        d = generate_synthetic("imbalanced", 10, seed=0)
        assert sum(not c.is_categorical for c in d.schema.columns) == 3
        assert len(d.schema.categorical_names()) == 5
        assert sum(len(c.categories) if c.is_categorical else 1 for c in d.schema.columns) == 33
        assert d.y is not None

    def test_invalid_context(self):
        with pytest.raises(errors.InvalidContext):
            generate_synthetic("nope", 10, seed=0)

    def test_bad_coeffs(self):
        with pytest.raises(errors.DataError):
            generate_synthetic("imbalanced", 10, seed=0, coeffs=(1.0,) * 5)

    def test_imbalanced_mu_includes_three_percent_category(self):
        # with only the Q3 coefficient active, y separates on membership
        coeffs = (0, 0, 0, 0, 0, 1.0, 0, 0, 0)
        d = generate_synthetic("imbalanced", 60000, seed=1, coeffs=coeffs)
        q3 = d.schema.column("Q3")
        rare = q3.categories.index("Q3.03")
        member = d.column("Q3") == rare
        assert member.sum() > 100
        gap = d.y[member].mean() - d.y[~member].mean()
        assert gap == pytest.approx(1.0, abs=0.05)

    def test_majority_mu_has_no_numeric_terms(self):
        d = generate_synthetic("majority", 50000, seed=2)
        for name in ("X1", "X2", "X3"):
            r = np.corrcoef(d.column(name), d.y)[0, 1]
            assert abs(r) < 0.02
        # the same coefficients in the balanced context do load the numerics
        d2 = generate_synthetic("balanced", 50000, seed=2)
        assert abs(np.corrcoef(d2.column("X1"), d2.y)[0, 1]) > 0.2

    def test_rare_cell_monte_carlo(self):
        d = generate_synthetic("imbalanced", 200000, seed=7)
        q5 = d.schema.column("Q5")
        rare = q5.categories.index("Q5.01")
        freq = np.mean(d.column("Q5") == rare)
        assert 0.008 <= freq <= 0.012

    def test_seed_determinism(self):
        a = generate_synthetic("imbalanced", 500, seed=42)
        b = generate_synthetic("imbalanced", 500, seed=42)
        c = generate_synthetic("imbalanced", 500, seed=43)
        assert same_dataset(a, b)
        assert a.schema == c.schema
        assert not same_dataset(a, c)


class TestSplit:
    def test_forty_percent(self):
        d = generate_synthetic("imbalanced", 2000, seed=0)
        train, test = split(d, 0.4, seed=1)
        assert test.n == 800 and train.n == 1200

    def test_degenerate_fraction(self):
        d = small_dataset(3)
        with pytest.raises(errors.FractionOutOfRange):
            split(d, 0.01, seed=0)  # rounds to an empty test split
        with pytest.raises(errors.FractionOutOfRange):
            split(d, 1.5, seed=0)

    def test_deterministic(self):
        d = generate_synthetic("balanced", 100, seed=0)
        a1, b1 = split(d, 0.3, seed=5)
        a2, b2 = split(d, 0.3, seed=5)
        assert same_dataset(a1, a2) and same_dataset(b1, b2)

    def test_partition(self):
        d = generate_synthetic("balanced", 100, seed=0)
        train, test = split(d, 0.3, seed=5)
        merged = np.sort(np.concatenate([train.column("X1"), test.column("X1")]))
        assert np.array_equal(merged, np.sort(d.column("X1")))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    schema = Schema((Column("a"), Column("b", ("u", "v", "w"))))
    d = Dataset(
        schema,
        {"a": rng.normal(size=n), "b": rng.integers(0, 3, size=n)},
    )
    try:
        enc = fit_encoder(d)
    except (errors.EmptyCategory, errors.ConstantNumeric):
        return
    assert same_dataset(decode(encode(d, enc), enc), d, numeric_tol=1e-12)


def same_bits(a, b):
    """Equal dtype, shape and bytes: NaN equals NaN, 0.0 differs from -0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def layouts(draw):
    """An encoder over 1-8 random columns (numeric, or 2-12 categories) with
    random counts in [1, n - 1], up to three of them set to 0 or n; a
    dataset for it, and a generator for a matrix."""
    kinds = draw(st.lists(st.one_of(st.none(), st.integers(2, 12)), min_size=1, max_size=8))
    schema = Schema(tuple(
        Column(f"v{i}", None if k is None else tuple(f"v{i}.{j}" for j in range(k)))
        for i, k in enumerate(kinds)
    ))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts, ranges, cols = {}, {}, {}
    for c in schema.columns:
        if c.is_categorical:
            counts[c.name] = np.asarray(draw(st.lists(
                st.integers(1, n - 1), min_size=len(c.categories), max_size=len(c.categories))))
            cols[c.name] = rng.integers(0, len(c.categories), size=n)
        else:
            lo = draw(st.floats(-1e3, 1e3))
            ranges[c.name] = (lo, lo + draw(st.floats(1e-3, 1e3)))
            cols[c.name] = rng.normal(lo, 10.0, size=n)
    for name in draw(st.lists(st.sampled_from(sorted(counts)), max_size=3)) if counts else ():
        counts[name][draw(st.integers(0, len(counts[name]) - 1))] = draw(st.sampled_from([0, n]))
    enc = tabular.EncoderState(schema, n, ranges, counts)
    return enc, Dataset(schema, cols), rng


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_spans_layout_equals_the_per_feature_oracle(layout):
    """encode, decode, the feature views and the balance weights built on
    ``Schema.spans`` equal the per-feature code bit for bit."""
    enc, data, rng = layout
    assert enc.width == len(oracles.feature_refs(enc.schema))
    assert enc.feature_names() == oracles.feature_names_per_feature(enc)
    assert same_bits(enc.feature_frequencies(), oracles.feature_frequencies_per_feature(enc))
    got, want = enc.categorical_groups(), oracles.categorical_groups_per_feature(enc)
    assert len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))

    assert same_bits(encode(data, enc).values, oracles.offset_encode(data, enc))
    # values in {0, 0.5, 1} and normals: argmax ties and interior scores alike
    values = np.where(rng.random((data.n, enc.width)) < 0.5, rng.integers(0, 3, (data.n, enc.width)) / 2,
                      rng.normal(size=(data.n, enc.width)))
    decoded = decode(EncodedMatrix(values, enc), enc)
    want_cols = oracles.offset_decode(values, enc)
    assert all(same_bits(decoded.column(name), want_cols[name]) for name in enc.schema.names)

    try:
        want_weights = oracles.scalar_balance_weights(enc)
    except errors.DegenerateCategory as e:
        with pytest.raises(errors.DegenerateCategory) as got_error:
            compute_balance_weights(enc)
        assert str(got_error.value) == str(e)
        return
    w = compute_balance_weights(enc)
    assert all(same_bits(g, x) for g, x in zip((w.w_one, w.w_zero, w.is_categorical), want_weights))


@settings(max_examples=100, deadline=None)
@given(layouts())
def test_row_source_rows_equal_the_encoded_matrix(layout):
    """Rows of any index set (repeats, one row, none, every row shuffled)
    equal those rows of the whole encoded matrix bit for bit."""
    enc, data, rng = layout
    whole = oracles.offset_encode(data, enc)
    assert same_bits(tabular.encode_values(data, enc), whole)
    rows = tabular.row_source(data, enc)
    for idx in (rng.integers(0, data.n, 2 * data.n), rng.integers(0, data.n, 1),
                np.arange(0), rng.permutation(data.n)):
        assert same_bits(rows(idx), whole[idx])


def test_row_source_numeric_cell_at_one():
    data = Dataset(small_schema(), {"a": np.array([0.0, 2.0, 1.0, 3.0]), "b": np.array([0, 1, 1, 0])})
    enc = fit_encoder(data.take(np.arange(3)))  # a in [0, 2]: 2.0 scales to 1.0, 3.0 clips to it
    idx = np.array([1, 3, 1, 0])
    got = tabular.row_source(data, enc)(idx)
    assert same_bits(got, oracles.offset_encode(data, enc)[idx])
    assert got.tolist() == [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


class TestReadCsvFailures:
    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\n1,x\n2,\xff\n")
        with pytest.raises(errors.DataError, match="cannot read CSV"):
            read_csv(p)

    def test_directory(self, tmp_path):
        with pytest.raises(errors.DataError, match="cannot read CSV"):
            read_csv(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.DataError, match="cannot read CSV"):
            read_csv(tmp_path / "absent.csv")


csv_cells = st.sampled_from(["1", "2.5", "-0", "x", "y", "nan", "", '"', "a,b", "y\n"])
csv_rows = st.lists(csv_cells | st.text(max_size=4), min_size=1, max_size=4).map(",".join)
csv_texts = st.lists(csv_rows, max_size=6).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(
    content=st.one_of(st.binary(max_size=64), st.text(max_size=64), csv_texts),
    target=st.sampled_from([None, "y", "1"]),
    with_schema=st.booleans(),
)
@example(content="1\n1", target="1", with_schema=False)  # only the target column: no schema left
def test_read_csv_loads_or_raises_typed_error(tmp_path_factory, content, target, with_schema):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content.encode("utf-8", "surrogatepass") if isinstance(content, str) else content)
    try:
        data = read_csv(path, small_schema() if with_schema else None, target=target)
    except errors.MixedAEError:
        return
    assert all(len(column) == data.n for column in data.columns.values())
    assert data.y is None or len(data.y) == data.n


sidecar_lines = st.sampled_from([
    "a,numeric", "b,categorical,x|y", "y,target", "broken", "", ",", "b,categorical",
    "b,categorical,x", "b,categorical,x|x", "a,weird", "a,numeric,extra", "a,numeric\r",
])
sidecar_texts = st.lists(sidecar_lines | st.text(max_size=6), max_size=6).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(content=st.one_of(st.binary(max_size=64), st.text(max_size=64), sidecar_texts))
def test_load_schema_sidecar_loads_or_raises_typed_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.schema"
    path.write_bytes(content.encode("utf-8", "surrogatepass") if isinstance(content, str) else content)
    try:
        schema, target = tabular.load_schema_sidecar(path)
    except errors.DataError:
        return
    assert all(isinstance(c, Column) for c in schema.columns)
    assert target is None or isinstance(target, str)


def read_both(path, schema, target):
    """(outcome of read_csv, outcome of the list-based oracle): a Dataset or the error raised."""
    out = []
    for read in (read_csv, oracles.list_read_csv):
        try:
            out.append(read(path, schema, target=target))
        except errors.MixedAEError as e:
            out.append(e)
    return out


def same_read(a, b):
    """Equal schema, target name, and columns and ``y`` bit for bit."""
    return (a.schema == b.schema and a.target_name == b.target_name
            and all(same_bits(a.column(n), b.column(n)) for n in a.schema.names)
            and (a.y is None and b.y is None or a.y is not None and b.y is not None and same_bits(a.y, b.y)))


@settings(max_examples=400, deadline=None)
@given(
    content=st.one_of(st.binary(max_size=64), st.text(max_size=64), csv_texts),
    target=st.sampled_from([None, "y", "1"]),
    with_schema=st.booleans(),
)
@example(content="a,y,y\n1,x,2\n2,y,3", target="y", with_schema=False)  # a repeated target: its last column
def test_streaming_reader_matches_the_list_reader(tmp_path_factory, content, target, with_schema):
    """Any file loads into the same bits with both readers, or both raise."""
    path = tmp_path_factory.getbasetemp() / "both.csv"
    path.write_bytes(content.encode("utf-8", "surrogatepass") if isinstance(content, str) else content)
    got, want = read_both(path, small_schema() if with_schema else None, target)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset) and same_read(got, want)
    else:
        assert isinstance(got, errors.MixedAEError)


FAULTS = ("none", "ragged", "empty-cell", "non-finite", "target-text", "unknown-category",
          "header", "no-target", "one-category", "only-target", "non-utf8", "empty-file")


@st.composite
def one_fault_files(draw):
    """A valid CSV over 1-5 numeric or categorical columns (and maybe a target),
    its schema or None, the target name, and at most one fault put into it."""
    fault = draw(st.sampled_from(FAULTS))
    with_schema = fault in ("unknown-category", "header") or fault != "one-category" and draw(st.booleans())
    with_target = draw(st.booleans()) or fault in ("target-text", "only-target")
    n = draw(st.integers(4, 8))
    kinds = draw(st.lists(st.one_of(st.none(), st.integers(2, 4)), min_size=1, max_size=5))
    if fault == "only-target":
        kinds = []
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cells, columns = [], []
    for i, k in enumerate(kinds):
        if k is None:
            cells.append(draw(st.lists(numbers, min_size=n, max_size=n)))
            columns.append(Column(f"v{i}"))
        else:  # every category appears, in a drawn order
            extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
            codes = draw(st.permutations(list(range(k)) + extra))
            cells.append([f"c{i}.{c}" for c in codes])
            columns.append(Column(f"v{i}", tuple(f"c{i}.{c}" for c in range(k))))
    header = [c.name for c in columns]
    is_number = [k is None for k in kinds]
    if with_target:
        at = draw(st.integers(0, len(header)))
        header.insert(at, "y")
        is_number.insert(at, True)
        cells.insert(at, draw(st.lists(numbers, min_size=n, max_size=n)))
    table = [header] + [list(r) for r in zip(*cells)]
    schema = Schema(tuple(columns)) if with_schema and columns else None
    target = "y" if with_target else None
    r = draw(st.integers(1, n))
    col = draw(st.integers(0, len(header) - 1))
    numeric = [k for k, number in enumerate(is_number) if number]
    categorical = [k for k, number in enumerate(is_number) if not number]
    if fault == "ragged":
        table[r] = table[r][:-1] if draw(st.booleans()) else table[r] + ["1"]
    elif fault == "empty-cell":
        table[r][col] = ""
    elif fault == "non-finite" and numeric:
        table[r][draw(st.sampled_from(numeric))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif fault == "target-text":
        table[r][header.index("y")] = "text"
    elif fault == "unknown-category" and categorical:
        table[r][draw(st.sampled_from(categorical))] = "unseen"
    elif fault == "header":
        table[0][col] = "renamed"
    elif fault == "no-target":
        target = "absent"
    elif fault == "one-category" and categorical:
        k = draw(st.sampled_from(categorical))
        for row in table[1:]:
            row[k] = "same"
    buffer = io.StringIO()
    csv.writer(buffer).writerows(table)
    content = buffer.getvalue().encode()
    if fault == "non-utf8":
        content = content[:-2] + b"\xff" + content[-2:]
    elif fault == "empty-file":
        content = b""
    return content, schema, target


@settings(max_examples=300, deadline=None)
@given(one_fault_files())
def test_one_fault_raises_the_same_error_in_both_readers(tmp_path_factory, case):
    content, schema, target = case
    path = tmp_path_factory.getbasetemp() / "one_fault.csv"
    path.write_bytes(content)
    got, want = read_both(path, schema, target)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset) and same_read(got, want)
    else:
        assert type(got) is type(want) and str(got) == str(want)


def test_read_csv_holds_no_table_of_strings(tmp_path):
    """A 3000-row file of 6 numeric, 14 categorical and a target column: the
    traced peak stays under 4 x the columns returned (11.1 x with a list of rows)."""
    rng = np.random.default_rng(5)
    cards = (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30, 40, 50, 60)
    columns = [Column(f"N{i}") for i in range(6)] + [
        Column(f"C{i}", tuple(f"C{i}_{c:02d}" for c in range(k))) for i, k in enumerate(cards)]
    cells = [[repr(v) for v in rng.normal(size=3000).tolist()] for _ in range(7)]
    cells[6:6] = [[c.categories[j] for j in rng.integers(0, len(c.categories), 3000)] for c in columns[6:]]
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([[c.name for c in columns] + ["y"], *zip(*cells)])
    schema = Schema(tuple(columns))
    tracemalloc.start()
    try:
        data = read_csv(path, schema, target="y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(v.nbytes for v in data.columns.values()) + data.y.nbytes
    assert returned == 3000 * 21 * 8
    assert peak < 4 * returned
