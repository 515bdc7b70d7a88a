"""CSV ingestion, normalization, and the synthetic ground-truth generator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayesvolterra import (
    DataFormatError,
    Dataset,
    SyntheticSystem,
    build_lagged_matrix,
    calibrate_components,
    center_output,
    compute_normalization,
    expected_output,
    load_csv,
    normalize_input,
    random_cpd_system,
    save_csv,
    split_count,
    standardize_output,
    synthesize,
)
from bayesvolterra import data
from bayesvolterra.features import block_windows, lag_blocks

from _oracles import (
    cpd_expand,
    cpd_kernels_order2,
    full_window_calibrate_components,
    full_window_center_output,
    full_window_synthesize,
    nested_summation,
    reference_read_csv,
    reference_write_csv,
    scale_rows,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_parses_a_record(tmp_path):
    path = write(tmp_path, "u,y\n0.1,1.0\n0.2,1.1\n")
    dataset = load_csv(path)
    assert len(dataset) == 2
    assert_array_equal(dataset.u, [0.1, 0.2])
    assert_array_equal(dataset.y, [1.0, 1.1])


def test_load_csv_accepts_padded_header(tmp_path):
    dataset = load_csv(write(tmp_path, " u , y \n1,2\n"))
    assert len(dataset) == 1


def test_load_csv_rejects_header_only_file(tmp_path):
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(write(tmp_path, "u,y\n"))


def test_load_csv_rejects_empty_file(tmp_path):
    with pytest.raises(DataFormatError, match=":1:"):
        load_csv(write(tmp_path, ""))


def test_load_csv_rejects_wrong_header(tmp_path):
    with pytest.raises(DataFormatError, match="expected header"):
        load_csv(write(tmp_path, "x,y\n1,2\n"))


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    # a spreadsheet's export loads as the plain file does; a bad row still
    # cites its own line
    text = "u,y\r\n0.5,1.0\r\n-2,3e-3\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    want, got = load_csv(plain), load_csv(marked)
    assert_array_equal(got.u, want.u)
    assert_array_equal(got.y, want.y)
    marked.write_bytes(b"\xef\xbb\xbfu,y\n1,2\nx,3\n")
    with pytest.raises(DataFormatError, match=":3: non-numeric"):
        load_csv(marked)


def test_load_csv_cites_the_offending_line(tmp_path):
    path = write(tmp_path, "u,y\n0.1,1.0\nnan,1.1\n")
    with pytest.raises(DataFormatError, match=":3:"):
        load_csv(path)
    path = write(tmp_path, "u,y\n0.1,abc\n", name="bad.csv")
    with pytest.raises(DataFormatError, match=":2:.*non-numeric"):
        load_csv(path)
    path = write(tmp_path, "u,y\n0.1,1.0\n0.2\n", name="short.csv")
    with pytest.raises(DataFormatError, match=":3:.*2 columns"):
        load_csv(path)


@pytest.mark.parametrize("text, line", [
    ("u,y\n1,2\n\n3,4\n", 3),
    ("u,y\n1,2\n\n", 3),
    ("u,y\r\n1,2\r\n\r\n3,4\r\n", 3),
    ("u,y\n1,2\n3,4\n   \n5,6\n", 4),
], ids=["empty", "trailing-empty", "empty-crlf", "whitespace-only"])
def test_load_csv_refuses_empty_lines(tmp_path, text, line):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError, match=f":{line}: expected 2 columns"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("u,y\n1,nan\n\n", ":2: non-finite"),
    ("u,y\n1,2,3\n4,5,6\n\n", ":2: expected 2 columns, got 3"),
    ("u,y\n1_0,2\n\n", ":3: expected 2 columns, got 0"),
], ids=["non-finite", "three-columns", "underscore-digits"])
def test_load_csv_cites_the_first_fault_before_an_empty_line(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message):
        load_csv(write(tmp_path, text))


@pytest.mark.parametrize("text", [
    'u,y\n"0.1","2"\n"0.3",4\n',
    "u,y\n 0.1 , 2 \n0.3 ,4\n",
    "u,y\r\n0.1,2\r\n0.3,4\r\n",
    "u,y\n0.1,2\n0.3,4",
], ids=["quoted", "padded", "crlf", "no-final-newline"])
def test_load_csv_accepts_quoted_padded_and_crlf_rows(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    dataset = load_csv(path)
    assert_array_equal(dataset.u, [0.1, 0.3])
    assert_array_equal(dataset.y, [2.0, 4.0])


@pytest.fixture(scope="module")
def long_rows():
    rng = np.random.default_rng(40)
    return [f"{a!r},{b!r}\n" for a, b in rng.standard_normal((100_000, 2)).tolist()]


@pytest.mark.parametrize("bad, message", [
    ("0.5,abc\n", "non-numeric value in \\['0.5', 'abc'\\]"),
    ("0.5\n", "expected 2 columns, got 1"),
    ("\n", "expected 2 columns, got 0"),
    ("nan,0.5\n", "non-finite value in \\['nan', '0.5'\\]"),
])
def test_load_csv_cites_a_late_line_of_a_long_file(tmp_path, long_rows, bad, message):
    rows = list(long_rows)
    rows[69_999] = bad  # data row k is line k + 2
    path = tmp_path / "long.csv"
    path.write_text("u,y\n" + "".join(rows))
    with pytest.raises(DataFormatError, match=f":70001: {message}$"):
        load_csv(path)


def test_load_csv_matches_a_row_by_row_reference_bitwise(tmp_path):
    rng = np.random.default_rng(41)
    values = rng.standard_normal((5000, 2)) * 10.0 ** rng.integers(-300, 300, (5000, 2))
    values[:4] = [[5e-324, -0.0], [1e16, 1e-05], [-0.0, 5e-324], [1e-05, 1e16]]
    formats = ("{!r}", "{:.17g}", "{:.6e}", "{:.3f}", "{:+.20e}")
    lines = [",".join(formats[(i + j) % len(formats)].format(v) for j, v in enumerate(row))
             for i, row in enumerate(values.tolist())]
    path = tmp_path / "values.csv"
    path.write_text("u,y\n" + "\n".join(lines) + "\n")
    u, y = reference_read_csv(path)
    dataset = load_csv(path)
    assert dataset.u.tobytes() == u.tobytes()
    assert dataset.y.tobytes() == y.tobytes()


CELLS = ["1", "-0.5", "2e3", "1_0", "nan", "inf", "1e999", "abc", "", " ",
         " 3 ", "\t4", '"5"', '"6', '7"', '"8"9', "1 2", "."]


def test_load_csv_agrees_with_the_row_by_row_reference(tmp_path):
    # 300 random files of up to 5 rows of 0-3 cells drawn from CELLS
    rng = np.random.default_rng(45)
    path = tmp_path / "fuzz.csv"
    for case in range(300):
        rows = [",".join(rng.choice(CELLS, rng.integers(0, 4)).tolist())
                for _ in range(rng.integers(0, 6))]
        end = ["\n", "\r\n", "\r"][case % 3]
        text = end.join(["u,y", *rows]) + (end if case % 2 else "")
        path.write_bytes(text.encode())
        try:
            expected = reference_read_csv(path)
        except DataFormatError as err:
            with pytest.raises(DataFormatError) as got:
                load_csv(path)
            assert str(got.value) == str(err), repr(text)
        else:
            dataset = load_csv(path)
            assert dataset.u.tobytes() == expected[0].tobytes(), repr(text)
            assert dataset.y.tobytes() == expected[1].tobytes(), repr(text)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    dataset = Dataset(rng.standard_normal(50), rng.standard_normal(50))
    path = tmp_path / "roundtrip.csv"
    save_csv(path, dataset)
    back = load_csv(path)
    assert_array_equal(back.u, dataset.u)
    assert_array_equal(back.y, dataset.y)


def test_save_csv_matches_a_row_by_row_writer_bytewise(tmp_path):
    # 40 003 rows: several write blocks and a ragged last one
    rng = np.random.default_rng(42)
    values = rng.standard_normal((40_003, 2)) * 10.0 ** rng.integers(-300, 300, (40_003, 2))
    values[:4] = [[5e-324, -0.0], [1e16, 1e-05], [-0.0, 5e-324], [1e-05, 1e16]]
    save_csv(tmp_path / "saved.csv", Dataset(values[:, 0], values[:, 1]))
    reference_write_csv(tmp_path / "reference.csv", ["u", "y"], values.tolist())
    assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="u has 3, y has 5 rows"):
        data.write_csv(path, ["u", "y"], [np.zeros(3), np.ones(5)])
    assert not path.exists()


def test_write_csv_refuses_a_header_of_another_width(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="header names 3 columns, 2 given"):
        data.write_csv(path, ["u", "y", "z"], [np.zeros(3), np.ones(3)])
    with pytest.raises(ValueError, match="header names 1 columns, 2 given"):
        data.write_csv(path, ["u"], [np.zeros(3), np.ones(3)])
    assert not path.exists()


def test_write_csv_refuses_only_scalar_columns(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="every column is a scalar"):
        data.write_csv(path, ["a", "b"], [1.0, 2])
    assert not path.exists()
    # one array sets the rows; the scalars repeat on each
    data.write_csv(path, ["a", "b", "c"], [1.5, np.array([1, 2]), 3])
    assert path.read_bytes() == b"a,b,c\r\n1.5,1,3\r\n1.5,2,3\r\n"


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        Dataset([], [])
    with pytest.raises(ValueError):
        Dataset([1.0, float("nan")], [1.0, 2.0])


def test_split_count_semantics():
    assert split_count(100, 60) == 60
    assert split_count(100, 0.5) == 50
    assert split_count(3, 0.5) == 2  # rounds
    with pytest.raises(ValueError):
        split_count(100, 100)
    with pytest.raises(ValueError):
        split_count(100, 0)
    with pytest.raises(ValueError):
        split_count(100, 1.5)


def test_normalization_examples():
    record = compute_normalization(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert (record.input_min, record.input_max) == (0.0, 2.0)
    assert record.output_mean == 2.0
    assert record.output_std == 1.0  # population std
    assert_array_equal(normalize_input([0.0, 2.0], record), [0.0, 1.0])
    assert_array_equal(standardize_output([1.0, 3.0], record), [-1.0, 1.0])


def test_normalization_round_trip():
    rng = np.random.default_rng(1)
    u = rng.uniform(-3.0, 5.0, 200)
    y = rng.standard_normal(200) * 4.0 + 2.0
    record = compute_normalization(u, y)
    u_back = normalize_input(u, record) * (record.input_max - record.input_min)
    u_back += record.input_min
    y_back = standardize_output(y, record) * record.output_std + record.output_mean
    assert_allclose(u_back, u, rtol=1e-12, atol=1e-12)
    assert_allclose(y_back, y, rtol=1e-12, atol=1e-12)


def test_normalization_rejects_constant_signals():
    with pytest.raises(ValueError, match="input"):
        compute_normalization(np.ones(10), np.arange(10.0))
    with pytest.raises(ValueError, match="output"):
        compute_normalization(np.arange(10.0), np.ones(10))


def test_synthesize_linear_impulse():
    # window rows (constant, lag 0, lag 1): y(n) = 3 u(n)
    system = SyntheticSystem([np.array([[0.0], [3.0], [0.0]])])
    u = np.array([1.0, -2.0, 0.5])
    dataset = synthesize(system, u)
    assert_allclose(dataset.y, 3.0 * u, rtol=1e-14)
    assert_allclose(dataset.y, nested_summation([0.0, np.array([3.0, 0.0])], u),
                    rtol=1e-14)


def test_synthesize_includes_the_constant_kernel():
    system = SyntheticSystem([np.array([[5.0], [0.0], [0.0]])])
    u = np.array([1.0, 2.0, 3.0])
    dataset = synthesize(system, u)
    assert_array_equal(dataset.y, [5.0, 5.0, 5.0])
    assert_array_equal(nested_summation([5.0, np.zeros(2)], u), dataset.y)


def test_synthesize_cpd_matches_nested_summation():
    rng = np.random.default_rng(2)
    factors = [rng.standard_normal((4, 1)) for _ in range(2)]
    u = rng.uniform(0.0, 1.0, 40)
    via_cpd = synthesize(SyntheticSystem(factors), u).y
    via_kernels = nested_summation(cpd_kernels_order2(factors), u)
    assert_allclose(via_cpd, via_kernels, rtol=1e-12, atol=1e-12)


def test_synthesize_is_the_model_output_without_noise():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.0, 1.0, 80)
    system = random_cpd_system(3, 6, 2, rng)
    expected = expected_output(build_lagged_matrix(u, 6), system.factors)
    assert_array_equal(synthesize(system, u).y, expected)


def test_synthesize_cpd_rank2_matches_nested_summation():
    rng = np.random.default_rng(3)
    factors = [rng.standard_normal((5, 2)) for _ in range(2)]
    u = rng.uniform(-1.0, 1.0, 60)
    via_cpd = synthesize(SyntheticSystem(factors), u).y
    via_kernels = nested_summation(cpd_kernels_order2(factors), u)
    assert_allclose(via_cpd, via_kernels, rtol=1e-12, atol=1e-12)


def test_synthesize_noise_is_seed_reproducible():
    rng = np.random.default_rng(4)
    factors = [rng.standard_normal((3, 1))]
    system = SyntheticSystem(factors, noise_std=0.5)
    u = rng.uniform(0.0, 1.0, 100)
    a = synthesize(system, u, rng=np.random.default_rng(11)).y
    b = synthesize(system, u, rng=np.random.default_rng(11)).y
    c = synthesize(system, u, rng=np.random.default_rng(12)).y
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    clean = synthesize(SyntheticSystem(factors), u).y
    assert not np.array_equal(a, clean)
    with pytest.raises(ValueError, match="rng"):
        synthesize(system, u)


def test_synthetic_system_validation():
    system = SyntheticSystem([np.ones((4, 2)), np.ones((4, 2))])
    assert (system.order, system.memory) == (2, 3)
    with pytest.raises(ValueError, match="empty"):
        SyntheticSystem([])
    with pytest.raises(ValueError, match="differ"):
        SyntheticSystem([np.ones((3, 1)), np.ones((4, 1))])
    with pytest.raises(ValueError, match="matrices"):
        SyntheticSystem([np.ones(3)])
    for noise_std in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std"):
            SyntheticSystem([np.ones((3, 1))], noise_std=noise_std)


def test_scale_rows_masks_lags():
    rng = np.random.default_rng(5)
    scale = np.array([1.0, 1.0, 0.0, 0.0])
    system = scale_rows(random_cpd_system(2, 3, 2, rng), scale)
    for fac in system.factors:
        assert_array_equal(fac[2:], np.zeros((2, 2)))
        assert np.all(fac[:2] != 0.0)


def test_calibrate_components_hits_the_target_std():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.0, 1.0, 500)
    system = random_cpd_system(2, 4, 3, rng)
    calibrated = calibrate_components(system, u, component_std=0.7)
    U_rows = np.ones((3, 500))
    from bayesvolterra import build_lagged_matrix

    U = build_lagged_matrix(u, 4)
    for fac in calibrated.factors:
        U_rows = U_rows * (fac.T @ U)
    assert_allclose(U_rows.std(axis=1), np.full(3, 0.7), rtol=1e-10)


def test_calibrate_components_rejects_degenerate_components():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, 100)
    factors = [np.zeros((4, 1)), np.zeros((4, 1))]
    factors[0][0, 0] = 1.0  # constant-only component: zero output variance
    factors[1][0, 0] = 1.0
    system = SyntheticSystem(factors)
    with pytest.raises(ValueError, match="degenerate"):
        calibrate_components(system, u)


def test_center_output_zeroes_the_clean_mean_at_unchanged_rank():
    rng = np.random.default_rng(30)
    u = rng.uniform(0.0, 1.0, 400)
    system = calibrate_components(random_cpd_system(2, 4, 2, rng), u)
    centered = center_output(system, u)
    clean = synthesize(centered, u).y
    assert abs(clean.mean()) < 1e-10
    window = system.memory + 1
    grid = cpd_expand(centered.factors).reshape(window, window)
    assert np.linalg.matrix_rank(grid) == 2


def test_center_output_rejects_a_flat_cofactor():
    u = np.random.default_rng(31).uniform(0.0, 1.0, 100)
    lag_mean = build_lagged_matrix(u, 2)[1].mean()
    first = np.array([[1.0], [2.0], [0.5]])
    # the second factor's projection averages zero, so no constant shift
    # in the first factor can move the mean output
    second = np.array([[-lag_mean], [1.0], [0.0]])
    system = SyntheticSystem([first, second])
    with pytest.raises(ValueError, match="degenerate"):
        center_output(system, u)


def test_center_output_walks_its_input_once(monkeypatch):
    # the cofactor means and the mean output come from one walk
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lag_blocks(*args, **kwargs)

    monkeypatch.setattr(data, "lag_blocks", counting)
    u = np.random.default_rng(34).uniform(0.0, 1.0, 2 * block_windows(5) + 9)
    center_output(random_cpd_system(3, 5, 2, np.random.default_rng(35)), u)
    assert len(calls) == 1


def test_simulation_equals_the_full_window_formulas():
    # three whole lag blocks and a partial one, bit for bit
    rng = np.random.default_rng(32)
    u = rng.uniform(0.0, 1.0, 3 * block_windows(8) + 45)
    system = random_cpd_system(3, 8, 2, rng, noise_std=0.1)
    calibrated = calibrate_components(system, u, component_std=0.5)
    reference = full_window_calibrate_components(system, u, component_std=0.5)
    for fac, ref in zip(calibrated.factors, reference.factors):
        assert_array_equal(fac, ref)
    centered = center_output(calibrated, u)
    for fac, ref in zip(centered.factors, full_window_center_output(calibrated, u).factors):
        assert_array_equal(fac, ref)
    y = synthesize(centered, u, rng=np.random.default_rng(33)).y
    assert_array_equal(y, full_window_synthesize(centered, u, np.random.default_rng(33)))
