import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucompare.dataset import (
    Dataset,
    DatasetFormatError,
    Observation,
    load_csv,
    save_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "x1,x2,y\n0.0,1.5,0\n2.0,-1.0,1\n3.5,0.25,1\n")
    data = load_csv(path)
    assert data.n == 3
    assert data.feature_dim == 2
    assert data.observation(1) == Observation((0.0, 1.5), 0)
    assert data.observation(3).y == 1


def test_indices_are_one_based_and_stable(tmp_path):
    path = write(tmp_path, "a,y\n10,0\n20,1\n30,0\n")
    data = load_csv(path)
    assert [data.observation(i).x[0] for i in (1, 2, 3)] == [10.0, 20.0, 30.0]
    with pytest.raises(IndexError):
        data.observation(0)
    with pytest.raises(IndexError):
        data.observation(4)


def test_label_column_by_name_and_index(tmp_path):
    path = write(tmp_path, "y,a,b\n1,0.5,2\n0,1.5,3\n")
    by_name = load_csv(path, label_column="y")
    by_index = load_csv(path, label_column=0)
    assert by_name == by_index
    assert by_name.observation(1) == Observation((0.5, 2.0), 1)


def test_no_header(tmp_path):
    path = write(tmp_path, "1.0,0\n2.0,1\n")
    data = load_csv(path, has_header=False)
    assert data.n == 2
    assert [obs.y for obs in data.observations] == [0, 1]


def test_nonbinary_label_names_the_row(tmp_path):
    path = write(tmp_path, "a,y\n1,0\n2,2\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(path)


def test_nonnumeric_feature_names_row_and_column(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n1,oops,1\n")
    with pytest.raises(DatasetFormatError, match="line 3, column 2"):
        load_csv(path)


def test_nonfinite_feature_rejected(tmp_path):
    path = write(tmp_path, "a,y\nnan,0\n1,1\n")
    with pytest.raises(DatasetFormatError, match="finite"):
        load_csv(path)


def test_inconsistent_column_count(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n1,1\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(path)


def test_empty_file_and_header_only(tmp_path):
    with pytest.raises(DatasetFormatError, match="empty dataset"):
        load_csv(write(tmp_path, ""))
    with pytest.raises(DatasetFormatError, match="empty dataset"):
        load_csv(write(tmp_path, "a,y\n", name="h.csv"))


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,y\n1,0\n\xff,1\n")
    with pytest.raises(DatasetFormatError, match="not UTF-8 text: cannot decode byte 0xff"):
        load_csv(path)


def test_byte_order_mark_dropped_before_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("y,x1\n0,0.5\n1,1.5\n", encoding="utf-8-sig")
    data = load_csv(path, label_column="y")
    assert [obs.y for obs in data.observations] == [0, 1]
    assert [obs.x for obs in data.observations] == [(0.5,), (1.5,)]


def test_byte_order_mark_dropped_before_first_value(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("0.5,0\n1.5,1\n", encoding="utf-8-sig")
    data = load_csv(path, has_header=False)
    assert [obs.x for obs in data.observations] == [(0.5,), (1.5,)]


def test_overlong_field_rejected(tmp_path):
    path = write(tmp_path, "a,y\n1,0\n" + "1" * 200_000 + ",1\n")
    with pytest.raises(DatasetFormatError, match="line 3: field larger than field limit"):
        load_csv(path)


def test_label_name_without_header(tmp_path):
    path = write(tmp_path, "1,0\n2,1\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_csv(path, label_column="y", has_header=False)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation((1.0,), 2)
    with pytest.raises(ValueError):
        Observation((math.inf,), 0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="empty"):
        Dataset(())
    with pytest.raises(ValueError, match="row 2"):
        Dataset((Observation((1.0,), 0), Observation((1.0, 2.0), 1)))


def test_width_comes_from_first_row():
    rows = (Observation((1.0, 2.0), 0), Observation((3.0, 4.0), 1))
    assert Dataset(rows).feature_dim == 2
    with pytest.raises(ValueError, match="row 3 has 1 features, expected 2"):
        Dataset(rows + (Observation((5.0,), 0),))
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset.from_arrays([], [])


def test_roundtrip_exact(tmp_path):
    data = Dataset.from_arrays(
        [(0.1, -7.25e-12), (1e300, 2.0), (-0.0, 3.0)], [0, 1, 1]
    )
    path = tmp_path / "out.csv"
    save_csv(data, path)
    again = load_csv(path)
    assert again == data
    for i in range(1, data.n + 1):
        assert [repr(v) for v in again.observation(i).x] == [
            repr(v) for v in data.observation(i).x
        ]


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=2,
                max_size=2,
            ),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_roundtrip_property(tmp_path_factory, rows):
    data = Dataset.from_arrays([tuple(x) for x, _ in rows], [y for _, y in rows])
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    save_csv(data, path)
    assert load_csv(path) == data
