import pytest

from lingeo.fileio import ParseError, read_reduced_subspace, read_vectors
from lingeo.gf import make_field
from lingeo.pg import build_geometry


@pytest.fixture(scope="module")
def reduced():
    return build_geometry(2, make_field(3, 1))     # RED 2 3


@pytest.mark.parametrize("text,message", [
    ("RED 2 3\n1 0\n", "line 2: expected 3 codes, got 2"),
    ("# basis\nRED 2 3\n\n1 0 3\n", "line 4: code out of range for GF(q0)"),
    ("RED 2 3\n1 0 -1\n", "line 2: code out of range for GF(q0)"),
    ("RED 2 3\n1 x 0\n",
     "line 2: bad row: invalid literal for int() with base 10: 'x'"),
    ("RED 2 3\n# no rows\n", "empty subspace"),
    ("", "missing 'RED m q0' header"),
    ("RED 2\n1 0 0\n", "line 1: expected 'RED m q0'"),
    ("RED x 3\n1 0 0\n",
     "line 1: bad header: invalid literal for int() with base 10: 'x'"),
    ("RED 2 5\n1 0 0\n", "line 1: header RED 2 5 does not match the "
     "reduced geometry PG(2, 3)"),
])
def test_reduced_subspace_errors(tmp_path, reduced, text, message):
    path = tmp_path / "pi.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_reduced_subspace(path, reduced)
    assert str(err.value) == message


def test_reduced_subspace_rows(tmp_path, reduced):
    path = tmp_path / "pi.txt"
    path.write_text("RED 2 3   # header\n0 1 2\n\n1 0 0  # row\n")
    assert read_reduced_subspace(path, reduced).basis == ((1, 0, 0), (0, 1, 2))


@pytest.mark.parametrize("text,message", [
    ("1 2\n", "line 1: expected 3 codes, got 2"),
    ("# U\n1 2 49\n", "line 2: code out of range for the field"),
    ("1 2.5 0\n",
     "line 1: bad vector: invalid literal for int() with base 10: '2.5'"),
    ("# nothing\n\n", "no vectors in file"),
])
def test_vector_file_errors(tmp_path, text, message):
    path = tmp_path / "U.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_vectors(path, make_field(7, 2), 3)
    assert str(err.value) == message


def test_vector_file_rows(tmp_path):
    path = tmp_path / "U.txt"
    path.write_text("1 2 48  # first\n\n0 0 1\n")
    assert read_vectors(path, make_field(7, 2), 3) == [(1, 2, 48), (0, 0, 1)]
