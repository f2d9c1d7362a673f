"""The report writer against its reference: ``json.dumps`` of the plain-Python document.

``reference_dumps`` is the encoder the package used before it wrote reports in
one pass, with one rule changed: every non-finite float, whatever its type, is
the quoted repr (``"inf"``, ``"-inf"``, ``"nan"``), so strict parsers read
every report.
"""
import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zonoids.report import config_hash, json_dumps, write_csv


def reference_plain(obj):
    """``obj`` as plain Python values, ready for ``json.dumps``."""
    if isinstance(obj, dict):
        return {str(k): reference_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return reference_plain(obj.item())
    if isinstance(obj, complex):
        return {"re": reference_plain(obj.real), "im": reference_plain(obj.imag)}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def reference_dumps(obj) -> str:
    return json.dumps(reference_plain(obj), sort_keys=True, indent=2)


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


_floats = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=_floats),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(), st.complex_numbers(),
    _floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.complex_numbers().map(np.complex128),
)
_leaves = st.one_of(_scalars, _arrays, st.lists(_finite).map(tuple), st.lists(_floats))
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=4),
    ),
    max_leaves=24,
)


@given(_documents)
def test_writer_equals_the_reference_encoding(doc):
    assert json_dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, np.zeros(0), np.zeros((2, 0)), {1: "int key", "1": "str key"},
    {"é": "ü ☃ \U0001f600", "\x00": "\n\t\""}, [1.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1],
    {"row": (0.5, 1, 2.5), "ints": [True, 1, np.int64(2)]}, np.arange(6.0).reshape(2, 3),
])
def test_writer_equals_the_reference_encoding_on_edge_cases(doc):
    assert json_dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("obj", [object(), {1, 2}, np.bool_(True), (v for v in range(2)), {"a": [object()]},
                                 np.complex64(1j)])
def test_unsupported_objects_raise_type_error(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        json_dumps(obj)


def test_non_finite_values_are_quoted_for_strict_parsers():
    inf, nan = float("inf"), float("nan")
    doc = {"float": -inf, "float64": np.float64(inf), "float32": np.float32(nan), "complex": complex(inf, nan),
           "complex128": np.complex128(complex(-inf, 1.0)), "array": np.array([[1.0, nan]]), "row": (2.0, inf)}
    text = json_dumps(doc)
    assert text == reference_dumps(doc)
    assert json.loads(text, parse_constant=_refuse) == {
        "float": "-inf", "float64": "inf", "float32": "nan", "complex": {"im": "nan", "re": "inf"},
        "complex128": {"im": 1.0, "re": "-inf"}, "array": [[1.0, "nan"]], "row": [2.0, "inf"]}


def test_config_hash_reads_float_arrays_by_value_and_shape():
    base = {"inputs": {"atoms": [[1.0, 2.0], [3.0, 4.0]], "type": "discrete"}, "seed": 1}
    # an array, a tuple and a list of the same floats are one configuration
    assert config_hash({"seed": 1, "inputs": {"type": "discrete", "atoms": np.array([[1.0, 2.0], [3.0, 4.0]])}}) \
        == config_hash({"inputs": {"atoms": ([1.0, 2.0], (3.0, 4.0)), "type": "discrete"}, "seed": 1}) \
        == config_hash(base)
    others = [
        {"inputs": {"atoms": [[1.0, 2.0], [3.0, 4.5]], "type": "discrete"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0], [3.0, 0.0]], "type": "discrete"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0], [3.0, -0.0]], "type": "discrete"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0, 3.0, 4.0]], "type": "discrete"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0], [3.0]], "type": "discrete"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0], [3.0, 4.0]], "type": "gaussian"}, "seed": 1},
        {"inputs": {"atoms": [[1.0, 2.0], [3.0, 4.0]], "type": "discrete"}, "seed": 2},
        {"inputs": {"weights": [[1.0, 2.0], [3.0, 4.0]], "type": "discrete"}, "seed": 1},
    ]
    hashes = {config_hash(doc) for doc in [base, *others]}
    assert len(hashes) == len(others) + 1


def test_write_csv_bytes_equal_a_per_value_repr_reference(tmp_path):
    header = ["x, y", 'say "hi"', "plain"]
    rows = [
        (float("inf"), float("-inf"), float("nan")),
        (-0.0, 5e-324, 0.1),
        (2**70, -(2**63), 1.7976931348623157e308),
        (True, False, None),
        [1, 2.5, "a,b"],
    ]
    write_csv(tmp_path / "out.csv", header, iter(rows))
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    written = (tmp_path / "out.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.splitlines()[:3] == [b'"x, y","say ""hi""",plain', b"inf,-inf,nan", b"-0.0,5e-324,0.1"]
