"""Wire formats: strict loading, normalized dumping, byte determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import serialize
from linrel.errors import FormatError
from linrel.relation import LinearRelation, identity_relation
from linrel.serialize import (
    dump_complex,
    dump_matrix,
    dump_relation,
    dump_subspace,
    dump_vector,
    dumps,
    load_complex,
    load_matrix,
    load_relation,
    load_subspace,
    load_vector,
)
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_complex_round_trip():
    for z in (0j, 1 + 2j, -0.5j, 3.25 + 0j):
        assert load_complex(dump_complex(z)) == z


@pytest.mark.parametrize("bad", [
    [1.0], [1.0, 2.0, 3.0], "1+2j", 1.0, [True, 0.0], [1.0, float("nan")],
    [1.0, float("inf")], [None, 1.0],
])
def test_complex_rejects_malformed(bad):
    with pytest.raises(FormatError):
        load_complex(bad)


def test_vector_round_trip():
    v = np.array([1 + 1j, -2.5, 0.0], dtype=complex)
    assert np.array_equal(load_vector(dump_vector(v), 3), v)
    with pytest.raises(FormatError):
        load_vector(dump_vector(v), 4)
    with pytest.raises(FormatError):
        load_vector("nope", 3)


def test_matrix_round_trip():
    m = np.array([[1.0, 2j], [3.0, 4.0 - 1j]], dtype=complex)
    assert np.array_equal(load_matrix(dump_matrix(m), 2, 2), m)
    with pytest.raises(FormatError):
        load_matrix(dump_matrix(m), 3, 2)
    with pytest.raises(FormatError):
        load_matrix([[dump_complex(1.0)]], 1, 2)


def test_subspace_round_trip_canonicalizes():
    s = Subspace.span([E1, E2], 2)
    obj = dump_subspace(s)
    assert obj["ambient_dim"] == 2
    assert load_subspace(obj).equals(s)
    # non-orthonormal spanning set is accepted and orthonormalized
    raw = {"ambient_dim": 2,
           "basis": [dump_vector([2.0, 0.0]), dump_vector([3.0, 3.0])]}
    assert load_subspace(raw).equals(Subspace.full(2))


def test_subspace_rejects_malformed():
    with pytest.raises(FormatError):
        load_subspace({"basis": []})
    with pytest.raises(FormatError):
        load_subspace({"ambient_dim": -1, "basis": []})
    with pytest.raises(FormatError):
        load_subspace({"ambient_dim": 2, "basis": [dump_vector([1.0])]})


def test_relation_graph_form_round_trip():
    t = identity_relation(2)
    obj = dump_relation(t)
    assert obj["repr"]["type"] == "graph"
    assert obj["dim_in"] == 2 and obj["dim_out"] == 2
    assert obj["dom_dim"] == 2 and obj["mul_dim"] == 0
    assert load_relation(obj).equals(t)


def test_relation_three_forms_agree():
    graph_obj = dump_relation(identity_relation(2))
    matrix_obj = {"dim_in": 2, "dim_out": 2,
                  "repr": {"type": "matrix",
                           "matrix": dump_matrix(np.eye(2, dtype=complex))}}
    op_obj = {"dim_in": 2, "dim_out": 2,
              "repr": {"type": "operator_mul",
                       "domain_basis": [dump_vector(E1), dump_vector(E2)],
                       "matrix_on_domain": dump_matrix(np.eye(2, dtype=complex)),
                       "mul_basis": []}}
    loaded = [load_relation(o) for o in (graph_obj, matrix_obj, op_obj)]
    assert loaded[0].equals(loaded[1])
    assert loaded[1].equals(loaded[2])


def test_relation_operator_mul_with_mul_part():
    obj = {"dim_in": 2, "dim_out": 2,
           "repr": {"type": "operator_mul",
                    "domain_basis": [dump_vector(E1)],
                    "matrix_on_domain": dump_matrix(np.array([[1.0], [0.0]])),
                    "mul_basis": [dump_vector(E2)]}}
    t = load_relation(obj)
    assert t.dom.equals(Subspace.span([E1], 2))
    assert t.mul.equals(Subspace.span([E2], 2))
    redumped = dump_relation(t, validated=True)
    assert redumped["validated"] is True
    assert redumped["mul_dim"] == 1
    assert load_relation(redumped).equals(t)


def test_relation_operator_mul_accepts_skew_domain():
    # a non-orthonormal domain basis must describe the same relation
    obj = {"dim_in": 2, "dim_out": 2,
           "repr": {"type": "operator_mul",
                    "domain_basis": [dump_vector([2.0, 0.0])],
                    "matrix_on_domain": dump_matrix(np.array([[2.0], [0.0]])),
                    "mul_basis": []}}
    t = load_relation(obj)
    expected = LinearRelation.from_images_and_mul(
        Subspace.span([E1], 2), np.array([[1.0], [0.0]], dtype=complex),
        Subspace.zero(2))
    assert t.equals(expected)


def test_relation_rejects_malformed():
    with pytest.raises(FormatError):
        load_relation({"dim_in": 2, "dim_out": 2, "repr": {"type": "wavelet"}})
    with pytest.raises(FormatError):
        load_relation({"dim_in": 2, "repr": {"type": "graph", "basis": []}})
    with pytest.raises(FormatError):
        load_relation([])
    with pytest.raises(FormatError):
        load_relation({"dim_in": 2, "dim_out": 2,
                       "repr": {"type": "graph",
                                "basis": [dump_vector([1.0, 0.0, 0.0])]}})


def test_dumps_is_byte_deterministic():
    t = LinearRelation.from_matrix(np.array([[0.5, 1j], [-1j, 2.0]]))
    a = dumps({"relation": dump_relation(t), "note": 1})
    b = dumps({"note": 1, "relation": dump_relation(t)})
    assert a == b
    assert a.endswith("\n")
    assert "nan" not in a.lower()


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def test_dumps_of_wire_objects_is_json_dumps():
    t = LinearRelation.from_matrix(np.array([[0.5, 1j], [-1j, 2.0]]))
    obj = {"relation": dump_relation(t), "m": dump_matrix(np.eye(3) * (1 - 2j))}
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2,
                                    allow_nan=False) + "\n"


# -- the one-pass writer against json.dumps ----------------------------------

_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]))
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**63, max_value=10**40) | _FLOATS
           | _FLOATS.map(np.float64) | st.text())
_PAIRS = st.lists(st.lists(_FLOATS, min_size=2, max_size=2))
_VALUES = st.recursive(
    _LEAVES | _PAIRS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


def _json_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_dumps_matches_json_dumps(obj):
    assert dumps(obj) == _json_reference(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: [x],
    lambda x: {"a": [[1.0, x], [0.0, 0.0]]},
    lambda x: {"a": [[x, 1.0]]},
    lambda x: (np.float64(x),),
])
def test_dumps_rejects_nonfinite_like_json(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError) as ours:
        dumps(obj)
    with pytest.raises(ValueError) as theirs:
        _json_reference(obj)
    assert str(ours.value) == str(theirs.value)


def test_dumps_errors_match_json():
    cyclic = []
    cyclic.append(cyclic)
    for obj in (cyclic, {"a": object()}, {"a": {1: 2, "b": 3}}, [np.int64(1)]):
        with pytest.raises(Exception) as ours:
            dumps(obj)
        with pytest.raises(Exception) as theirs:
            _json_reference(obj)
        assert type(ours.value) is type(theirs.value)
        assert str(ours.value) == str(theirs.value)
    # non-string keys json can write are written, at any depth
    obj = {"x": [{2: [1.0, 2.0], 1.5: None, True: "t"}]}
    assert dumps(obj) == _json_reference(obj)


# -- bulk loading against the per-entry validator -----------------------------


def _entrywise_vector(obj, length, where="vector"):
    """The per-entry loader: one ``load_complex`` call per entry."""
    if not isinstance(obj, list):
        raise FormatError(f"{where}: expected a list of complex entries")
    if len(obj) != length:
        raise FormatError(f"{where}: expected {length} entries, got {len(obj)}")
    out = np.zeros(length, dtype=np.complex128)
    for i, entry in enumerate(obj):
        out[i] = load_complex(entry, f"{where}[{i}]")
    return out


def _entrywise_columns(entries, length, where):
    cols = np.zeros((length, len(entries)), dtype=np.complex128)
    for j, entry in enumerate(entries):
        cols[:, j] = _entrywise_vector(entry, length, f"{where}[{j}]")
    return cols


def _same_bits(a, b):
    return (a.shape == b.shape
            and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes())


def test_bulk_load_is_bit_identical_to_entrywise():
    rng = np.random.default_rng(3)
    base = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))).tolist()
    rows = [[[z.real, z.imag] for z in row] for row in base]
    rows[0][0] = [-0.0, 5e-324]
    rows[1][1] = [3, -7]
    rows[2][2] = [2**53 + 1, 10**300]
    rows[3][3] = [-5e-324, -0.0]
    assert serialize._bulk_pairs(rows, 4) is not None
    expected = _entrywise_columns(rows, 4, "m")
    assert _same_bits(serialize._columns(rows, 4, "m"), expected)
    assert serialize._columns(rows, 4, "m").flags.c_contiguous
    assert _same_bits(load_matrix(rows, 5, 4), np.ascontiguousarray(expected.T))
    for row in rows:
        assert _same_bits(load_vector(row, 4), _entrywise_vector(row, 4))
    assert serialize._columns([], 3, "m").shape == (3, 0)


_GOOD = [[1.0, 2.0], [0.5, -1.0], [3, 4]]


@pytest.mark.parametrize("position, entry", [
    (1, [True, 0.0]), (2, [0.0, False]), (0, ["1", 0.0]), (1, [None, 0.0]),
    (2, [float("nan"), 0.0]), (0, [0.0, float("inf")]), (1, [-float("inf"), 1.0]),
    (0, [1.0]), (2, [1.0, 2.0, 3.0]), (1, []), (1, (1.0, 2.0)), (0, "1+2j"),
    (1, 1.0), (2, [10**400, 0.0]), (0, [0.0, -10**400]),
])
def test_bulk_load_rejects_like_entrywise(position, entry):
    vec = list(_GOOD)
    vec[position] = entry
    assert serialize._bulk_pairs([vec], 3) is None
    with pytest.raises(FormatError) as bulk:
        load_vector(vec, 3, "v")
    with pytest.raises(FormatError) as entrywise:
        _entrywise_vector(vec, 3, "v")
    assert str(bulk.value) == str(entrywise.value)


def test_float_subclass_takes_the_entrywise_path():
    # np.float64 is a float, so the per-entry check accepts it; the bulk
    # screen admits only plain int and float and leaves it to that path
    vec = [[np.float64(0.25), 1.0], [2, np.float64(-0.0)]]
    assert serialize._bulk_pairs([vec], 2) is None
    assert _same_bits(load_vector(vec, 2), _entrywise_vector(vec, 2))


@pytest.mark.parametrize("entries", [
    [_GOOD, _GOOD[:2]],                # ragged columns
    [_GOOD, _GOOD + [[0.0, 0.0]]],     # one column too long
    [_GOOD[:2], _GOOD[:2]],            # every column the wrong length
    [_GOOD, (1.0, 2.0)],               # a column that is not a list
    [_GOOD, [[0.0, 0.0], [True, 1.0], [1.0, 1.0]]],
])
def test_bulk_columns_reject_like_entrywise(entries):
    assert serialize._bulk_pairs(entries, 3) is None
    with pytest.raises(FormatError) as bulk:
        serialize._columns(entries, 3, "s.basis")
    with pytest.raises(FormatError) as entrywise:
        _entrywise_columns(entries, 3, "s.basis")
    assert str(bulk.value) == str(entrywise.value)


def test_huge_integer_is_a_format_error():
    with pytest.raises(FormatError, match="too large"):
        load_complex([10**400, 0.0])
    with pytest.raises(FormatError, match=r"basis\[0\]\[1\]"):
        load_subspace({"ambient_dim": 2, "basis": [[[0.0, 0.0], [10**400, 0]]]})
    with pytest.raises(FormatError, match="too large"):
        load_relation({"dim_in": 1, "dim_out": 1,
                       "repr": {"type": "matrix", "matrix": [[[0, -10**400]]]}})
