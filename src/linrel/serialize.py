"""JSON wire formats for vectors, matrices, subspaces, and relations.

A complex scalar travels as a two-element list ``[re, im]``.  Subspace
objects are ``{"ambient_dim": n, "basis": [vector, ...]}``; the basis is
canonicalized on load, so it need not be orthonormal in the file.  A
relation object is ``{"dim_in": n, "dim_out": m, "repr": R}`` where R is
one of three shapes: a graph basis, a plain matrix, or an operator given
by domain basis, ambient image columns, and a multivalued part.  Dumps
always normalize to graph form and attach the derived subspace dims.

``dumps`` writes exactly the bytes of ``json.dumps(obj, sort_keys=True,
indent=2, allow_nan=False)`` plus a newline, in one pass: every float goes
through ``float.__repr__``, so serializing the same state twice gives
byte-identical text.  (With ``indent`` set, the json module always runs its
pure-Python encoder; the writer here is that encoder with a direct path for
the ``[re, im]`` pairs that make up nearly all of the text.)  The dump
functions build their nested lists from a float64 view of the complex array
in one ``tolist`` call, and the loaders convert a well-formed list of pairs
in bulk, falling back to the per-entry validator (and its error messages)
on anything else.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import kernel
from .errors import FormatError
from .kernel import DEFAULT_TOL, Tolerances
from .relation import LinearRelation
from .subspace import Subspace

__all__ = [
    "load_complex",
    "dump_complex",
    "load_vector",
    "dump_vector",
    "load_matrix",
    "dump_matrix",
    "load_subspace",
    "dump_subspace",
    "load_relation",
    "dump_relation",
    "dump_diagnostics",
    "dump_block_representation",
    "dumps",
]


def _real(obj, where: str) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise FormatError(f"{where}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:
        raise FormatError(f"{where}: integer too large for a float") from None
    if not math.isfinite(value):
        raise FormatError(f"{where}: non-finite number {obj!r}")
    return value


def _int_field(obj: dict, key: str, where: str, minimum: int = 0) -> int:
    if key not in obj:
        raise FormatError(f"{where}: missing field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: field '{key}' must be an integer")
    if value < minimum:
        raise FormatError(f"{where}: field '{key}' must be >= {minimum}")
    return value


def _list_field(obj: dict, key: str, where: str) -> list:
    if key not in obj:
        raise FormatError(f"{where}: missing field '{key}'")
    value = obj[key]
    if not isinstance(value, list):
        raise FormatError(f"{where}: field '{key}' must be a list")
    return value


def _bulk_pairs(rows: list, length: int):
    """Complex (len(rows), length) array of ``rows`` of ``[re, im]`` pairs, or None.

    The screen passes only lists of ``length`` two-element lists of plain
    ``int`` and ``float`` (so no ``bool``), every value finite as a float.
    On None the caller runs the per-entry validator, which accepts what it
    always did and names the first bad entry.
    """
    if not set(map(type, rows)) <= {list} or not set(map(len, rows)) <= {length}:
        return None
    pairs = list(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(np.complex128).reshape(len(rows), length)


def _pairs(a) -> list:
    """Nested ``[re, im]`` lists of a complex array, one level per axis."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def load_complex(obj, where: str = "complex") -> complex:
    """One scalar from a ``[re, im]`` pair."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise FormatError(f"{where}: expected a two-element [re, im] list")
    return complex(_real(obj[0], where), _real(obj[1], where))


def dump_complex(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def load_vector(obj, length: int, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list):
        raise FormatError(f"{where}: expected a list of complex entries")
    if len(obj) != length:
        raise FormatError(f"{where}: expected {length} entries, got {len(obj)}")
    bulk = _bulk_pairs([obj], length)
    if bulk is not None:
        return bulk[0]
    out = np.zeros(length, dtype=np.complex128)
    for i, entry in enumerate(obj):
        out[i] = load_complex(entry, f"{where}[{i}]")
    return out


def dump_vector(v) -> list:
    return _pairs(np.ravel(v))


def load_matrix(obj, rows: int, cols: int, where: str = "matrix") -> np.ndarray:
    """Row-major matrix of ``[re, im]`` entries with an expected shape."""
    if not isinstance(obj, list):
        raise FormatError(f"{where}: expected a list of rows")
    if len(obj) != rows:
        raise FormatError(f"{where}: expected {rows} rows, got {len(obj)}")
    bulk = _bulk_pairs(obj, cols)
    if bulk is not None:
        return bulk
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(obj):
        out[i] = load_vector(row, cols, f"{where}[{i}]")
    return out


def dump_matrix(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise FormatError(f"matrix dump: expected 2 dimensions, got {m.ndim}")
    return _pairs(m)


def _columns(entries: list, length: int, where: str) -> np.ndarray:
    bulk = _bulk_pairs(entries, length)
    if bulk is not None:
        return np.ascontiguousarray(bulk.T)
    cols = np.zeros((length, len(entries)), dtype=np.complex128)
    for j, entry in enumerate(entries):
        cols[:, j] = load_vector(entry, length, f"{where}[{j}]")
    return cols


def load_subspace(obj, tol: Tolerances = DEFAULT_TOL,
                  where: str = "subspace") -> Subspace:
    """Subspace from JSON; the stored basis is canonicalized."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    n = _int_field(obj, "ambient_dim", where)
    cols = _columns(_list_field(obj, "basis", where), n, f"{where}.basis")
    return Subspace(n, kernel.orthonormal_columns(cols, tol))


def dump_subspace(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "basis": _pairs(s.basis.T),
    }


def load_relation(obj, tol: Tolerances = DEFAULT_TOL,
                  where: str = "relation") -> LinearRelation:
    """Relation from JSON, accepting graph, matrix, or operator+mul form."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    din = _int_field(obj, "dim_in", where)
    dout = _int_field(obj, "dim_out", where)
    rep = obj.get("repr")
    if not isinstance(rep, dict):
        raise FormatError(f"{where}: missing or non-object field 'repr'")
    kind = rep.get("type")

    if kind == "graph":
        cols = _columns(_list_field(rep, "basis", f"{where}.repr"),
                        din + dout, f"{where}.repr.basis")
        graph = Subspace(din + dout, kernel.orthonormal_columns(cols, tol))
        return LinearRelation(din, dout, graph, tol=tol)

    if kind == "matrix":
        m = load_matrix(rep.get("matrix"), dout, din, f"{where}.repr.matrix")
        return LinearRelation.from_matrix(m, tol)

    if kind == "operator_mul":
        dom_entries = _list_field(rep, "domain_basis", f"{where}.repr")
        dom_cols = _columns(dom_entries, din, f"{where}.repr.domain_basis")
        images = load_matrix(rep.get("matrix_on_domain"), dout, len(dom_entries),
                             f"{where}.repr.matrix_on_domain")
        mul_cols = _columns(_list_field(rep, "mul_basis", f"{where}.repr"),
                            dout, f"{where}.repr.mul_basis")
        # graph spanned by (domain column, image column) pairs plus {0} x mul
        op_part = np.vstack([dom_cols, images])
        mul_part = np.vstack([
            np.zeros((din, mul_cols.shape[1]), dtype=np.complex128), mul_cols,
        ])
        cols = np.hstack([op_part, mul_part])
        graph = Subspace(din + dout, kernel.orthonormal_columns(cols, tol))
        return LinearRelation(din, dout, graph, tol=tol)

    raise FormatError(f"{where}: unknown repr type {kind!r}")


def dump_relation(rel: LinearRelation, validated: bool = False) -> dict:
    """Relation to JSON, normalized to graph form with derived dims."""
    obj = {
        "dim_in": rel.dim_in,
        "dim_out": rel.dim_out,
        "repr": {
            "type": "graph",
            "basis": _pairs(rel.graph.basis.T),
        },
        "dom_dim": rel.dom.dim,
        "ran_dim": rel.ran.dim,
        "ker_dim": rel.ker.dim,
        "mul_dim": rel.mul.dim,
    }
    if validated:
        obj["validated"] = True
    return obj


def dump_diagnostics(diag: dict) -> dict:
    """Residual dict to JSON-safe values (floats, or lists of floats)."""
    out = {}
    for key, value in diag.items():
        if isinstance(value, (tuple, list)):
            out[str(key)] = [float(v) for v in value]
        else:
            out[str(key)] = float(value)
    return out


def dump_block_representation(rep) -> dict:
    """Block decomposition to JSON: corner relations, matrices, subspaces."""
    return {
        "a": dump_relation(rep.a),
        "b": dump_relation(rep.b),
        "c": dump_relation(rep.c),
        "d": dump_relation(rep.d),
        "g": dump_matrix(rep.g),
        "v1": dump_matrix(rep.v1),
        "v2": dump_matrix(rep.v2),
        "s": dump_subspace(rep.s),
        "d1": dump_subspace(rep.d1),
        "d2": dump_subspace(rep.d2),
        "m1": dump_subspace(rep.m1),
        "m2": dump_subspace(rep.m2),
        "diagnostics": dump_diagnostics(rep.diagnostics),
    }


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, repr floats, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n"``, errors included.
    """
    out = []
    try:
        _write(obj, 0, out)
    except RecursionError:
        # a cycle, or nesting deeper than the stack: json reports either
        return _json_dumps(obj) + "\n"
    out.append("\n")
    return "".join(out)


_INDENT = "  "


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return _json_dumps(x)  # raises the json module's ValueError


def _write(obj, level: int, out: list) -> None:
    """Append the json encoding of ``obj`` at nesting ``level`` to ``out``.

    The type tests run in the json encoder's order: str, None, bools, int
    (so bool is never an int here), float, list or tuple, dict.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, level, out)
    elif isinstance(obj, dict) and all(type(k) is str for k in obj):
        _write_dict(obj, level, out)
    else:
        # non-string keys or a type json rejects: its own text or error,
        # with the later lines shifted to this depth
        out.append(_json_dumps(obj).replace("\n", "\n" + _INDENT * level))


def _write_list(seq, level: int, out: list) -> None:
    if not seq:
        out.append("[]")
        return
    text = _pair_list(seq, level)
    if text is not None:
        out.append(text)
        return
    inner = "\n" + _INDENT * (level + 1)
    out.append("[")
    sep = inner
    for item in seq:
        out.append(sep)
        sep = "," + inner
        _write(item, level + 1, out)
    out.append("\n" + _INDENT * level + "]")


def _pair_list(seq: list, level: int):
    """The text of a list of finite ``[re, im]`` float pairs, or None.

    One ``%`` call formats the whole list; ``%r`` of a ``float`` is
    ``float.__repr__``.  Anything else (other types, non-finite values) is
    left to the general path, which writes or rejects it item by item.
    """
    if set(map(type, seq)) != {list} or set(map(len, seq)) != {2}:
        return None
    flat = tuple(chain.from_iterable(seq))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    inner = "\n" + _INDENT * (level + 1)
    pair = "[" + inner + _INDENT + "%r," + inner + _INDENT + "%r" + inner + "]"
    body = ("," + inner).join([pair] * len(seq))
    return ("[" + inner + body + "\n" + _INDENT * level + "]") % flat


def _write_dict(obj: dict, level: int, out: list) -> None:
    if not obj:
        out.append("{}")
        return
    inner = "\n" + _INDENT * (level + 1)
    out.append("{")
    sep = inner
    for key in sorted(obj):
        out.append(sep + encode_basestring_ascii(key) + ": ")
        sep = "," + inner
        _write(obj[key], level + 1, out)
    out.append("\n" + _INDENT * level + "}")
