"""One strict loader for the JSON specs a run reads: fault schedules,
autoscale specs and SLO specs.

:func:`build_spec` builds a spec dataclass from a parsed JSON object by the
dataclass's own fields and annotations.  Every key must be a field, a
field's ``alias`` (metadata; the field's own key wins), the spec's version
key (absent or 1) or, in a list typed as a ``Union`` of specs, ``"kind"``
(the member's ``kind`` class attribute).  An ``int`` field takes a JSON
integer, a ``float`` field a finite number (also ``"inf"`` and infinity
where its metadata says ``inf``) and a ``str`` field a string; a bool is
none of them.  Nested specs and ``Tuple``/``Sequence`` lists of them
recurse; a missing field takes its default.  Anything else raises ``error``
naming the key, behind the path of its object (``'faults'[1]: 'factor'
must be ...``); so does a ``ValueError`` from a spec's own range checks in
``__post_init__``.
"""

from __future__ import annotations

import collections.abc
import json
import math
import sys
from dataclasses import MISSING, Field, fields
from typing import Any, List, Optional, Type, TypeVar, Union, get_args, get_origin, get_type_hints

__all__ = ["FLOAT_MAX", "SPEC_VERSION", "build_spec", "read_json"]

#: the largest finite float: NaN, the infinities and integers too large for
#: a float all fail a ``<= FLOAT_MAX`` bound
FLOAT_MAX = sys.float_info.max

#: the schema version a spec's ``to_dict`` writes and its loader accepts;
#: bump when a schema changes incompatibly
SPEC_VERSION = 1

T = TypeVar("T")

_SEQUENCES = (tuple, collections.abc.Sequence)


def read_json(path: str, error: Type[ValueError] = ValueError) -> Any:
    """The JSON value in the file at ``path``; text that is not JSON raises
    ``error`` (a file that cannot be opened raises ``OSError``)."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise error(f"{path}: invalid JSON: {exc}") from None


def build_spec(
    cls: Type[T],
    data: Any,
    error: Type[ValueError] = ValueError,
    version_key: Optional[str] = None,
) -> T:
    """``cls`` built from the JSON object ``data`` by the rules above."""
    if isinstance(data, dict) and version_key in data:
        version = data[version_key]
        if type(version) is not int or version != SPEC_VERSION:
            raise error(f"{version_key!r} must be {SPEC_VERSION}, got {version!r}")
    return _object(cls, data, [], error, version_key)


def _fail(error: Type[ValueError], path: List[str], message: str) -> ValueError:
    return error(f"{' '.join(path)}: {message}" if path else message)


def _keys(names) -> str:
    return ", ".join(repr(n) for n in names)


def _object(cls: type, data: Any, path: List[str], error, extra: Optional[str]):
    own = fields(cls)
    names = [extra] if extra else []
    names += [f.name for f in own] + [f.metadata["alias"] for f in own if "alias" in f.metadata]
    if not isinstance(data, dict):
        raise _fail(error, path, f"expected a JSON object with keys {_keys(names)}, got {data!r}")
    unknown = [k for k in data if k not in names]
    if unknown:
        raise _fail(error, path, f"unknown keys {unknown} (expected {_keys(names)})")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in own:
        alias = f.metadata.get("alias")
        for key in (alias, f.name):  # the field's own key last: it wins
            if key is not None and key in data:
                kwargs[f.name] = _value(hints[f.name], f, key, data[key], path, error)
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            also = f" (or {alias!r})" if alias else ""
            raise _fail(error, path, f"needs {f.name!r}{also}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a range check in __post_init__
        raise _fail(error, path, str(exc)) from None


def _value(tp: Any, f: Field, key: str, value: Any, path: List[str], error):
    if get_origin(tp) in _SEQUENCES:
        if not isinstance(value, list):
            raise _fail(error, path, f"{key!r} must be a list, got {value!r}")
        return tuple(
            _element(get_args(tp)[0], v, path + [f"{key!r}[{i}]"], error)
            for i, v in enumerate(value)
        )
    if tp is int:
        ok, want = type(value) is int, "an integer"
    elif tp is float:
        inf_ok = f.metadata.get("inf", False)
        if inf_ok and value == "inf":
            return math.inf
        ok = type(value) in (int, float) and (
            abs(value) <= FLOAT_MAX or (inf_ok and value == math.inf)
        )
        want = 'a finite number or "inf"' if inf_ok else "a finite number"
    elif tp is str:
        ok, want = type(value) is str, "a string"
    else:
        return _element(tp, value, path + [repr(key)], error)
    if not ok:
        raise _fail(error, path, f"{key!r} must be {want}, got {value!r}")
    return value


def _element(tp: Any, value: Any, path: List[str], error):
    """A nested spec; a ``Union`` of specs picks its member by ``"kind"``."""
    if get_origin(tp) is not Union:
        return _object(tp, value, path, error, None)
    kinds = {member.kind: member for member in get_args(tp)}
    kind = value.get("kind") if isinstance(value, dict) else None
    if not (isinstance(kind, str) and kind in kinds):
        raise _fail(error, path, f"expected a JSON object with a 'kind' of {_keys(kinds)}, "
                                 f"got {value!r}")
    return _object(kinds[kind], value, path, error, "kind")
