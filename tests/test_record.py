"""The package's records: construction by position and keyword, equality,
hashing and immutability of the ten record classes, and an import of the
command line that loads no dataclasses, inspect or typing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pisotile import (
    ControlPoints,
    Digraph,
    MSCResult,
    OverlapClass,
    OverlapGraph,
    Patch,
    StrongCoincidenceReport,
    Substitution,
    TileMap,
    TilingSystem,
    solve_control_points,
)
from pisotile.strongcoin import PairResult

SRC = Path(__file__).resolve().parents[1] / "src"

FIB = TilingSystem(Substitution(2, ((1, 2), (1,))))
TM = TileMap(1, (0, 0))
CP = solve_control_points(FIB, TM)
SHIFT = FIB.lengths[0]
PAIR = PairResult(1, 2, "shared", 3)
REPORT = StrongCoincidenceReport(TM, CP, True, None, [PAIR])

# class, its fields by name, another value of its first field
CASES = [
    (Digraph, {"n": 2, "edges": ((0, 1, 1), (1, 0, 2))}, 3),
    (OverlapClass, {"color_u": 1, "color_v": 2, "shift": SHIFT}, 2),
    (OverlapGraph, {"vertices": [OverlapClass(1, 1, SHIFT - SHIFT)], "edges": {(0, 0): 1}}, []),
    (PairResult, {"i": 1, "j": 2, "status": "exhausted", "L": None, "classes": ("(1,2,0)",)}, 2),
    (StrongCoincidenceReport, {"tile_map": TM, "control_points": CP, "admissible": True,
                               "in_group": True, "pairs": [PAIR]}, TileMap(1, (1, 0))),
    (MSCResult, {"verdict": True, "level": 1, "reports": [REPORT], "considered": 1,
                 "vacuous": False}, False),
    (Substitution, {"m": 2, "rules": ((1, 2), (1,))}, 3),
    (Patch, {"tiles": ((1, (0,)), (2, (1,)))}, ()),
    (TileMap, {"n": 1, "choice": (0, 1)}, 2),
    (ControlPoints, {"points": CP.points, "tile_map": TM, "admissible": CP.admissible,
                     "number_field": FIB.field, "pairs": CP.pairs}, ()),
]
HASHABLE = {Digraph, OverlapClass, PairResult, Substitution, Patch, TileMap, ControlPoints}


def _other(cls, fields, first):
    """The record with its first field replaced; a Substitution of another
    size needs rules that fit it."""
    other = dict(fields, **{next(iter(fields)): first})
    if cls is Substitution:
        other["rules"] = ((1, 2), (3,), (1,))
    return cls(**other)


@pytest.mark.parametrize("cls,fields,first", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, fields, first):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != _other(cls, fields, first)
    assert by_position != tuple(fields.values()) and tuple(fields.values()) != by_position
    if cls in HASHABLE:
        assert hash(by_position) == hash(by_keyword)
        assert tuple(fields.values()) not in {by_position}
    else:  # a list or a dict among the fields
        with pytest.raises(TypeError):
            hash(by_position)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_repr_names_the_fields_of_the_value():
    assert repr(PAIR) == "PairResult(i=1, j=2, status='shared', L=3, classes=())"
    assert repr(CP) == f"ControlPoints(points={CP.points!r}, tile_map={TM!r}, admissible=True)"
    assert repr(TM) == "TileMap(n=1, choice=(0, 0))"


def test_no_record_takes_an_assignment():
    # Every record is made whole by its constructor: no field, old or new,
    # is assigned or deleted afterwards.
    for cls, fields, _ in CASES:
        record = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)


def test_control_points_value_and_field_elements():
    # number_field and pairs are not part of the value.
    other = ControlPoints(CP.points, TM, CP.admissible, None, ())
    assert other == CP and hash(other) == hash(CP)
    assert ControlPoints(CP.points, TM, not CP.admissible, FIB.field, CP.pairs) != CP
    assert CP.c is CP.c and CP.c == tuple(FIB.field.point(d, v) for d, v in CP.points)


def test_pair_result_classes_default_to_empty():
    assert PairResult(1, 2, "shared", 3).classes == ()
    assert PAIR == PairResult(1, 2, "shared", 3, ())


def test_import_loads_no_dataclasses_inspect_or_typing():
    # Without site (-S), whose preloads vary by installation: what
    # pisotile.cli itself imports.
    code = ("import sys, pisotile.cli; print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"
