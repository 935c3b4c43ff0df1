"""The five value types: what they keep of frozen dataclasses, and the
import set of the package, which loads no dataclasses, inspect or typing."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import qplasma
from qplasma import DispersionRoot, ModelKind, PlasmaParams, QueryPoint, ScanSpec, ScanTable


def _spec(**over):
    kwargs = dict(models=("quantum",), fixed={"x_p": 1.0, "y": 0.1, "x": 1.0},
                  sweep_var="q", sweep_range=(0.1, 1.0), n=3)
    kwargs.update(over)
    return ScanSpec(**kwargs)


_SPEC_REPR = ("ScanSpec(models=(<ModelKind.QUANTUM: 'quantum'>,), "
              "fixed={'x_p': 1.0, 'y': 0.1, 'x': 1.0}, sweep_var='q', "
              "sweep_range=(0.1, 1.0), n=3, scale='linear')")

#: (class, fields by position, fields left at their defaults, the repr of
#: the record built from all the fields, whether it hashes); each repr is
#: the frozen dataclass's
CASES = {
    "PlasmaParams": (
        PlasmaParams, (1.0, 0.1), {"y": 0.0},
        "PlasmaParams(x_p=1.0, y=0.1)", True,
    ),
    "QueryPoint": (
        QueryPoint, (1.5, 0.5), {},
        "QueryPoint(x=1.5, q=0.5)", True,
    ),
    "DispersionRoot": (
        DispersionRoot, (0.3, 1 + 0.1j, 1e-16, 2, 4, 1.2 - 0.1j),
        {"evaluations": 0, "slope": None},
        "DispersionRoot(q=0.3, omega=(1+0.1j), residual=1e-16, iterations=2, "
        "evaluations=4, slope=(1.2-0.1j))", True,
    ),
    "ScanSpec": (
        ScanSpec, ((ModelKind.QUANTUM,), {"x_p": 1.0, "y": 0.1, "x": 1.0}, "q",
                   (0.1, 1.0), 3, "log"),
        {"scale": "linear"},
        _SPEC_REPR.replace("'linear'", "'log'"), False,
    ),
    "ScanTable": (
        ScanTable, (("q", "re_eps_quantum"), ((0.1, 2.0),), _spec()), {},
        f"ScanTable(columns=('q', 're_eps_quantum'), rows=((0.1, 2.0),), spec={_SPEC_REPR})",
        False,
    ),
}


def _matched(record):
    # a positional class pattern for each type, binding every field
    match record:
        case PlasmaParams(x_p, y):
            return x_p, y
        case QueryPoint(x, q):
            return x, q
        case DispersionRoot(q, omega, residual, iterations, evaluations, slope):
            return q, omega, residual, iterations, evaluations, slope
        case ScanSpec(models, fixed, sweep_var, sweep_range, n, scale):
            return models, fixed, sweep_var, sweep_range, n, scale
        case ScanTable(columns, rows, spec):
            return columns, rows, spec
    return None


@pytest.mark.parametrize("name", CASES)
def test_records_behave_as_frozen_dataclasses(name):
    cls, values, defaults, expected_repr, hashable = CASES[name]
    fields = cls.__match_args__
    record = cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert repr(record) == expected_repr
    assert cls(**dict(zip(fields, values))) == record
    required = values[:len(fields) - len(defaults)]
    assert cls(*required) == cls(*required, **defaults)
    assert {f: getattr(cls(*required), f) for f in defaults} == defaults
    assert _matched(record) == values

    twin = cls(*values)
    assert twin == record and not twin != record
    assert record != values and record != ()
    others = [c for c, *_ in CASES.values() if c is not cls]
    assert all(record != other(*CASES[other.__name__][1]) for other in others)
    if hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    for f in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"assign to field '{f}'"):
            setattr(record, f, 1.0)
    for f in fields:
        with pytest.raises(AttributeError, match=f"delete field '{f}'"):
            delattr(record, f)
    assert tuple(getattr(record, f) for f in fields) == values

    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        assert repr(clone) == expected_repr


def test_fields_compare_by_value_and_the_spec_normalises_its_input():
    assert PlasmaParams(1, 0) == PlasmaParams(1.0, 0.0)
    assert hash(PlasmaParams(1, 0)) == hash(PlasmaParams(1.0, 0.0))
    # the constructor normalises the models and copies fixed
    fixed = {"x_p": 1.0, "y": 0.1, "x": 1.0}
    spec = _spec(models="quantum", fixed=fixed)
    assert spec == _spec() and spec.fixed is not fixed


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips site, whose .pth files can import typing before the package
    src = os.path.dirname(os.path.dirname(qplasma.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qplasma, qplasma.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
