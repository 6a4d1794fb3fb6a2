"""Round-trip tests for the JSON descriptor layer."""

import dataclasses

import numpy as np
import pytest

from cbnorm_lab import descriptors, holofun
from cbnorm_lab.errors import InvalidInputError
from cbnorm_lab.holofun import Blaschke, Composite, GeometricPhi, MoebiusQuotient, PowerSeries, Product, Scale, Sum
from cbnorm_lab.opspace import same_space, space_mk, space_min_linf


def test_space_round_trip_builders():
    for d in (
        {"kind": "scalar", "param": 1},
        {"kind": "matrix", "param": 2},
        {"kind": "row", "param": 3},
        {"kind": "column", "param": 2},
        {"kind": "min_linf", "param": 4},
    ):
        space = descriptors.space_from_descriptor(d)
        assert descriptors.space_to_descriptor(space) == d


def test_space_round_trip_custom():
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    space = descriptors.space_from_descriptor(
        {"kind": "custom", "ambient": 3, "basis": descriptors._array_out(basis)}
    )
    again = descriptors.space_from_descriptor(descriptors.space_to_descriptor(space))
    assert same_space(space, again)


def test_function_round_trip():
    functions = [
        PowerSeries([1.0, 0.5j]),
        Blaschke(1.0j, 2, [0.5, -0.25j]),
        MoebiusQuotient(PowerSeries([1.0]), 0.5),
        Sum(PowerSeries([1.0]), Scale(2.0, PowerSeries([0.0, 1.0]))),
        Product(Blaschke(1.0, 1, [0.5]), PowerSeries([0.0, 1.0])),
        Composite(PowerSeries([1.0]), space_min_linf(2), np.array([0.3, 0.4]), 0.7),
        GeometricPhi(space_min_linf(2), np.array([0.3, 0.4]), 0.7),
    ]
    for f in functions:
        d = descriptors.function_to_descriptor(f)
        g = descriptors.function_from_descriptor(d)
        assert descriptors.function_to_descriptor(g) == d


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_function_class_has_one_kind_keyed_by_its_arguments():
    # `_Pair` only shares the operands of `Product` and `Sum`.
    concrete = {cls for cls in _subclasses(holofun.HoloFunction) if not cls.__name__.startswith("_")}
    classes = [cls for cls, _ in descriptors._FUNCTIONS.values()]
    assert len(classes) == len(set(classes)) and set(classes) == concrete
    for cls, keys in descriptors._FUNCTIONS.values():
        assert list(keys) == [field.name for field in dataclasses.fields(cls)]


def test_blaschke_zeros_default_to_empty():
    f = descriptors.function_from_descriptor({"kind": "blaschke", "c": [0.0, 1.0], "m": 2})
    assert f.zeros.dtype == np.complex128 and f.zeros.shape == (0,)
    assert Blaschke(1.0j, 2).zeros.shape == (0,)
    assert descriptors.function_to_descriptor(f) == {"kind": "blaschke", "c": [0.0, 1.0], "m": 2, "zeros": []}


def test_power_series_rejects_analytic_radius():
    # Polynomials are entire: a power series declares no radius.
    d = {"kind": "power_series", "coeffs": [[1.0, 0.0]], "analytic_radius": 2.0}
    with pytest.raises(InvalidInputError, match="unknown key 'analytic_radius'"):
        descriptors.function_from_descriptor(d)


def test_matrix_set_round_trip():
    space = space_mk(2)
    rng = np.random.default_rng(1)
    entries = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
    d = {
        "space": {"kind": "matrix", "param": 2},
        "generators": [{"level": 2, "entries": descriptors._array_out(entries)}],
    }
    k = descriptors.matrix_set_from_descriptor(d)
    assert same_space(k.space, space)
    assert np.allclose(k.generators[0].entries, entries, atol=0)
    assert descriptors.matrix_set_to_descriptor(k) == d


def test_function_id_tags():
    d = {
        "kind": "moebius_quotient",
        "inner": {"kind": "power_series", "coeffs": [[1.0, 0.0]]},
        "a": [0.5, 0.0],
    }
    assert descriptors.function_id(d) == "moebius_quotient(power_series)"
    assert descriptors.function_id({"kind": "product", "left": d, "right": d}) == (
        "product(moebius_quotient(power_series),moebius_quotient(power_series))"
    )
    series = d["inner"]
    space = {"kind": "min_linf", "param": 2}
    functional = {"space": space, "phi": [[0.3, 0.0], [0.4, 0.0]], "certified_norm": 0.7}
    assert descriptors.function_id({"kind": "composite", "scalar": series, **functional}) == "composite(power_series)"
    assert descriptors.function_id({"kind": "scale", "c": [2.0, 0.0], "inner": series}) == "scale(power_series)"
    assert descriptors.function_id({"kind": "geometric_phi", **functional}) == "geometric_phi"
    assert descriptors.function_id({"kind": "scale"}) == "scale(?)"


_SCALAR = {"kind": "scalar"}
_POINT = {"level": 1, "entries": [[[[0.5, 0.0]]]]}
_TERM = {"c": [1.0, 0.0], "alpha": [[[1.0, 0.0]]], "x": _POINT, "beta": [[[1.0, 0.0]]]}
_SERIES = {"kind": "power_series", "coeffs": [[1.0, 0.0]]}
_GRID = {"kind": "grid", "grid": [[[[1.0, 0.0]]]], "bound": 1.0}
_READERS = {
    "builder space": (descriptors.space_from_descriptor, {"kind": "row", "param": 2}),
    "custom space": (descriptors.space_from_descriptor, {"kind": "custom", "ambient": 1, "basis": [[[[1.0, 0.0]]]]}),
    "function": (descriptors.function_from_descriptor, {"kind": "scale", "c": [2.0, 0.0], "inner": _SERIES}),
    "matrix": (lambda d: descriptors.space_matrix_from_descriptor(d, space_min_linf(1)), _POINT),
    "set": (descriptors.matrix_set_from_descriptor, {"space": _SCALAR, "generators": [_POINT]}),
    "gcb element": (descriptors.gcb_element_from_descriptor, {"space": _SCALAR, "level": 1, "terms": [_TERM]}),
    "dictionary": (lambda d: descriptors.dictionary_from_descriptor(d, space_min_linf(1)), {"entries": [_GRID]}),
}


@pytest.mark.parametrize("name", _READERS)
def test_each_reader_rejects_a_key_outside_its_declaration(name):
    read, d = _READERS[name]
    read(d)
    with pytest.raises(InvalidInputError, match="unknown key 'junk'"):
        read({**d, "junk": 1})


def test_nested_readers_reject_a_key_outside_their_declaration():
    element = {"space": _SCALAR, "level": 1, "terms": [{**_TERM, "junk": 1}]}
    with pytest.raises(InvalidInputError, match="unknown key 'junk'"):
        descriptors.gcb_element_from_descriptor(element)
    # A key of one dictionary entry kind is outside the other's declaration.
    scalar = {"kind": "scalar", "function": _SERIES, "bound": 1.0}
    for entry, other in ((scalar, "grid"), (_GRID, "function")):
        descriptors.dictionary_from_descriptor({"entries": [entry]}, space_min_linf(1))
        with pytest.raises(InvalidInputError, match=f"unknown key '{other}'"):
            descriptors.dictionary_from_descriptor({"entries": [{**entry, other: 1}]}, space_min_linf(1))
    # A custom space's keys are not a builder space's, and the reverse.
    with pytest.raises(InvalidInputError, match="unknown key 'ambient'"):
        descriptors.space_from_descriptor({"kind": "row", "param": 2, "ambient": 2})
    with pytest.raises(InvalidInputError, match="unknown key 'param'"):
        descriptors.space_from_descriptor({"kind": "custom", "param": 1, "basis": [[[[1.0, 0.0]]]]})


def test_bad_descriptors_rejected():
    with pytest.raises(InvalidInputError):
        descriptors.space_from_descriptor({"kind": "mystery"})
    with pytest.raises(InvalidInputError):
        descriptors.function_from_descriptor({"kind": "mystery"})
    with pytest.raises(InvalidInputError):
        descriptors.function_from_descriptor({"kind": "power_series", "coeffs": [1.0]})
    with pytest.raises(InvalidInputError):
        descriptors.space_matrix_from_descriptor(
            {"level": 2, "entries": [[[[1.0, 0.0]]]]}, space_mk(2)
        )
    # Sizes are never truncated: JSON's non-integral numbers, NaN and
    # infinity included, are rejected (the CLI test covers the rest).
    for value in (None, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="param must be an integer"):
            descriptors.space_from_descriptor({"kind": "row", "param": value})


@pytest.mark.parametrize("param", ["junk", 7, True])
def test_scalar_space_rejects_param_other_than_one(param):
    with pytest.raises(InvalidInputError):
        descriptors.space_from_descriptor({"kind": "scalar", "param": param})


@pytest.mark.parametrize("d", [{"kind": "scalar"}, {"kind": "scalar", "param": 1}])
def test_scalar_space_parses_without_param_or_with_param_one(d):
    space = descriptors.space_from_descriptor(d)
    assert descriptors.space_to_descriptor(space) == {"kind": "scalar", "param": 1}
    again = descriptors.space_from_descriptor(descriptors.space_to_descriptor(space))
    assert same_space(space, again)


def test_integral_sizes_accepted_as_floats():
    # A JSON config may write 2 as 2.0: the config check accepts it, and so do the descriptors.
    space = descriptors.space_from_descriptor({"kind": "matrix", "param": 2.0})
    assert same_space(space, space_mk(2)) and space.param == 2
    f = descriptors.function_from_descriptor({"kind": "blaschke", "c": [1.0, 0.0], "m": 3.0})
    assert isinstance(f, Blaschke) and f.m == 3 and type(f.m) is int
    x = descriptors.space_matrix_from_descriptor({"level": 1.0, "entries": [[[[0.5, 0.0]]]]}, space_min_linf(1))
    assert x.level == 1

