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


def test_array_out_has_the_bits_of_the_stacked_parts():
    # The float64 view gives the pairs that stacking the real and imaginary
    # parts gave, on views with gaps or reversed strides, 0-d arrays and
    # signed zeros.
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    grid[0, 0, 0], grid[1, 2, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    for arr in (grid, grid.T, grid[:, ::2], grid[::-1, :, 1], grid[1, 2, 1], np.array(complex(-0.0, -0.0)), [[1, 2]]):
        parts = np.asarray(arr, dtype=np.complex128)
        expected = np.stack([parts.real, parts.imag], axis=-1).tolist()
        out = descriptors._array_out(arr)
        assert out == expected
        assert np.array(out).tobytes() == np.array(expected).tobytes()


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


def test_coefficient_lists_read_as_one_array_with_the_bits_of_each_pair():
    # The lacunary Σ 2^-k·z^(2^k) to k = 12, plus signed zeros and integers:
    # one numpy conversion gives every coefficient the bits of complex(re, im).
    coeffs = [[0.0, 0.0] for _ in range(4096)]
    for k in range(1, 13):
        coeffs[2**k - 1] = [2.0**-k, 0.0]
    coeffs[:4] = [[-0.0, 0.0], [0.0, -0.0], [3, -1], [-0.0, -0.0]]
    f = descriptors.function_from_descriptor({"kind": "power_series", "coeffs": coeffs})
    reference = np.array([complex(float(re), float(im)) for re, im in coeffs])
    assert f.coeffs.dtype == np.complex128 and f.coeffs.tobytes() == reference.tobytes()
    assert descriptors.function_to_descriptor(f)["coeffs"] == coeffs


def test_integers_past_int64_read_as_complex_rounds_them():
    # numpy holds such an int as an object, not a number: each leaf is read on its own.
    coeffs = [[10**20, 0], [-(2**64) - 1, 0.5], [0.25, 10**30]]
    f = descriptors.function_from_descriptor({"kind": "power_series", "coeffs": coeffs})
    reference = np.array([complex(re, im) for re, im in coeffs])
    assert f.coeffs.dtype == np.complex128 and f.coeffs.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "pair",
    [[10**400, 0], [10**20, None], [10**20, "1"], [10**20, True], [True, False], [None, 0.5]],
    ids=["past-float", "null", "string", "bool", "bools", "null-and-float"],
)
def test_a_pair_of_other_than_json_numbers_is_rejected(pair):
    with pytest.raises(InvalidInputError, match="of JSON numbers"):
        descriptors.function_from_descriptor({"kind": "power_series", "coeffs": [pair]})


@pytest.mark.parametrize(
    "nested, depth",
    [
        ([[0.0, 0.0], [True, 0.0]], 1),
        ([[1, 2], [3, False]], 1),
        ([0.5, True], 0),
        ([[[[0.5, 0.0], [False, 1.0]]]], 3),
        ([[[0.5, 0.0]], [[0.25, True]]], 2),
    ],
    ids=["true-beside-floats", "false-beside-ints", "pair", "depth-3", "depth-2"],
)
def test_booleans_beside_numbers_are_rejected(nested, depth):
    # numpy reads a bool beside numbers as a number, 1.0 or 1.
    with pytest.raises(InvalidInputError, match="of JSON numbers"):
        descriptors._array_in(nested, depth)


def test_a_nested_list_reads_each_pair_as_complex_does():
    # Ints past int64 round as complex() rounds them, signed zeros keep
    # their signs, and a nested list reads to its shape; the empty list is
    # an array only at depth 1.
    rng = np.random.default_rng(7)
    big = [int(x) * 2**40 + int(y) for x, y in rng.integers(-(2**62), 2**62, size=(50, 2))]
    leaves = big + [0, -0.0, 0.0, 2**53 + 1, -(2**64) - 1, 1.5, -2.25e-310]
    pairs = [[leaves[i], leaves[-1 - i]] for i in range(len(leaves))]
    arr = descriptors._array_in(pairs, 1)
    assert arr.tobytes() == np.array([complex(re, im) for re, im in pairs]).tobytes()
    grid = [[[pairs[0], pairs[1]], [pairs[2], pairs[3]]]]
    arr = descriptors._array_in(grid, 3)
    assert arr.shape == (1, 2, 2) and arr.tobytes() == np.array([complex(*p) for p in pairs[:4]]).tobytes()
    assert descriptors._array_in([], 1).shape == (0,)
    for nested, depth in (([], 2), ([[]], 1), ([[], []], 2), ([], 0), ("ab", 0), (["ab"], 1), ([[0.5, 0.0], 0.5], 1)):
        with pytest.raises(InvalidInputError, match="of JSON numbers"):
            descriptors._array_in(nested, depth)


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

