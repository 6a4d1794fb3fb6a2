"""JSON descriptors for spaces, functions, matrix sets, certificates, predual
elements, and dictionaries.

Complex scalars are [re, im] pairs throughout; matrices are nested row-major
lists of pairs.  Parsing goes through the constructors, so every structural
invariant is enforced on the way in.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gcb, holofun, mconvex, opspace
from .errors import InvalidInputError
from .matcore import as_int


def _parser(declared, kind_of=None):
    """Wrap a descriptor reader so that it rejects every key outside its
    declaration, and reports a missing key or a wrongly typed value as
    InvalidInputError rather than as the KeyError or TypeError it raises.

    `declared` is the reader's keys or, for a reader of the kinds of a
    `kind_of` (a space, say), a map from each kind to that kind's keys.
    """

    def wrap(parse):
        @functools.wraps(parse)
        def checked(d, *args):
            try:
                keys = declared
                if kind_of is not None:
                    if not isinstance(d, dict) or "kind" not in d:
                        raise InvalidInputError(f"{kind_of} descriptor must be an object with a 'kind'")
                    if not isinstance(d["kind"], str) or d["kind"] not in declared:
                        raise InvalidInputError(f"unknown {kind_of} kind {d['kind']!r}")
                    keys = ("kind", *declared[d["kind"]])
                for key in d if isinstance(d, dict) else ():
                    if key not in keys:
                        raise InvalidInputError(f"malformed descriptor: unknown key {key!r}")
                return parse(d, *args)
            except (KeyError, TypeError, AttributeError) as exc:
                raise InvalidInputError(f"malformed descriptor: {type(exc).__name__}: {exc}") from None

        return checked

    return wrap


def _complex_in(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InvalidInputError(f"complex scalars are [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _complex_out(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _array_in(nested, depth: int) -> np.ndarray:
    arr = np.asarray(nested, dtype=float)
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise InvalidInputError(f"expected a depth-{depth} nested list of [re, im] pairs")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def _array_out(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=np.complex128)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


# ---------------------------------------------------------------------------
# Spaces


@_parser({"custom": ("basis", "ambient"), **dict.fromkeys(opspace._KINDS, ("param",))}, "space")
def space_from_descriptor(d) -> opspace.ConcreteOperatorSpace:
    if d["kind"] == "custom":
        basis = _array_in(d["basis"], depth=3)
        if basis.shape[1] != as_int(d.get("ambient", basis.shape[1]), "ambient"):
            raise InvalidInputError("custom basis does not match the declared ambient size")
        return opspace.ConcreteOperatorSpace(basis)
    return opspace.builder_space(d["kind"], as_int(d.get("param", 1), "param"))


def space_to_descriptor(space: opspace.ConcreteOperatorSpace) -> dict:
    if space.kind == "custom":
        return {"kind": "custom", "ambient": space.ambient, "basis": _array_out(space.basis)}
    return {"kind": space.kind, "param": space.param}


# ---------------------------------------------------------------------------
# Functions


# Codecs: a key's (read, write) pair.  Nested reads call the module-level
# parsers by name, so a wrapper installed on a parser sees nested calls too.
_COMPLEX = (_complex_in, _complex_out)
_COMPLEXES = (
    lambda values: np.asarray([_complex_in(c) for c in values], dtype=np.complex128),
    lambda values: [_complex_out(c) for c in values],
)
_REAL = (float, lambda x: x)
_ORDER = (lambda v: as_int(v, "m"), lambda m: m)
_SPACE = (lambda d: space_from_descriptor(d), space_to_descriptor)
_FUNCTION = (lambda d: function_from_descriptor(d), lambda f: function_to_descriptor(f))

# Each function kind's class and descriptor keys: the class's constructor
# arguments, in order, with their codecs.
_FUNCTIONS = {
    "power_series": (holofun.PowerSeries, {"coeffs": _COMPLEXES}),
    "blaschke": (holofun.Blaschke, {"c": _COMPLEX, "m": _ORDER, "zeros": _COMPLEXES}),
    "moebius_quotient": (holofun.MoebiusQuotient, {"inner": _FUNCTION, "a": _COMPLEX}),
    "geometric_phi": (holofun.GeometricPhi, {"space": _SPACE, "phi": _COMPLEXES, "certified_norm": _REAL}),
    "composite": (
        holofun.Composite,
        {"scalar": _FUNCTION, "space": _SPACE, "phi": _COMPLEXES, "certified_norm": _REAL},
    ),
    "product": (holofun.Product, {"left": _FUNCTION, "right": _FUNCTION}),
    "sum": (holofun.Sum, {"left": _FUNCTION, "right": _FUNCTION}),
    "scale": (holofun.Scale, {"c": _COMPLEX, "inner": _FUNCTION}),
}


@_parser({kind: keys for kind, (_, keys) in _FUNCTIONS.items()}, "function")
def function_from_descriptor(d) -> holofun.HoloFunction:
    cls, keys = _FUNCTIONS[d["kind"]]
    # Only the keys present: a missing one takes its class's default, or
    # is a missing argument, which `_parser` reports.
    return cls(**{key: read(d[key]) for key, (read, _) in keys.items() if key in d})


def function_to_descriptor(f: holofun.HoloFunction) -> dict:
    for kind, (cls, keys) in _FUNCTIONS.items():
        if isinstance(f, cls):
            return {"kind": kind, **{key: write(getattr(f, key)) for key, (_, write) in keys.items()}}
    raise InvalidInputError(f"cannot serialize {type(f).__name__}")


def function_id(d) -> str:
    """Compact human-readable tag for report rows: the kind, then the tags
    of its function-valued keys."""
    if not isinstance(d, dict) or "kind" not in d:
        return "?"
    kind = d["kind"]
    keys = _FUNCTIONS[kind][1] if isinstance(kind, str) and kind in _FUNCTIONS else {}
    nested = [function_id(d.get(key)) for key, codec in keys.items() if codec is _FUNCTION]
    return f"{kind}({','.join(nested)})" if nested else kind


# ---------------------------------------------------------------------------
# Matrices over a space, matrix sets, certificates


@_parser(("level", "entries"))
def space_matrix_from_descriptor(d, space: opspace.ConcreteOperatorSpace) -> opspace.OpSpaceMatrix:
    entries = _array_in(d["entries"], depth=3)
    level = as_int(d.get("level", entries.shape[0]), "level")
    if entries.shape[0] != level:
        raise InvalidInputError("declared level does not match the entry grid")
    return opspace.OpSpaceMatrix(space, entries)


def space_matrix_to_descriptor(x: opspace.OpSpaceMatrix) -> dict:
    return {"level": x.level, "entries": _array_out(x.entries)}


@_parser(("space", "generators"))
def matrix_set_from_descriptor(d) -> mconvex.MatrixSet:
    space = space_from_descriptor(d["space"])
    gens = tuple(space_matrix_from_descriptor(g, space) for g in d["generators"])
    return mconvex.MatrixSet(space, gens)


def matrix_set_to_descriptor(k: mconvex.MatrixSet) -> dict:
    return {
        "space": space_to_descriptor(k.space),
        "generators": [space_matrix_to_descriptor(g) for g in k.generators],
    }


def certificate_to_descriptor(cert: mconvex.SeparationCertificate) -> dict:
    return {"level": cert.level, "grid": _array_out(cert.grid)}


# ---------------------------------------------------------------------------
# Predual elements and dictionaries


@_parser(("space", "level", "terms"))
def gcb_element_from_descriptor(d) -> gcb.GcbElement:
    space = space_from_descriptor(d["space"])
    level = as_int(d["level"], "level")
    terms = tuple(_gcb_term(t, space) for t in d.get("terms", []))
    return gcb.GcbElement(space, level, terms)


@_parser(("c", "alpha", "x", "beta"))
def _gcb_term(t, space: opspace.ConcreteOperatorSpace) -> gcb.GcbTerm:
    return gcb.GcbTerm(
        c=_complex_in(t["c"]),
        alpha=_array_in(t["alpha"], depth=2),
        point=space_matrix_from_descriptor(t["x"], space),
        beta=_array_in(t["beta"], depth=2),
    )


@_parser(("entries",))
def dictionary_from_descriptor(d, space: opspace.ConcreteOperatorSpace) -> gcb.FunctionDictionary:
    return gcb.FunctionDictionary(tuple(_dictionary_entry(e, space) for e in d.get("entries", [])))


@_parser({"scalar": ("function", "bound"), "grid": ("grid", "bound")}, "dictionary entry")
def _dictionary_entry(e, space: opspace.ConcreteOperatorSpace):
    if e["kind"] == "scalar":
        return gcb.ScalarEntry(function_from_descriptor(e["function"]), float(e["bound"]))
    return gcb.GridEntry(space, _array_in(e["grid"], depth=3), float(e["bound"]))
