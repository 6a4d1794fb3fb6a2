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


def _parser(parse):
    """Report a missing key or a wrongly typed value in a descriptor as
    InvalidInputError rather than as the KeyError or TypeError it raises."""

    @functools.wraps(parse)
    def checked(d, *args):
        try:
            return parse(d, *args)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidInputError(f"malformed descriptor: {type(exc).__name__}: {exc}") from None

    return checked


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


@_parser
def space_from_descriptor(d) -> opspace.ConcreteOperatorSpace:
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidInputError("space descriptor must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "scalar":
        if as_int(d.get("param", 1), "param") != 1:
            raise InvalidInputError(f"a scalar space has param 1, got {d['param']!r}")
        return opspace.space_scalar()
    if kind == "custom":
        basis = _array_in(d["basis"], depth=3)
        if basis.shape[1] != as_int(d.get("ambient", basis.shape[1]), "ambient"):
            raise InvalidInputError("custom basis does not match the declared ambient size")
        return opspace.ConcreteOperatorSpace(basis, kind="custom")
    if not isinstance(kind, str) or kind not in opspace.SIZED_BUILDERS:
        raise InvalidInputError(f"unknown space kind {kind!r}")
    return opspace.SIZED_BUILDERS[kind](as_int(d.get("param", 1), "param"))


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
# arguments, in order, with their codecs.  A `power_series` may carry an
# "analytic_radius" key, which is ignored: polynomials are entire.
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


def _function_kind(kind):
    """The (class, keys) entry of a function kind, or None for an unknown one."""
    return _FUNCTIONS.get(kind) if isinstance(kind, str) else None


@_parser
def function_from_descriptor(d) -> holofun.HoloFunction:
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidInputError("function descriptor must be an object with a 'kind'")
    entry = _function_kind(d["kind"])
    if entry is None:
        raise InvalidInputError(f"unknown function kind {d['kind']!r}")
    cls, keys = entry
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
    _, keys = _function_kind(kind) or (None, {})
    nested = [function_id(d.get(key)) for key, codec in keys.items() if codec is _FUNCTION]
    return f"{kind}({','.join(nested)})" if nested else kind


# ---------------------------------------------------------------------------
# Matrices over a space, matrix sets, certificates


@_parser
def space_matrix_from_descriptor(d, space: opspace.ConcreteOperatorSpace) -> opspace.OpSpaceMatrix:
    entries = _array_in(d["entries"], depth=3)
    level = as_int(d.get("level", entries.shape[0]), "level")
    if entries.shape[0] != level:
        raise InvalidInputError("declared level does not match the entry grid")
    return opspace.OpSpaceMatrix(space, entries)


def space_matrix_to_descriptor(x: opspace.OpSpaceMatrix) -> dict:
    return {"level": x.level, "entries": _array_out(x.entries)}


@_parser
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


@_parser
def gcb_element_from_descriptor(d) -> gcb.GcbElement:
    space = space_from_descriptor(d["space"])
    level = as_int(d["level"], "level")
    terms = []
    for t in d.get("terms", []):
        terms.append(
            gcb.GcbTerm(
                c=_complex_in(t["c"]),
                alpha=_array_in(t["alpha"], depth=2),
                point=space_matrix_from_descriptor(t["x"], space),
                beta=_array_in(t["beta"], depth=2),
            )
        )
    return gcb.GcbElement(space, level, tuple(terms))


@_parser
def dictionary_from_descriptor(d, space: opspace.ConcreteOperatorSpace) -> gcb.FunctionDictionary:
    entries = []
    for e in d.get("entries", []):
        kind = e.get("kind")
        if kind == "scalar":
            entries.append(gcb.ScalarEntry(function_from_descriptor(e["function"]), float(e["bound"])))
        elif kind == "grid":
            entries.append(gcb.GridEntry(space, _array_in(e["grid"], depth=3), float(e["bound"])))
        else:
            raise InvalidInputError(f"unknown dictionary entry kind {kind!r}")
    return gcb.FunctionDictionary(tuple(entries))
