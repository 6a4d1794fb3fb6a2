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
        return opspace.space_scalar()
    if kind == "matrix":
        return opspace.space_mk(as_int(d.get("param", 1), "param"))
    if kind == "row":
        return opspace.space_row(as_int(d.get("param", 1), "param"))
    if kind == "column":
        return opspace.space_column(as_int(d.get("param", 1), "param"))
    if kind == "min_linf":
        return opspace.space_min_linf(as_int(d.get("param", 1), "param"))
    if kind == "custom":
        basis = _array_in(d["basis"], depth=3)
        if basis.shape[1] != as_int(d.get("ambient", basis.shape[1]), "ambient"):
            raise InvalidInputError("custom basis does not match the declared ambient size")
        return opspace.ConcreteOperatorSpace(basis, kind="custom")
    raise InvalidInputError(f"unknown space kind {kind!r}")


def space_to_descriptor(space: opspace.ConcreteOperatorSpace) -> dict:
    if space.kind == "custom":
        return {"kind": "custom", "ambient": space.ambient, "basis": _array_out(space.basis)}
    return {"kind": space.kind, "param": space.param}


# ---------------------------------------------------------------------------
# Functions


@_parser
def function_from_descriptor(d) -> holofun.HoloFunction:
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidInputError("function descriptor must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "power_series":
        # An "analytic_radius" key is accepted and ignored: polynomials are entire.
        coeffs = np.asarray([_complex_in(c) for c in d["coeffs"]], dtype=np.complex128)
        return holofun.PowerSeries(coeffs)
    if kind == "blaschke":
        zeros = np.asarray([_complex_in(z) for z in d.get("zeros", [])], dtype=np.complex128)
        return holofun.Blaschke(_complex_in(d["c"]), as_int(d["m"], "m"), zeros)
    if kind == "moebius_quotient":
        return holofun.MoebiusQuotient(function_from_descriptor(d["inner"]), _complex_in(d["a"]))
    if kind == "geometric_phi":
        space = space_from_descriptor(d["space"])
        phi = np.asarray([_complex_in(c) for c in d["phi"]], dtype=np.complex128)
        return holofun.GeometricPhi(space, phi, float(d["certified_norm"]))
    if kind == "composite":
        space = space_from_descriptor(d["space"])
        phi = np.asarray([_complex_in(c) for c in d["phi"]], dtype=np.complex128)
        return holofun.Composite(
            function_from_descriptor(d["scalar"]), space, phi, float(d["certified_norm"])
        )
    if kind == "product":
        return holofun.Product(function_from_descriptor(d["left"]), function_from_descriptor(d["right"]))
    if kind == "sum":
        return holofun.Sum(function_from_descriptor(d["left"]), function_from_descriptor(d["right"]))
    if kind == "scale":
        return holofun.Scale(_complex_in(d["c"]), function_from_descriptor(d["inner"]))
    raise InvalidInputError(f"unknown function kind {kind!r}")


def function_to_descriptor(f: holofun.HoloFunction) -> dict:
    if isinstance(f, holofun.PowerSeries):
        return {"kind": "power_series", "coeffs": [_complex_out(c) for c in f.coeffs]}
    if isinstance(f, holofun.Blaschke):
        return {
            "kind": "blaschke",
            "c": _complex_out(f.c),
            "m": f.m,
            "zeros": [_complex_out(z) for z in f.zeros],
        }
    if isinstance(f, holofun.MoebiusQuotient):
        return {"kind": "moebius_quotient", "inner": function_to_descriptor(f.inner), "a": _complex_out(f.a)}
    if isinstance(f, holofun.GeometricPhi):
        return {
            "kind": "geometric_phi",
            "space": space_to_descriptor(f.space),
            "phi": [_complex_out(c) for c in f.phi],
            "certified_norm": f.certified_norm,
        }
    if isinstance(f, holofun.Composite):
        return {
            "kind": "composite",
            "scalar": function_to_descriptor(f.scalar),
            "space": space_to_descriptor(f.space),
            "phi": [_complex_out(c) for c in f.phi],
            "certified_norm": f.certified_norm,
        }
    if isinstance(f, holofun.Product):
        return {"kind": "product", "left": function_to_descriptor(f.left), "right": function_to_descriptor(f.right)}
    if isinstance(f, holofun.Sum):
        return {"kind": "sum", "left": function_to_descriptor(f.left), "right": function_to_descriptor(f.right)}
    if isinstance(f, holofun.Scale):
        return {"kind": "scale", "c": _complex_out(f.c), "inner": function_to_descriptor(f.inner)}
    raise InvalidInputError(f"cannot serialize {type(f).__name__}")


def function_id(d) -> str:
    """Compact human-readable tag for report rows."""
    if not isinstance(d, dict) or "kind" not in d:
        return "?"
    kind = d["kind"]
    if kind in ("product", "sum"):
        return f"{kind}({function_id(d.get('left'))},{function_id(d.get('right'))})"
    if kind in ("moebius_quotient", "scale"):
        return f"{kind}({function_id(d.get('inner'))})"
    if kind == "composite":
        return f"composite({function_id(d.get('scalar'))})"
    return kind


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
