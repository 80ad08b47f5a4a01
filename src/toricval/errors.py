"""Exception types shared across the toolkit.

Split in two families: SchemaError and its kin mean the *input* was malformed,
or for NumeralTooLong that a result is too long to write (CLI exit code 1);
subclasses of MathematicalNo mean the input was well-formed but the
mathematical answer is negative (CLI exit code 2).
"""

from __future__ import annotations

TOO_LONG = "<numeral too long to print>"


def shown(x, fmt=str):
    """fmt(x) for an error message, never raising.

    Lists and tuples are written item by item as repr writes them, and an
    item whose text would need an integer past Python's int-to-text limit
    (a ValueError) is written as TOO_LONG, so shorter numerals keep their
    bytes and a long one cannot stop the error from being built.
    """
    if type(x) is list:
        return "[" + ", ".join(shown(v, repr) for v in x) + "]"
    if type(x) is tuple:
        return "(" + ", ".join(shown(v, repr) for v in x) + ("," if len(x) == 1 else "") + ")"
    try:
        return fmt(x)
    except ValueError:
        return TOO_LONG


class ToricValError(Exception):
    """Base class for everything raised deliberately by this package."""


class SchemaError(ToricValError):
    """Malformed input document."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class FieldMismatch(ToricValError):
    """Two elements or containers live over incompatible field descriptors."""


class DimensionMismatch(ToricValError):
    """Vectors or cones of different ambient dimension were combined."""


class DimensionTooHigh(ToricValError):
    """Rendering request beyond the supported ambient dimension."""


class NumeralTooLong(ToricValError):
    """An output numeral would have more digits than the wire format allows."""


class MathematicalNo(ToricValError):
    """Well-formed input, negative mathematical verdict."""


class ConstantNotInGamma(MathematicalNo):
    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(
            f"half-space {index}: constant {shown(value)} not in the value group"
        )


class ContainsLine(MathematicalNo):
    def __init__(self, line=None):
        self.line = line
        if line is None:
            detail = ""
        else:
            detail = ": (" + ", ".join(shown(x) for x in line) + ")"
        super().__init__("cone contains a line" + detail)


class NotFiniteType(MathematicalNo):
    def __init__(self, bad_vertices):
        self.bad_vertices = list(bad_vertices)
        super().__init__(
            "cone is not of finite type: slice vertices with a coordinate outside "
            f"the value group: {shown(self.bad_vertices)}"
        )


class BoundTooSmall(MathematicalNo):
    def __init__(self, bound: int, detail: str = ""):
        self.bound = bound
        super().__init__(
            f"generator search bound {bound} is too small" + (f" ({detail})" if detail else "")
        )


class RankDeficient(MathematicalNo):
    def __init__(self, detail: str = ""):
        super().__init__("generator directions do not span the character space"
                         + (f" ({detail})" if detail else ""))


class NotInCone(MathematicalNo):
    def __init__(self, point):
        self.point = point
        super().__init__(f"target {shown(point)} is not in the generated cone")


class NotAFan(MathematicalNo):
    def __init__(self, i: int, j: int, detail: str = ""):
        self.i = i
        self.j = j
        super().__init__(
            f"cones {i} and {j} do not intersect in a common face"
            + (f": {detail}" if detail else "")
        )


class ValueNotInGamma(MathematicalNo):
    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(
            f"coordinate {index}: valuation {shown(value)} not in the value group"
        )


class HeightUnboundedBelow(MathematicalNo):
    """Cone lies in the s = 0 hyperplane; heights have no finite infimum."""

    def __init__(self):
        super().__init__("cone lies in the zero-thickness locus; heights are unbounded below")
