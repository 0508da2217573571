"""Exception hierarchy shared by all regcat modules."""

from math import log10


class RegcatError(Exception):
    """Base class for every error raised by regcat."""


class TypeMismatch(RegcatError):
    """Domain/codomain of two maps do not line up for the requested operation."""

    def __init__(self, expected, got, context=""):
        self.expected = expected
        self.got = got
        msg = f"expected object {expected!r}, got {got!r}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class MissingAssignment(RegcatError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"no image assigned for element {label!r}")


class DuplicateAssignment(RegcatError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"element {label!r} assigned more than once")


class UnknownLabel(RegcatError):
    def __init__(self, label, set_id):
        self.label = label
        self.set_id = set_id
        super().__init__(f"label {label!r} is not an element of set {set_id!r}")


class SubsetDomainMismatch(RegcatError):
    pass


class SearchSpaceTooLarge(RegcatError):
    """A search would exceed its bound; ``unit`` names what ``size`` counts."""

    def __init__(self, size, bound, unit, hint=None):
        self.size = size
        self.bound = bound
        try:
            shown = str(size)
        except ValueError:  # too many digits to print: show a power of ten at most 2^(bits-1)
            shown = f"at least 10^{int((size.bit_length() - 1) * log10(2))}"
        msg = f"search space of {shown} {unit} exceeds the bound {bound}"
        super().__init__(f"{msg}; {hint}" if hint else msg)


class NoInverseExists(RegcatError):
    pass


class NotAnInnerInverse(RegcatError):
    pass


class NotAGeneralizedInverse(RegcatError):
    pass


class AlternationViolation(RegcatError):
    def __init__(self, index, expected_dom, expected_cod, got):
        self.index = index
        super().__init__(
            f"star #{index} must map {expected_dom!r} -> {expected_cod!r}, "
            f"got {got}"
        )


class OrderMismatch(RegcatError):
    pass


class NotRegular(RegcatError):
    """A triple of maps fails the 3-cycle regularity equation."""


class BrokenPath(RegcatError):
    def __init__(self, position):
        self.position = position
        super().__init__(f"path breaks at edge position {position}")


class UnknownObject(RegcatError):
    def __init__(self, object_id):
        self.object_id = object_id
        super().__init__(f"object {object_id!r} is not part of the diagram")


class IncompatibleEdgeMap(RegcatError):
    pass


class NotIdempotent(RegcatError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"map {name!r} is not idempotent")


# --- workspace / DSL errors ------------------------------------------------


class WorkspaceError(RegcatError):
    """Base class for errors produced while reading a workspace file."""


class DslSyntaxError(WorkspaceError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, column {col}: expected {expected}")


class UnknownReference(WorkspaceError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"reference to undeclared name {name!r}")


class DuplicateName(WorkspaceError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"name {name!r} declared twice")


class AssignedTwice(WorkspaceError):
    def __init__(self, map_name, element):
        self.map_name = map_name
        self.element = element
        super().__init__(f"map {map_name!r} assigns element {element!r} more than once")


class NotTotal(WorkspaceError):
    def __init__(self, map_name, element):
        self.map_name = map_name
        self.element = element
        super().__init__(f"map {map_name!r} has no image for element {element!r}")
