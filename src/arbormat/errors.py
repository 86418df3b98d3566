"""Exception types shared across the package."""


class ArbormatError(Exception):
    """Base class for all errors raised by this package."""


# --- tree construction and lookup ---

class InvalidTree(ArbormatError):
    """Edge list does not describe a tree on vertices 1..v."""


class OutOfRangeLabel(ArbormatError):
    """A vertex label is outside the allowed range."""


class UnknownVertex(ArbormatError):
    """Vertex label not present in the tree."""


class CapExceeded(ArbormatError):
    """Requested size exceeds the configured enumeration cap."""


# --- vertex maps ---

class NotPermutation(ArbormatError):
    """Image sequence is not a permutation of the vertex labels."""


class NotSingleCycle(ArbormatError):
    """Vertex permutation is not a single full-length cycle."""


# --- exact linear algebra ---

class DimensionMismatch(ArbormatError):
    """Operand shapes are incompatible."""


class NotSquare(ArbormatError):
    """Operation requires a square matrix."""


class Singular(ArbormatError):
    """Matrix is not invertible over its field."""


class NotField(ArbormatError):
    """Operation requires a field (or a prime field) coefficient ring."""


class NotPrime(ArbormatError):
    """Modulus is not a prime number."""


class BadDimension(ArbormatError):
    """Dimension argument outside the supported range."""


# --- claim checking ---

class OutOfRange(ArbormatError):
    """Integer argument outside its required interval."""


class NotCoprime(ArbormatError):
    """Step argument must be coprime to the orbit length."""


class WitnessFailed(ArbormatError):
    """A verified identity did not hold; carries the violated identity."""

    def __init__(self, identity: str, detail=None):
        super().__init__(identity)
        self.identity = identity
        self.detail = detail


# --- fixtures and CLI ---

class FixtureMissing(ArbormatError):
    """No bundled or user-supplied fixture with the requested id."""


class ParseError(ArbormatError):
    """Malformed textual input (tree, map, orientation, or fixture)."""
