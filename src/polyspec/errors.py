"""Exception types raised by polyspec operations."""


class PolyspecError(Exception):
    """Base class for all domain errors raised by this package."""


class InteriorEdgeError(PolyspecError):
    """The requested face edge is shared by two faces inside the net."""


class OutOfDomainError(PolyspecError):
    """A planar point lies outside the net beyond tolerance."""


class DegenerateElementError(PolyspecError):
    """A triangle with (near-)zero area was passed to element assembly."""


class NoConvergenceError(PolyspecError):
    """The iterative eigensolver could not meet the residual contract.

    ``iterations`` is the number of operator applications (solves with the
    factored K - sigma M) made before the failure, summed over the Lanczos
    runs so far.  On the symmetry-sector path those are the sector solves,
    one per irreducible representation and round; the partners that a
    sector's pairs lift to add nothing.
    """

    def __init__(self, message, iterations=None, worst_residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.worst_residual = worst_residual


class DimensionTooLargeError(PolyspecError):
    """Dense full-spectrum solve requested for a matrix above the guard size."""


class InadmissibleOrbitError(PolyspecError):
    """The (symmetry type, orbit) combination does not produce an eigenfunction."""


class NotOctahedronError(PolyspecError):
    """Enlargement is only defined on the octahedron."""


class NotOneDimensionalTypeError(PolyspecError):
    """Enlargement requires a base function of one-dimensional symmetry type."""


class InsufficientSpectrumError(PolyspecError):
    """The eigenvalue series does not cover the requested counting range."""
