"""Exception hierarchy for the metivier package.

Each subclass of MetivierError carries exit_code, the status the command
line returns for it: 1 for a usage or validation error, 2 for a failed
mathematical precondition.  MetivierError itself has none.
"""


class MetivierError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MetivierError):
    """Array shapes or vector lengths do not match the declared dimensions."""

    exit_code = 1


class NotSkewSymmetric(MetivierError):
    """A structure matrix fails the skew-symmetry tolerance."""

    exit_code = 1

    def __init__(self, index, defect):
        self.index = index
        self.defect = defect
        super().__init__(
            f"structure matrix {index} is not skew-symmetric "
            f"(max |U + U^T| = {defect:.3e})"
        )


class DependentStructureMatrices(MetivierError):
    """The structure matrices are linearly dependent."""

    exit_code = 1


class SingularPencil(MetivierError):
    """V_lambda is numerically singular at the requested lambda."""

    exit_code = 2


class NonConvergence(MetivierError):
    """An iterative solver failed to converge."""

    exit_code = 2


class RangeExceeded(MetivierError):
    """An index or argument is outside the documented stable range."""

    exit_code = 2


class OutOfDomain(MetivierError):
    """A requested evaluation point lies outside the grid support."""

    exit_code = 1


class UnsupportedDimension(MetivierError):
    """The operation is implemented only for some n: default grids (n in
    {1, 2}), the full-grid means and Laplacian (n = 1), and two-radii
    reconstruction (n = m = 1)."""

    exit_code = 1


class NonFiniteValue(MetivierError):
    """A sampled expression returned NaN or infinity."""

    exit_code = 2

    def __init__(self, node):
        self.node = node
        super().__init__(f"non-finite value at grid node {node}")


class GridMismatch(MetivierError):
    """Two fields do not share the same grid."""

    exit_code = 2


class MalformedFile(MetivierError):
    """A field or structure file violates the documented layout."""

    exit_code = 1


class VersionMismatch(MetivierError):
    """A field file declares an unsupported format version."""

    exit_code = 1


class TruncationDominates(MetivierError):
    """Estimated truncation error exceeds the requested tolerance."""

    exit_code = 2


class NyquistViolation(MetivierError):
    """Requested angular/center mode exceeds the grid band limit."""

    exit_code = 2


class GridTooCoarse(MetivierError):
    """Finite-difference Richardson check exceeded its tolerance."""

    exit_code = 2


class NoUsableRadius(MetivierError):
    """Every degree was unrecoverable from the supplied radii."""

    exit_code = 2


class InadmissibleRadii(MetivierError):
    """The radius pair fails the two-radii admissibility check."""

    exit_code = 2
