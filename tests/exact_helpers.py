"""Exact values for the tests: a scalar shorthand, a matrix row and the JSON reader."""

from stueckelberg.exact import ExactMatrix, GaussianRational, as_fraction


def gr(re=0, im=0) -> GaussianRational:
    """GaussianRational from ints, Fractions or 'num/den' strings."""
    return GaussianRational(as_fraction(re), as_fraction(im))


def row(m: ExactMatrix, i: int) -> tuple:
    """Row i of m as a tuple of entries."""
    return tuple(m[i, j] for j in range(m.cols))


def matrix_from_json(d) -> ExactMatrix:
    """The matrix `ExactMatrix.to_json_dict` wrote as d."""
    rows, cols = d["rows"], d["cols"]
    if len(d["entries"]) != rows * cols:
        raise ValueError("entry count does not match dimensions")
    return ExactMatrix.sparse(rows, cols, (((k // cols, k % cols), gr(*pair))
                                           for k, pair in enumerate(d["entries"])))
