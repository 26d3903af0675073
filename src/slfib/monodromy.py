"""Integer monodromy of torus fibrations near trivalent discriminant vertices.

Loops in the base act on the first homology of the torus fibre, a rank-3
lattice written as column vectors: matrices multiply columns on the left
and row covectors on the right.  The standard local models are a single
edge matrix and two vertex triples (positive and negative, named after
the Euler characteristic of the singular fibre), each triple composing
to the identity around the vertex and the two triples being mutually
transpose.

Everything here is exact integer arithmetic; lattice kernels come from
Hermite-style unimodular row reduction.
"""

import math
from dataclasses import dataclass

SPINE_LENGTH = 2.0               # length of each ribbon piece's spine past the vertex
RIBBON_WIDTH = 0.5               # width of each ribbon piece across its spine
RIBBON_OVERHANG = 0.25           # length of each ribbon piece's spine behind the vertex


def _tupled(rows):
    return tuple(tuple(int(x) for x in r) for r in rows)


@dataclass(frozen=True)
class MonodromyMatrix:
    """A 3x3 integer matrix acting on the fibre homology lattice."""

    entries: tuple

    @staticmethod
    def make(rows):
        rows = _tupled(rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("expected a 3x3 integer matrix")
        return MonodromyMatrix(rows)

    @staticmethod
    def identity():
        return MonodromyMatrix.make([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def __matmul__(self, other):
        a, b = self.entries, other.entries
        return MonodromyMatrix(_tupled(
            [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]))

    def transpose(self):
        e = self.entries
        return MonodromyMatrix(_tupled([[e[j][i] for j in range(3)] for i in range(3)]))

    def determinant(self):
        e = self.entries
        return (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))

    def minus_identity(self):
        return [[self.entries[i][j] - (1 if i == j else 0) for j in range(3)]
                for i in range(3)]

    def is_unipotent(self):
        n = MonodromyMatrix(_tupled(self.minus_identity()))
        n3 = n @ n @ n
        return all(x == 0 for row in n3.entries for x in row)

    def to_json(self):
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class VertexModel:
    """A trivalent vertex: three edge monodromies composing to the identity."""

    kind: str                          # "positive" | "negative"
    edge_matrices: tuple
    euler_characteristic: int

    @property
    def fixed(self):
        """The vertex's invariant_lattice."""
        return invariant_lattice(self)


def standard_edge():
    """Monodromy about a discriminant edge."""
    return MonodromyMatrix.make([[1, 1, 0],
                                 [0, 1, 0],
                                 [0, 0, 1]])


def standard_positive_vertex():
    """Vertex whose singular fibre has Euler characteristic +1."""
    mats = (
        MonodromyMatrix.make([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        MonodromyMatrix.make([[1, 0, 0], [0, 1, 0], [-1, 0, 1]]),
        MonodromyMatrix.make([[1, 0, 0], [-1, 1, 0], [1, 0, 1]]),
    )
    return VertexModel("positive", mats, +1)


def standard_negative_vertex():
    """Vertex whose singular fibre has Euler characteristic -1."""
    mats = (
        MonodromyMatrix.make([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        MonodromyMatrix.make([[1, 0, -1], [0, 1, 0], [0, 0, 1]]),
        MonodromyMatrix.make([[1, -1, 1], [0, 1, 0], [0, 0, 1]]),
    )
    return VertexModel("negative", mats, -1)


def vertex_consistency(vertex):
    """Whether the ordered edge product M1 M2 M3 is the identity."""
    m1, m2, m3 = vertex.edge_matrices
    return (m1 @ m2 @ m3).entries == MonodromyMatrix.identity().entries


def duality_check(positive, negative):
    """Whether each positive edge matrix is the transpose of its partner."""
    return all(p.entries == n.transpose().entries
               for p, n in zip(positive.edge_matrices, negative.edge_matrices))


def _hermite_kernel(rows):
    """Primitive integer kernel basis of an integer matrix (list of rows).

    Row-reduces [A^T | I] with unimodular operations; rows whose A^T part
    vanishes expose kernel vectors in the identity part.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # work matrix: n rows of (A^T | I_n)
    work = [[rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
            for j in range(n)]
    pivot_row = 0
    for col in range(m):
        # euclidean elimination in this column below pivot_row
        while True:
            nonzero = [r for r in range(pivot_row, n) if work[r][col] != 0]
            if not nonzero:
                break
            r_min = min(nonzero, key=lambda r: abs(work[r][col]))
            work[pivot_row], work[r_min] = work[r_min], work[pivot_row]
            done = True
            for r in range(pivot_row + 1, n):
                if work[r][col] != 0:
                    q = work[r][col] // work[pivot_row][col]
                    work[r] = [x - q * y for x, y in zip(work[r], work[pivot_row])]
                    if work[r][col] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    kernel = []
    for r in range(n):
        if all(work[r][c] == 0 for c in range(m)):
            # primitive already: the identity block saw only unimodular row operations
            vec = work[r][m:]
            # fix an orientation: first nonzero entry positive
            lead = next((x for x in vec if x != 0), 1)
            if lead < 0:
                vec = [-x for x in vec]
            kernel.append(tuple(vec))
    return sorted(kernel)


def invariant_lattice(vertex):
    """Fixed sublattice (columns) and fixed co-sublattice (rows) of a vertex.

    Columns fixed by every edge matrix form the kernel of the stacked
    (M_i - I); rows fixed by every matrix form the kernel of the stacked
    transposes.
    """
    stacked_cols = []
    stacked_rows = []
    for m in vertex.edge_matrices:
        d = m.minus_identity()
        stacked_cols.extend(d)
        dt = [[d[j][i] for j in range(3)] for i in range(3)]
        stacked_rows.extend(dt)
    return {
        "column_fixed": _hermite_kernel(stacked_cols),
        "row_fixed": _hermite_kernel(stacked_rows),
    }


# ---------------------------------------------------------------------------
# ribbon figure geometry

def ribbon_figure_data(vertex):
    """Planar ribbon pieces modelling the thickened discriminant.

    Positive vertex: three rectangles in the hyperplanes dual to the
    fixed column vectors, overlapping along the segment [0, RIBBON_WIDTH]
    of the x1-axis and sticking RIBBON_OVERHANG past it.  Negative vertex:
    three rectangles merging into a Y inside the single hyperplane x1 = 0.
    Width zero collapses every piece onto the trivalent graph skeleton.
    Returns a list of pieces {piece_id, vertices, plane_normal}.
    """
    pieces = []
    if vertex.kind == "positive":
        directions = {
            1: ((0.0, 0.0, 1.0), (0, 1, 0)),       # inside x2 = 0
            2: ((0.0, 1.0, 0.0), (0, 0, 1)),       # inside x3 = 0
            3: ((0.0, 1.0, 1.0), (0, 1, -1)),      # inside x2 = x3
        }
        for pid, (d, normal) in directions.items():
            d = _normalise(d)
            lo, hi = -RIBBON_OVERHANG, SPINE_LENGTH
            corners = [
                (0.0 + lo * d[0], lo * d[1], lo * d[2]),
                (RIBBON_WIDTH + lo * d[0], lo * d[1], lo * d[2]),
                (RIBBON_WIDTH + hi * d[0], hi * d[1], hi * d[2]),
                (0.0 + hi * d[0], hi * d[1], hi * d[2]),
            ]
            pieces.append({"piece_id": pid, "vertices": corners,
                           "plane_normal": normal})
        return pieces
    # negative: Y shape in the plane x1 = 0, spines 120 degrees apart
    for pid, angle_deg in ((1, 90.0), (2, 210.0), (3, 330.0)):
        ang = math.radians(angle_deg)
        e = (0.0, math.cos(ang), math.sin(ang))
        n_in = (0.0, -math.sin(ang), math.cos(ang))  # transverse, in-plane
        lo, hi = -RIBBON_OVERHANG, SPINE_LENGTH
        half = 0.5 * RIBBON_WIDTH
        corners = [
            tuple(lo * e[i] - half * n_in[i] for i in range(3)),
            tuple(hi * e[i] - half * n_in[i] for i in range(3)),
            tuple(hi * e[i] + half * n_in[i] for i in range(3)),
            tuple(lo * e[i] + half * n_in[i] for i in range(3)),
        ]
        pieces.append({"piece_id": pid, "vertices": corners,
                       "plane_normal": (1, 0, 0)})
    return pieces


def _normalise(d):
    norm = math.sqrt(sum(x * x for x in d))
    return tuple(x / norm for x in d)
