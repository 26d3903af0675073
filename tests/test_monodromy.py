import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slfib.monodromy import (
    MonodromyMatrix,
    _hermite_kernel,
    duality_check,
    invariant_lattice,
    ribbon_figure_data,
    standard_edge,
    standard_negative_vertex,
    standard_positive_vertex,
    vertex_consistency,
)

POS = standard_positive_vertex()
NEG = standard_negative_vertex()


def test_edge_matrix_values():
    e = standard_edge()
    assert e.entries[0] == (1, 1, 0)
    assert e.determinant() == 1
    assert e.is_unipotent()


def test_vertex_matrix_entries():
    assert POS.edge_matrices[1].entries[2][0] == -1
    assert NEG.edge_matrices[2].entries[0] == (1, -1, 1)


def test_all_matrices_in_the_lattice_group():
    for v in (POS, NEG):
        for m in v.edge_matrices:
            assert m.determinant() == 1
            assert m.is_unipotent()


def test_vertex_products_are_identity():
    assert vertex_consistency(POS)
    assert vertex_consistency(NEG)


def test_swapped_product_recorded():
    m1, m2, m3 = POS.edge_matrices
    swapped = (m2 @ m1 @ m3).entries
    # the probe is recorded, not assumed: these matrices do commute pairwise
    # only when the product happens to close up
    assert (swapped == MonodromyMatrix.identity().entries) == \
        ((m1 @ m2).entries == (m2 @ m1).entries)


def test_transpose_duality():
    assert duality_check(POS, NEG)
    ident = standard_positive_vertex()
    object.__setattr__(ident, "edge_matrices", (MonodromyMatrix.identity(),) * 3)
    assert duality_check(ident, ident)
    assert not duality_check(POS, POS)


def test_euler_characteristics():
    assert POS.euler_characteristic == 1
    assert NEG.euler_characteristic == -1


def test_positive_fixed_lattice():
    fixed = invariant_lattice(POS)
    assert fixed["column_fixed"] == [(0, 0, 1), (0, 1, 0)]
    assert fixed["row_fixed"] == [(1, 0, 0)]


def test_negative_fixed_lattice():
    fixed = invariant_lattice(NEG)
    assert fixed["column_fixed"] == [(1, 0, 0)]
    assert fixed["row_fixed"] == [(0, 0, 1), (0, 1, 0)]


def test_duality_swaps_fixed_spaces():
    # row-fixed covectors of the positive vertex are the column-fixed
    # vectors of the negative vertex, matching transpose duality
    assert POS.fixed["row_fixed"] == NEG.fixed["column_fixed"]
    assert POS.fixed["column_fixed"] == NEG.fixed["row_fixed"]


def test_matrix_validation():
    with pytest.raises(ValueError):
        MonodromyMatrix.make([[1, 0], [0, 1]])


def test_apply_column():
    e = standard_edge()
    # e applied to (0, 1, 0) is its second column
    assert tuple(row[1] for row in e.entries) == (1, 1, 0)


def test_positive_ribbons_lie_in_dual_hyperplanes():
    pieces = ribbon_figure_data(POS)
    normals = [p["plane_normal"] for p in pieces]
    assert normals == [(0, 1, 0), (0, 0, 1), (0, 1, -1)]
    assert POS.fixed["column_fixed"] == [(0, 0, 1), (0, 1, 0)]
    for piece in pieces:
        for vx in piece["vertices"]:
            assert abs(sum(n * c for n, c in zip(piece["plane_normal"], vx))) < 1e-12


def test_negative_ribbons_share_one_hyperplane():
    pieces = ribbon_figure_data(NEG)
    assert all(p["plane_normal"] == (1, 0, 0) for p in pieces)
    for p in pieces:
        assert all(abs(vx[0]) < 1e-12 for vx in p["vertices"])


def test_zero_width_collapses_to_graph_skeleton(monkeypatch):
    from slfib import monodromy

    monkeypatch.setattr(monodromy, "RIBBON_WIDTH", 0.0)
    monkeypatch.setattr(monodromy, "RIBBON_OVERHANG", 0.0)
    for model in (POS, NEG):
        pieces = ribbon_figure_data(model)
        for p in pieces:
            vx = np.asarray(p["vertices"])
            # rectangle degenerates to a segment through the origin
            spread = np.linalg.matrix_rank(vx - vx[0], tol=1e-12)
            assert spread <= 1
            assert np.min(np.linalg.norm(vx, axis=1)) < 1e-12


def test_matrix_json():
    assert json.dumps(standard_edge().to_json()) == "[[1, 1, 0], [0, 1, 0], [0, 0, 1]]"


def _det(m):
    """The determinant of a small square integer matrix, by Leibniz's formula."""
    return sum((-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2))
               * math.prod(row[k] for row, k in zip(m, p))
               for p in itertools.permutations(range(len(m))))


def _minors(rows, k):
    """Every k x k minor of an integer matrix with 3 columns (the 0 x 0 one is 1)."""
    return [_det([[row[c] for c in cols] for row in sub])
            for sub in itertools.combinations(rows, k)
            for cols in itertools.combinations(range(3), k)]


_ENTRY = st.integers(-9, 9)
_ROW = st.lists(_ENTRY, min_size=3, max_size=3)


@st.composite
def _integer_matrices(draw):
    """1-9 rows of 3 integers: drawn freely, or integer combinations of at most two rows."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return [draw(_ROW) for _ in range(n)]
    gens = draw(st.lists(_ROW, min_size=1, max_size=2))
    weights = [draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
               for _ in range(n)]
    return [[sum(w * g[c] for w, g in zip(ws, gens)) for c in range(3)] for ws in weights]


@settings(max_examples=300, deadline=None)
@given(_integer_matrices())
def test_hermite_kernel_is_a_saturated_oriented_kernel_basis(rows):
    basis = _hermite_kernel(rows)
    rank = max(k for k in range(4) if any(_minors(rows, k)))
    assert len(basis) == 3 - rank
    for vec in basis:
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
        assert next(x for x in vec if x != 0) > 0
    # saturated: the basis spans every integer kernel vector, so its maximal minors are coprime
    assert math.gcd(*_minors(basis, len(basis))) == 1
