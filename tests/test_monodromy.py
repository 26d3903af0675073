import json

import numpy as np
import pytest

from slfib.monodromy import (
    MonodromyMatrix,
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
