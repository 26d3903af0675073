"""A fixed quartering ladder of levels, for tests that pin per-level behaviour.

``ladder`` solves 1, 1/4, 1/16, ... clamped onto the a_min proxy, level by level,
each warm-started from the last and all sharing one FactorSlot, as a
continuation does.  The solvers' own continuation (solve_disc_limit,
solve_strip_limit) chooses its levels adaptively instead.
"""

from slfib.elliptic import DEFAULT_A_MIN, FactorSlot, solve_disc, solve_strip


def ladder(data, domain):
    """The fields of ``data`` ((phi,) or (top, bottom)) at every level of the ladder."""
    solve = solve_disc if domain.kind == "disc" else solve_strip
    factor, fields, initial, a = FactorSlot(), [], None, 1.0
    while True:
        fields.append(solve(*data, a, domain, initial=initial, factor=factor))
        if a == DEFAULT_A_MIN:
            return fields
        initial = domain.grid().interior(fields[-1])
        a = max(a / 4, DEFAULT_A_MIN)


def kept_levels(fld):
    """The level records of a continuation's field, checked to run from 1 down to a_min.

    The levels decrease strictly, and there is one Cauchy increment per step.
    """
    levels = fld.diagnostics["levels"]
    a = [lev["a"] for lev in levels]
    assert a[0] == 1.0 and a[-1] == DEFAULT_A_MIN == fld.a
    assert all(hi > lo for hi, lo in zip(a, a[1:]))
    assert len(fld.cauchy_increments) == len(levels) - 1
    return levels
