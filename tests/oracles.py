"""Dense operator oracles shared by the test modules."""


def casimir_symmetrized(r):
    """The symmetrized quadratic (I+ I- + I- I+)/2 + Iz^2 of an irrep.

    Diagonal in the weight basis with entry

        [j][j+1] - [m]([m+1] + [m-1])/2 + m^2

    at weight m; this is the per-copy quantity whose doubled value on
    the constrained two-copy states feeds the energy denominator
    (docs/derivations.md, section 4).
    """
    return (r.iplus @ r.iminus + r.iminus @ r.iplus) / 2.0 + r.iz @ r.iz
