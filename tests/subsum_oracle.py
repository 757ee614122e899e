"""Leave-one-out sums of point sets, each rebuilt from scratch: a test oracle.

O(k^2) sums, independent of the library's prefix/suffix schedule.
"""

from sumsethull.geometry import vertex_set
from sumsethull.sumsets import sumset


def point_set_oracle(family):
    """|S|, every |S_i| and |S'| of point sets; S_i' adds the extremal points of A_i."""
    k = len(family)
    whole = family[0]
    for X in family[1:]:
        whole = sumset(whole, X).points
    s_i_sizes = []
    union = set()
    for i in range(k):
        partial = None
        for j in range(k):
            if j == i:
                continue
            partial = family[j] if partial is None else sumset(partial, family[j]).points
        s_i_sizes.append(len(partial))
        union.update(sumset(partial, vertex_set(family[i])).points)
    return len(whole), s_i_sizes, len(union)
