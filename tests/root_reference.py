"""One-root conversions, read straight off the Cartan matrix and the
symmetrizer: the references the tests hold RootSystem.root_rows and its
readers to.  The library keeps its per-root values in root_rows only.
Also the orbit walk's tree rule, read off one weight."""


def root_fw(rs, simple):
    """Simple-root coordinates to fw coordinates: simple . C."""
    return tuple(sum(simple[k] * rs.cartan[k][j] for k in range(rs.rank))
                 for j in range(rs.rank))


def pair_root(rs, x_fw, alpha_simple):
    """(x, alpha) for x in fw coordinates, alpha in simple coordinates."""
    return sum(rs.d[j] * alpha_simple[j] * x_fw[j] for j in range(rs.rank))


def root_norm2(rs, alpha_simple):
    """(alpha, alpha) for alpha in simple coordinates."""
    return pair_root(rs, root_fw(rs, alpha_simple), alpha_simple)


def parent_node(y):
    """The node j of y's first negative coordinate: in the tree that
    RootSystem.orbit walks, the parent of y != top is s_j y."""
    return next(j for j, c in enumerate(y, 1) if c < 0)
