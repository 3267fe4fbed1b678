"""Every entry point that takes a node of the Dynkin diagram asks
RootSystem.check_node: anything but an int from 1 to the rank raises
ValueError("node ... out of range"), and on the nodes each one answers as
the Cartan matrix, read here directly, says.  Node 0 in particular must not
wrap onto the last node through index -1."""

import re

import pytest

from weylgeom import RootSystem
from weylgeom.charring import FormalCharacter, levi_restriction
from weylgeom.duality import (chamber_automorphism_check, diagram_duality,
                              wprime_orbits)
from weylgeom.geometry import (DeltaSpace, Geometry, apartment_objects,
                               descent, object_point, translate_support)


def _relabelled_e6():
    """E6 renumbered so that node i is node p[i - 1] of the named system;
    node 1 stays the node of the 27."""
    e6, p = RootSystem.named("E6"), (1, 4, 6, 2, 5, 3)
    return RootSystem([[e6.cartan[a - 1][b - 1] for b in p] for a in p])


SYSTEMS = {"A3": lambda: RootSystem.named("A3"),
           "E6 relabelled": _relabelled_e6}
_GEOMETRIES = {}


def _geometry(name):
    """Geometry(rs, 1) of the named case, built once."""
    if name not in _GEOMETRIES:
        _GEOMETRIES[name] = Geometry(SYSTEMS[name](), 1)
    return _GEOMETRIES[name]


def _nodes(rs):
    return range(1, rs.rank + 1)


def _reflect(rs, i, w):
    return tuple(x - w[i - 1] * c for x, c in zip(w, rs.cartan[i - 1]))


def _reach(start, step):
    seen, todo = set(), [start]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo.extend(step(x))
    return frozenset(seen)


def _component(rs, start, removed):
    if start in removed:
        return frozenset()
    return _reach(start, lambda i: [j for j in _nodes(rs) if j not in removed
                                    and rs.cartan[i - 1][j - 1]])


def _swap(rs, i):
    """The transposition of nodes 1 and i as a perm tuple."""
    return tuple(i if j == 1 else 1 if j == i else j for j in _nodes(rs))


def _is_automorphism(rs, perm):
    return all(rs.cartan[perm[a] - 1][perm[b] - 1] == rs.cartan[a][b]
               for a in range(rs.rank) for b in range(rs.rank))


def _string(g, i):
    """{hw - k*alpha_i: k} while a weight: the descent along alpha_i."""
    out, w, k = {}, g.hw, 0
    while w in g.weights:
        out[w] = k
        w, k = tuple(a - b for a, b in zip(w, g.rs.cartan[i - 1])), k + 1
    return out


def _wprime(g, i):
    """The orbits on V's weights of the s_j with j != i, as frozensets."""
    return {_reach(w, lambda v: [_reflect(g.rs, j, v) for j in _nodes(g.rs)
                                 if j != i]) for w in g.weights}


def _weight(rs):
    return tuple(range(1, rs.rank + 1))


def _restricted(rs, i):
    sub, nodes = rs.restricted([i])
    return sub.cartan, nodes


def _levi(rs, i):
    rule = levi_restriction(rs, [i])
    char = rule.restrict_character(FormalCharacter({_weight(rs): 3}))
    return rule.name, rule.target.cartan, char.weights


# name: (call, want), each taking (geometry, node)
ENTRY_POINTS = {
    "fundamental_weight": (
        lambda g, i: g.rs.fundamental_weight(i),
        lambda g, i: tuple(int(j == i) for j in _nodes(g.rs))),
    "reflect": (
        lambda g, i: g.rs.reflect(i, _weight(g.rs)),
        lambda g, i: _reflect(g.rs, i, _weight(g.rs))),
    "translate_support": (
        lambda g, i: translate_support(g.rs, i, g.weights),
        lambda g, i: frozenset(_reflect(g.rs, i, w) for w in g.weights)),
    "translate_support empty": (
        lambda g, i: translate_support(g.rs, i, ()),
        lambda g, i: frozenset()),
    "neighbors": (
        lambda g, i: g.rs.neighbors(i),
        lambda g, i: [j for j in _nodes(g.rs)
                      if j != i and g.rs.cartan[i - 1][j - 1]]),
    "component_of": (
        lambda g, i: g.rs.component_of(i, ()),
        lambda g, i: frozenset(_nodes(g.rs))),
    "component_of removed": (
        lambda g, i: g.rs.component_of(2 if i == 1 else 1, (i,)),
        lambda g, i: _component(g.rs, 2 if i == 1 else 1, {i})),
    "is_connected": (
        lambda g, i: g.rs.is_connected([i]),
        lambda g, i: True),
    "parabolic_order": (
        lambda g, i: g.rs.parabolic_order([i]),
        lambda g, i: 2),
    "delta_component": (
        lambda g, i: g.rs.delta_component(1, i),
        lambda g, i: _component(g.rs, 1, {i})),
    "restricted": (
        lambda g, i: _restricted(g.rs, i),
        lambda g, i: (((2,),), (i,))),
    "levi_restriction": (
        lambda g, i: _levi(g.rs, i),
        lambda g, i: ("levi-%d" % i, ((2,),), {(i,): 3})),
    "descent": (
        lambda g, i: descent(g.rs, g.weights, g.hw, [i]),
        _string),
    "wprime_orbits": (
        lambda g, i: set(map(frozenset, wprime_orbits(g.rs, i, g.weights))),
        _wprime),
    "diagram_duality": (
        lambda g, i: chamber_automorphism_check(
            g, diagram_duality(g, _swap(g.rs, i))),
        lambda g, i: _is_automorphism(g.rs, _swap(g.rs, i))),
    "Geometry": (
        lambda g, i: Geometry(g.rs, i).hw,
        lambda g, i: tuple(int(j == i) for j in _nodes(g.rs))),
    "DeltaSpace": (
        lambda g, i: DeltaSpace(g, i).support,
        lambda g, i: g.delta_space(i).support),
    "delta_space": (
        lambda g, i: object_point(g, i, g.delta_space(i).support),
        lambda g, i: tuple(int(j == i) for j in _nodes(g.rs))),
    "apartment_objects": (
        lambda g, i: len(apartment_objects(g, i)),
        lambda g, i: g.rs.orbit_size(tuple(int(j == i)
                                           for j in _nodes(g.rs)))),
}

NOT_NODES = {"0": lambda n: 0, "rank+1": lambda n: n + 1, "-1": lambda n: -1,
             "1.5": lambda n: 1.5, "True": lambda n: True,
             "None": lambda n: None, "'1'": lambda n: "1"}


@pytest.mark.parametrize("bad", list(NOT_NODES))
@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_refuse_what_is_no_node(entry, system, bad):
    g = _geometry(system)
    node = NOT_NODES[bad](g.rs.rank)
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^node %s out of range$"
                       % re.escape(repr(node))):
        call(g, node)


@pytest.mark.parametrize("system", list(SYSTEMS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_answer_on_every_node(entry, system):
    g = _geometry(system)
    call, want = ENTRY_POINTS[entry]
    for i in _nodes(g.rs):
        assert call(g, i) == want(g, i), i


def test_node_zero_is_not_the_last_node():
    # the cases where index 0 - 1 once read the last row of the Cartan matrix
    a3 = RootSystem.named("A3")
    g = Geometry(a3, 1)
    cases = [lambda: a3.reflect(0, (0, 0, 1)), lambda: a3.neighbors(0),
             lambda: a3.component_of(0, ()), lambda: a3.is_connected([0, 1]),
             lambda: descent(a3, g.weights, g.hw, [0]),
             lambda: levi_restriction(a3, [0, 1]),
             lambda: wprime_orbits(a3, 0, g.weights),
             lambda: diagram_duality(g, (3, 2, 1, 4))]
    for case in cases:
        with pytest.raises(ValueError, match="out of range$"):
            case()


@pytest.mark.parametrize("nodes, node",
                         [([1, 1], 1), ([2, 1, 2], 2), ([1, 1, 3], 1)])
def test_restriction_refuses_a_repeated_node(nodes, node):
    a3 = RootSystem.named("A3")
    for case in (lambda: a3.restricted(nodes),
                 lambda: levi_restriction(a3, nodes)):
        with pytest.raises(ValueError, match="^node %d repeated$" % node):
            case()
    with pytest.raises(ValueError,
                       match="is not a permutation of the nodes$"):
        diagram_duality(Geometry(a3, 1), tuple(nodes))
