"""Code that only tests use: earlier implementations kept as oracles for
the kernels that replaced them, samplers, and the S-class group
evaluations that no subcommand calls."""

import math
from fractions import Fraction

from gl2trace.chargroup import (CycloNumber, FiniteAbelianGroup, GroupFunction,
                                _add_character, annihilator, subgroup_generated)


# -- group functions and the Poisson check --------------------------------


def parse_group_function_oracle(text):
    """The group-function reader as it was before the one-pass reader:
    each line stripped and split, elements checked by group.contains,
    one Fraction(str) per value line, and totality checked by walking
    every element of the group."""
    group = None
    values = {}
    for num, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        try:
            if toks[0] == "group":
                if group is not None:
                    raise ValueError("a second group line")
                group = FiniteAbelianGroup(int(x) for x in toks[1:])
            elif toks[0] == "f" and len(toks) == 3:
                if group is None:
                    raise ValueError("the group line must come first")
                elem = tuple(int(x) for x in toks[1].split(","))
                if not group.contains(elem):
                    raise ValueError("element %s is not in the group %s"
                                     % (toks[1], group.orders))
                if elem in values:
                    raise ValueError("duplicate element %s" % toks[1])
                values[elem] = Fraction(toks[2])
            else:
                raise ValueError("want 'group n1 n2 ...' or 'f e1,e2,... value'")
        except ZeroDivisionError:
            raise ValueError("line %d %r: value %s has denominator 0"
                             % (num, ln, toks[2])) from None
        except ValueError as e:
            raise ValueError("line %d %r: %s" % (num, ln, e)) from None
    if group is None:
        raise ValueError("missing group line")
    for g in group.elements():
        if g not in values:
            raise ValueError("function not total: missing %s" % (g,))
    return group, GroupFunction(group, values)


def closure_subgroup(group, spec):
    """The subgroup reader as it was before the incremental span: the
    closure of all greedy generators is recomputed from scratch after
    each new one.  Returns (sorted elements, generators)."""
    elems = {tuple(e) for e in spec}
    if not elems:
        return (group.identity(),), []
    for e in elems:
        if not group.contains(e):
            raise ValueError("element %s outside the group" % (e,))
    if group.identity() not in elems:
        raise ValueError("subgroup must contain the identity")
    gens = []
    span = {group.identity()}
    for e in sorted(elems):
        if e not in span:
            gens.append(e)
            span = set(subgroup_generated(group, gens))
    if span != elems:
        raise ValueError("subgroup spec is not closed")
    return tuple(sorted(elems)), gens


def _to_fraction(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError("fourier needs rational function values, got %r" % (v,))


def fraction_poisson_check(group, subgroup_spec, f):
    """poisson_check as it was before the integer H-sum: the sum over H
    is |H| Fraction additions, every value is rebuilt as a Fraction, and
    the dual side divides once per value."""
    if not isinstance(f, GroupFunction):
        f = GroupFunction(group, f)
    H, gens = closure_subgroup(group, subgroup_spec)
    L = group.exponent
    lhs = Fraction(0)
    for h in H:
        lhs += _to_fraction(f(h))
    vals = [_to_fraction(v) for v in f.values.values()]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    buckets = [0] * L
    for psi in annihilator(group, gens):
        _add_character(buckets, ints, group, psi.exps)
    rhs = CycloNumber.from_buckets(L, buckets, Fraction(len(H), den * group.order))
    return CycloNumber.rational(L, lhs), rhs


def sample_poisson_triple(rng, max_order=1024, max_work=1 << 16):
    """Random (group, subgroup generators, rational function) with
    |G| <= max_order and the Fourier workload |G|^2/|H| capped; biased
    toward small cyclic orders so exponents stay tame."""
    while True:
        k = rng.randint(1, 4)
        orders = []
        for _ in range(k):
            orders.append(rng.choice([2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 9, 12, 16]))
        g = FiniteAbelianGroup(orders)
        if g.order > max_order:
            continue
        ngen = rng.randint(0, 2)
        gens = [tuple(rng.randrange(n) for n in g.orders) for _ in range(ngen)]
        h = subgroup_generated(g, gens)
        if g.order * g.order // len(h) > max_work:
            continue
        f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for e in g.elements()}
        return g, h, f


def format_group_function(f):
    " the text that parse_group_function reads back "
    lines = ["group " + " ".join(str(n) for n in f.group.orders)]
    for g in f.group.elements():
        lines.append("f %s %s" % (",".join(str(x) for x in g), f(g)))
    return "\n".join(lines) + "\n"


# -- the S-class group ------------------------------------------------------


def project(sgroup, t):
    " class of the section of an S-unit t in D_S "
    return sgroup.reduce_vector(sgroup.section_vector(t))


def _sgroup_of(ch):
    if ch.sgroup is None:
        raise ValueError("%r has no S-class group; take it from "
                         "class_group_mod_squares(S).quad_chars" % (ch,))
    return ch.sgroup


def on_element(ch, g):
    " value of a quadratic character on an abstract D_S element (exponent tuple), +1 or -1 "
    e = 0
    for x, i in zip(g, _sgroup_of(ch).free_idx):
        if x:
            e ^= ch.table[i]
    return -1 if e else 1


def on_vector(ch, vec):
    " value of a quadratic character on an ambient bit vector "
    _sgroup_of(ch)
    e = 0
    for x, t in zip(vec, ch.table):
        if x:
            e ^= t
    return -1 if e else 1
