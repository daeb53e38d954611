"""Finitely generated abelian groups, homs, and subgroup machinery."""

import random
from fractions import Fraction as Rational
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import gradal.abelian as abelian
from _oracles import (
    hom_matrix_by_group_elems,
    quotient_by_normalizing,
    surjective_by_quotient,
    torsionfree_summand_bruteforce,
)
from gradal.abelian import (
    FgGroup,
    GroupHom,
    add_homs,
    box_fiber,
    compose,
    direct_sum,
    find_section,
    hom_image,
    hom_inverse,
    hom_kernel,
    identity_hom,
    is_in_torsionfree_summand,
    lift_hom,
    quotient_by,
    solve_in_subgroup,
    subgroup_generated_by,
    zero_hom,
)
from gradal.errors import (
    GradalError,
    InternalInvariantError,
    NotAHomomorphismError,
    NotSurjectiveError,
    ParentMismatchError,
)
from gradal.harness import _TORSION_CHAINS

SMALL_GROUPS = [
    FgGroup(0, ()),
    FgGroup(1, ()),
    FgGroup(2, ()),
    FgGroup(0, (2,)),
    FgGroup(0, (4,)),
    FgGroup(0, (2, 4)),
    FgGroup(1, (2,)),
    FgGroup(1, (3,)),
    FgGroup(2, (2,)),
]


def test_invariant_factor_chain_enforced():
    FgGroup(0, (2, 4))
    FgGroup(1, (3, 6, 6))
    with pytest.raises(GradalError):
        FgGroup(0, (4, 2))
    with pytest.raises(GradalError):
        FgGroup(0, (2, 3))
    with pytest.raises(GradalError):
        FgGroup(0, (1,))
    with pytest.raises(GradalError):
        FgGroup(-1, ())


def test_reduce_is_canonical():
    g = FgGroup(1, (4,))
    assert g.element((3, 7)).coords == (3, 3)
    assert g.element((0, -1)).coords == (0, 3)
    assert (g.element((2, 3)) + g.element((1, 1))).coords == (3, 0)
    assert (2 * g.element((1, 3))).coords == (2, 2)
    assert (-g.element((1, 1))).coords == (-1, 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.sampled_from([(), (2,), (3,), (2, 4)]),
       st.integers(1, 2))
def test_box_elements_count(rank, torsion, box):
    g = FgGroup(rank, torsion)
    elems = list(g.box_elements(box))
    expected = (2 * box + 1) ** rank
    for d in torsion:
        expected *= d
    assert len(elems) == expected
    assert len(set(e.coords for e in elems)) == expected


def test_box_elements_in_coordinate_order():
    for rank in range(3):
        for torsion in [(), (2,), (3,), (2, 4)]:
            for box in range(3):
                coords = [f.coords for f in
                          FgGroup(rank, torsion).box_elements(box)]
                assert coords == sorted(coords)


def test_box_fibers_match_bruteforce_grouping():
    """box_fiber(hom, box, t) is box_elements filtered by hom.apply(f) ==
    t, in box_elements order, for targets inside and outside the image;
    a target of another group raises."""
    rng = random.Random(1414)
    outside = 0
    for _ in range(120):
        a, b = random_group(rng), random_group(rng)
        hom = random_hom(rng, a, b)
        box = rng.randint(0, 2)
        elems = list(a.box_elements(box))
        targets = {hom.apply(f) for f in rng.sample(elems, min(3, len(elems)))}
        targets.update(random_elements(rng, b, 3))
        for t in targets:
            want = [f for f in elems if hom.apply(f) == t]
            outside += not want
            assert box_fiber(hom, box, t) == want
        other = FgGroup(b.rank + 1, b.torsion)
        with pytest.raises(ParentMismatchError):
            box_fiber(hom, box, other.zero())
    assert outside > 50, outside


def test_box_fiber_refuses_a_box_that_is_not_an_int():
    """A box of None, a float or a bool is a typed error, not a TypeError
    from negating it or an off-by-one box of True."""
    g = FgGroup(1, (2,))
    h = identity_hom(g)
    for box in (None, 1.5, True, "1"):
        with pytest.raises(GradalError, match="^box bounds must be ints, got "):
            box_fiber(h, box, g.zero())


def test_normalize_presentation_refuses_what_is_not_a_presentation():
    """An ambient dim that is not an int of at least 0, or a relation
    entry that is not an int, is a typed error, not a TypeError from
    range or the Smith form, nor a trivial group for a negative dim."""
    for dim, cols, message in (
            ("x", [], "^ambient dims must be ints, got 'x'$"),
            (True, [], "^ambient dims must be ints, got True$"),
            (-1, [], "^ambient dim must be at least 0, got -1$"),
            (2, [[1, "a"]], "^relation entries must be ints, got 'a'$"),
            (2, [[2, 0.0]], "^relation entries must be ints, got 0.0$")):
        with pytest.raises(GradalError, match=message):
            abelian.normalize_presentation(dim, cols)
    grp, _, _ = abelian.normalize_presentation(2, iter([(2, 0)]))
    assert grp == FgGroup(1, (2,))


def test_finite_group_enumeration():
    g = FgGroup(0, (2, 4))
    assert g.order() == 8
    assert len(list(g.torsion_elements())) == 8
    h = FgGroup(1, (2,))
    assert len(list(h.torsion_elements())) == 2


def test_elem_order():
    g = FgGroup(1, (4,))
    assert g.zero().elem_order() == 1
    assert g.element((0, 2)).elem_order() == 2
    assert g.element((0, 1)).elem_order() == 4
    assert g.element((1, 0)).elem_order() is None
    assert g.element((1, 2)).elem_order() is None


def test_hom_rejects_torsion_violation():
    with pytest.raises(GradalError):
        GroupHom(FgGroup(0, (2,)), FgGroup(1, ()), ((1,),))
    GroupHom(FgGroup(0, (2,)), FgGroup(0, (4,)), ((2,),))
    with pytest.raises(GradalError):
        GroupHom(FgGroup(0, (2,)), FgGroup(0, (4,)), ((1,),))


def test_torsion_violation_names_the_image_order():
    """The image's order is a number when finite, "infinite" otherwise."""
    with pytest.raises(NotAHomomorphismError,
                       match="^generator of order 2 maps to an element of "
                             "infinite order$"):
        GroupHom(FgGroup(0, (2,)), FgGroup(1, ()), ((1,),))
    with pytest.raises(NotAHomomorphismError,
                       match="^generator of order 2 maps to an element of "
                             "order 4$"):
        GroupHom(FgGroup(0, (2,)), FgGroup(0, (4,)), ((1,),))


def test_group_data_must_be_ints():
    """Rank, invariant factors and matrix entries are ints, not values
    int() would accept or bools."""
    for rank, torsion in ((0, (2.5,)), (0, ("3",)), (1.5, ()), (True, (2,)),
                          (1, (2, 4.0))):
        with pytest.raises(GradalError):
            FgGroup(rank, torsion)
    for entry in (1.5, "1", True, Rational(1)):
        with pytest.raises(NotAHomomorphismError):
            GroupHom(FgGroup(1), FgGroup(1), ((entry,),))
    with pytest.raises(NotAHomomorphismError):
        GroupHom(FgGroup(0, (2,)), FgGroup(0, (2,)), ())


def test_find_section_refuses_a_map_not_onto():
    z = FgGroup(1)
    with pytest.raises(NotSurjectiveError, match=r"^Z -> Z is not onto$"):
        find_section(GroupHom(z, z, ((2,),)))


def test_hom_matrix_must_be_rows():
    """A matrix that is not a list of rows is refused like a row of the
    wrong width, not with a TypeError from inside GroupHom."""
    g = FgGroup(2)
    for matrix in (5, [[1, 0], 5], None):
        with pytest.raises(NotAHomomorphismError,
                           match=r"^expected a list of rows, got "):
            GroupHom(g, g, matrix)


def test_hom_checks_match_group_elem_checks():
    """GroupHom accepts and rejects what the checks through validated
    GroupElems do, with the same error and the same stored matrix, on
    seeded maps with bad shapes, non-int entries and torsion generators
    sent to elements of the right, wrong or infinite order."""
    rng = random.Random(4242)
    groups = [FgGroup(0, ()), FgGroup(1, ()), FgGroup(2, ()), FgGroup(0, (2,)),
              FgGroup(0, (4,)), FgGroup(0, (2, 4)), FgGroup(1, (2,)),
              FgGroup(1, (3,)), FgGroup(1, (2, 6)), FgGroup(0, (6,))]
    seen = {"ok": 0, "order": 0, "infinite": 0, "entries": 0, "shape": 0}
    for _ in range(1500):
        dom, cod = rng.choice(groups), rng.choice(groups)
        cols = []
        for j in range(dom.dim):
            col = [rng.randint(-7, 7) for _ in range(cod.dim)]
            if j >= dom.rank and rng.random() < 0.6:  # a killed image
                d = dom.torsion[j - dom.rank]
                col[:cod.rank] = [0] * cod.rank
                col[cod.rank:] = [rng.randint(-3, 3) * (t // gcd(t, d))
                                  for t in cod.torsion]
            cols.append(col)
        mat = [[col[i] for col in cols] for i in range(cod.dim)]
        if mat and mat[0] and rng.random() < 0.1:
            mat[rng.randrange(len(mat))][0] = rng.choice(
                [1.0, True, Rational(1), "1", None])
        if rng.random() < 0.05:
            mat = mat[1:] if rng.random() < 0.5 else [row[1:] for row in mat]
        try:
            want = hom_matrix_by_group_elems(dom, cod, mat)
        except NotAHomomorphismError as exc:
            with pytest.raises(NotAHomomorphismError) as got:
                GroupHom(dom, cod, mat)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            msg = str(exc)
            seen["infinite" if "infinite" in msg else "order" if "order" in msg
                 else "entries" if "entries" in msg else "shape"] += 1
        else:
            assert GroupHom(dom, cod, mat).matrix == want
            seen["ok"] += 1
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("group,coords", [
    (FgGroup(1, (2,)), (1.5, 2.5)),
    (FgGroup(1, (2,)), (True, 1)),
    (FgGroup(1, (2,)), (1, Rational(1))),
    (FgGroup(1), ("a",)),
    (FgGroup(0, (4,)), (2.0,)),
])
def test_element_coordinates_must_be_ints(group, coords):
    """Coordinates are ints: a float would be reduced to a non-integer
    torsion coordinate, a bool kept as a bool, a string kept as is."""
    with pytest.raises(GradalError, match="coordinates must be ints"):
        group.element(coords)


def test_hom_composition_and_identity():
    a = FgGroup(2, ())
    b = FgGroup(1, (2,))
    f = GroupHom(a, b, ((1, 0), (0, 1)))
    assert compose(identity_hom(b), f) == f
    assert compose(f, identity_hom(a)) == f
    z = zero_hom(a, b)
    for x in a.box_elements(1):
        assert z.apply(x).is_zero
        assert f.apply(x) == b.element((x.coords[0], x.coords[1]))


def random_group(rng):
    rank = rng.randint(0, 2)
    torsion = rng.choice([(), (2,), (3,), (4,), (2, 2), (2, 4)])
    return FgGroup(rank, torsion)


def random_elements(rng, g, k):
    out = []
    for _ in range(k):
        coords = tuple(rng.randint(-3, 3) for _ in range(g.rank)) + tuple(
            rng.randint(0, d - 1) for d in g.torsion)
        out.append(g.element(coords))
    return out


def random_hom(rng, a, b):
    """A random hom a -> b: free generators go anywhere in a small box,
    a torsion generator of order d to an element of b killed by d."""
    cols = []
    for j in range(a.dim):
        if j < a.rank:
            cols.append(random_elements(rng, b, 1)[0].coords)
        else:
            d = a.torsion[j - a.rank]
            cols.append(rng.choice([x for x in b.torsion_elements()
                                    if (d * x).is_zero]).coords)
    return GroupHom(a, b, tuple(tuple(c[i] for c in cols)
                                for i in range(b.dim)))


def all_homs(a, b):
    """Every hom a -> b, for finite b."""
    for images in product(list(b.torsion_elements()), repeat=a.dim):
        try:
            yield GroupHom(a, b, tuple(tuple(x.coords[i] for x in images)
                                       for i in range(b.dim)))
        except GradalError:
            continue


def test_lift_hom_matches_brute_force():
    """lift_hom finds a lift exactly when one exists; it is the unique
    lift when iota is injective.  With a non-injective iota and a torsion
    domain, some preimages are not a hom and must be corrected."""
    rng = random.Random(77)
    finite = [FgGroup(0, (2,)), FgGroup(0, (3,)), FgGroup(0, (4,)),
              FgGroup(0, (2, 2)), FgGroup(0, (2, 4))]
    seen = {"none": 0, "injective": 0, "non-injective": 0,
            "non-injective, torsion domain": 0}
    for _ in range(200):
        b = rng.choice(finite)
        c = rng.choice(finite + [FgGroup(1, (2,)), FgGroup(1, (4,))])
        iota = random_hom(rng, b, c)
        injective = iota.is_injective()
        a = rng.choice([FgGroup(1, ()), FgGroup(2, ()), FgGroup(0, (2,)),
                        FgGroup(0, (4,)), FgGroup(1, (2,))])
        psi = random_hom(rng, a, c)
        lifts = [phi for phi in all_homs(a, b)
                 if compose(iota, phi) == psi]
        phi = lift_hom(iota, psi)
        if not lifts:
            assert phi is None
            seen["none"] += 1
            continue
        assert phi is not None
        assert compose(iota, phi) == psi
        if injective:
            assert len(lifts) == 1 and phi == lifts[0]
            seen["injective"] += 1
        elif a.torsion:
            seen["non-injective, torsion domain"] += 1
        else:
            seen["non-injective"] += 1
    assert min(seen.values()) > 5, seen


def test_lift_hom_free_cases():
    z = FgGroup(1, ())
    double = GroupHom(z, z, ((2,),))
    assert lift_hom(double, GroupHom(z, z, ((3,),))) is None
    half = lift_hom(double, GroupHom(z, z, ((6,),)))
    assert half.matrix == ((3,),)
    with pytest.raises(GradalError):
        lift_hom(double, identity_hom(FgGroup(0, (2,))))


def test_subgroup_membership_round_trip():
    rng = random.Random(1234)
    for _ in range(150):
        g = random_group(rng)
        gens = random_elements(rng, g, rng.randint(1, 3))
        sub, iota = subgroup_generated_by(g, gens)
        assert iota.is_injective()
        # Every generator and random combinations of them are members.
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            target = g.zero()
            for c, x in zip(coeffs, gens):
                target = target + c * x
            u = solve_in_subgroup(iota, target)
            assert u is not None
            assert iota.apply(u) == target


def test_subgroup_non_membership():
    g = FgGroup(2, ())
    sub, iota = subgroup_generated_by(g, [g.element((2, 0))])
    assert solve_in_subgroup(iota, g.element((1, 0))) is None
    assert solve_in_subgroup(iota, g.element((2, 1))) is None
    assert solve_in_subgroup(iota, g.element((-4, 0))) is not None


def test_quotient_by_counts():
    g = FgGroup(0, (2, 4))
    for gens_coords in [((0, 1),), ((1, 0),), ((1, 2),)]:
        gens = [g.element(c) for c in gens_coords]
        sub, _ = subgroup_generated_by(g, gens)
        q, proj = quotient_by(g, gens)
        assert proj.is_surjective()
        for x in gens:
            assert proj.apply(x).is_zero
        assert sub.order() * q.order() == g.order()


def test_hom_kernel_matches_brute_force():
    rng = random.Random(99)
    for _ in range(80):
        a = FgGroup(0, rng.choice([(2,), (4,), (2, 2), (2, 4), (6,)]))
        b = random_group(rng)
        # Build a valid hom by sending generators to elements killed by
        # the generator order.
        cols = []
        for d in a.torsion:
            while True:
                y = random_elements(rng, b, 1)[0]
                if (d * y).is_zero:
                    cols.append(y.coords)
                    break
        matrix = tuple(tuple(col[i] for col in cols) for i in range(b.dim))
        psi = GroupHom(a, b, matrix)
        kern, iota = hom_kernel(psi)
        members = {iota.apply(u).coords for u in kern.torsion_elements()}
        brute = {x.coords for x in a.torsion_elements()
                 if psi.apply(x).is_zero}
        assert members == brute


def test_hom_kernel_with_free_rank():
    """Domains with free rank: iota is an injective map into the kernel
    of psi that reaches every kernel element of a box, and the quotient
    by the kernel is the image (first isomorphism theorem)."""
    rng = random.Random(4711)
    kernel_ranks = set()
    for _ in range(60):
        a = FgGroup(rng.randint(1, 3), rng.choice([(), (2,), (3,), (2, 2)]))
        b = random_group(rng)
        psi = random_hom(rng, a, b)
        kern, iota = hom_kernel(psi)
        kernel_ranks.add(kern.rank)
        assert compose(psi, iota) == zero_hom(kern, b)
        assert iota.is_injective()
        for x in box_fiber(psi, 2, b.zero()):
            y = solve_in_subgroup(iota, x)
            assert y is not None and iota.apply(y) == x
        q, _ = quotient_by(a, [iota.apply(x) for x in kern.generators()])
        img, _ = hom_image(psi)
        assert q == img
    assert {0, 1, 2} <= kernel_ranks


def test_subgroup_depends_on_the_lattice_only():
    """(sub, iota) is read off the Hermite form, which is unique for its
    lattice: shuffling the generators, adding integer combinations of
    them, or adding relations of g changes nothing."""
    rng = random.Random(2718)
    for _ in range(150):
        g = random_group(rng)
        gens = random_elements(rng, g, rng.randint(1, 3))
        want = subgroup_generated_by(g, gens)
        assert subgroup_generated_by(g, rng.sample(gens, len(gens))) == want
        combos = [sum((rng.randint(-3, 3) * x for x in gens), g.zero())
                  for _ in range(2)]
        assert subgroup_generated_by(g, gens + combos) == want
        rels = g.relation_columns()
        assert subgroup_generated_by(
            g, gens + [g.element(rc) for rc in rels]) == want
        # Integer columns, as hom_kernel passes them: each generator moved
        # by relations, and the relations themselves as extra columns.
        lifted = []
        for x in gens:
            ks = [rng.randint(-2, 2) for _ in rels]
            lifted.append([c + sum(k * rc[i] for k, rc in zip(ks, rels))
                           for i, c in enumerate(x.coords)])
        assert abelian._subgroup_from_lattice(g, lifted + rels) == want


def test_hom_image():
    g = FgGroup(2, ())
    psi = GroupHom(g, FgGroup(1, ()), ((2, 4),))
    img, iota = hom_image(psi)
    assert img.rank == 1
    assert solve_in_subgroup(iota, FgGroup(1, ()).element((2,))) is not None
    assert solve_in_subgroup(iota, FgGroup(1, ()).element((1,))) is None


def test_direct_sum_identities():
    rng = random.Random(2718)
    for _ in range(60):
        a, b = random_group(rng), random_group(rng)
        ds = direct_sum(a, b)
        assert compose(ds.proj1, ds.inj1) == identity_hom(a)
        assert compose(ds.proj2, ds.inj2) == identity_hom(b)
        assert compose(ds.proj1, ds.inj2) == zero_hom(b, a)
        assert compose(ds.proj2, ds.inj1) == zero_hom(a, b)
        s = add_via(ds)
        assert s == identity_hom(ds.group)


def test_direct_sum_computed_once_per_pair_of_values():
    rng = random.Random(1515)
    for _ in range(60):
        rank, torsion = rng.randint(0, 2), rng.choice([(), (2,), (2, 4)])
        rank2, torsion2 = rng.randint(0, 2), rng.choice([(), (3,), (2, 2)])
        a, b = FgGroup(rank, torsion), FgGroup(rank2, torsion2)
        a2, b2 = FgGroup(rank, list(torsion)), FgGroup(rank2, list(torsion2))
        assert a == a2 and a is not a2
        assert direct_sum(a, b) is direct_sum(a2, b2)


def add_via(ds):
    return add_homs(compose(ds.inj1, ds.proj1), compose(ds.inj2, ds.proj2))


def test_find_section_exists_for_split_surjections():
    g = FgGroup(2, ())
    psi = GroupHom(g, FgGroup(1, ()), ((1, 1),))
    s = find_section(psi)
    assert s is not None
    assert compose(psi, s) == identity_hom(psi.codomain)


def test_find_section_none_for_nonsplit():
    g = FgGroup(0, (4,))
    q, proj = quotient_by(g, [g.element((2,))])
    assert q.order() == 2
    assert find_section(proj) is None


def test_find_section_self_check_is_internal(monkeypatch):
    """A lift that breaks psi . pi = id is a bug in lift_hom (exit 5),
    not a property of the input."""
    psi = GroupHom(FgGroup(2, ()), FgGroup(1, ()), ((1, 1),))
    monkeypatch.setattr(abelian, "lift_hom",
                        lambda iota, phi: zero_hom(phi.domain, iota.domain))
    with pytest.raises(InternalInvariantError):
        find_section(psi)


def test_find_section_mixed():
    g = FgGroup(1, (2,))
    psi = GroupHom(g, FgGroup(0, (2,)), ((0, 1),))
    s = find_section(psi)
    assert s is not None
    assert compose(psi, s) == identity_hom(psi.codomain)


def test_find_section_matches_brute_force():
    """find_section returns a section exactly when some hom b -> a is
    one, every hom b -> a being enumerated."""
    rng = random.Random(31337)
    chains = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 6), (4, 4)]
    seen = {"section": 0, "none": 0}
    for _ in range(200):
        a = FgGroup(0, rng.choice(chains))
        gens = [rng.choice([1, 2, 2, 3]) * x
                for x in random_elements(rng, a, rng.randint(0, 2))]
        b, psi = quotient_by(a, gens)
        exists = any(compose(psi, s) == identity_hom(b)
                     for s in all_homs(b, a))
        pi = find_section(psi)
        if not exists:
            assert pi is None
            seen["none"] += 1
            continue
        assert pi is not None
        assert compose(psi, pi) == identity_hom(b)
        seen["section"] += 1
    assert min(seen.values()) > 20, seen


def random_isomorphism(rng, a, b):
    """The swap a + b -> b + a after a few elementary automorphisms
    gen_i -> gen_i + k*gen_j of a + b (each is one when it is a hom:
    gen_i -> gen_i - k*gen_j undoes it)."""
    ds, sd = direct_sum(a, b), direct_sum(b, a)
    phi = add_homs(compose(sd.inj2, ds.proj1), compose(sd.inj1, ds.proj2))
    n = ds.group.dim
    for _ in range(4 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[j][i] = rng.randint(-2, 2)
        try:
            e = GroupHom(ds.group, ds.group, tuple(map(tuple, rows)))
        except NotAHomomorphismError:
            continue
        phi = compose(phi, e)
    return phi


def test_hom_inverse_round_trip():
    rng = random.Random(606)
    for _ in range(60):
        phi = random_isomorphism(rng, random_group(rng), random_group(rng))
        inv = hom_inverse(phi)
        assert compose(inv, phi) == identity_hom(phi.domain)
        assert compose(phi, inv) == identity_hom(phi.codomain)


NOT_INJECTIVE = "^not injective, no inverse$"
NOT_SURJECTIVE = "^not surjective, no inverse$"


def test_hom_inverse_rejects_non_isomorphisms():
    """A map that is not injective is refused as such, whether or not it
    is onto; an injective map that is not onto as not surjective."""
    z, z2, z4 = FgGroup(1, ()), FgGroup(0, (2,)), FgGroup(0, (4,))
    zt = FgGroup(1, (2,))
    cases = [
        (GroupHom(z, z2, ((1,),)), NOT_INJECTIVE),          # onto
        (GroupHom(FgGroup(2, ()), z, ((1, 0),)), NOT_INJECTIVE),  # onto
        (GroupHom(z, z, ((0,),)), NOT_INJECTIVE),           # neither
        (GroupHom(zt, zt, ((2, 0), (0, 0))), NOT_INJECTIVE),  # neither
        (GroupHom(z4, z2, ((1,),)), NOT_INJECTIVE),         # onto
        (GroupHom(z4, z4, ((2,),)), NOT_INJECTIVE),         # neither
        (GroupHom(z, z, ((2,),)), NOT_SURJECTIVE),
        (GroupHom(z, FgGroup(2, ()), ((1,), (0,))), NOT_SURJECTIVE),
        (GroupHom(z2, z4, ((2,),)), NOT_SURJECTIVE),
        (GroupHom(z, zt, ((1,), (0,))), NOT_SURJECTIVE),
    ]
    for phi, message in cases:
        with pytest.raises(GradalError, match=message) as exc:
            hom_inverse(phi)
        assert type(exc.value) is GradalError
    # random maps: on finite groups, injectivity is decided by counting
    # images; on infinite ones, by the kernel and the image's quotient
    rng = random.Random(707)
    chains = [(2,), (4,), (6,), (2, 2), (2, 4)]
    seen = dict.fromkeys(("iso", NOT_INJECTIVE, NOT_SURJECTIVE), 0)
    for trial in range(300):
        if trial % 2:
            a = FgGroup(0, rng.choice(chains))
            b = FgGroup(0, rng.choice(chains))
            phi = random_hom(rng, a, b)
            n_images = len({phi.apply(x).coords
                            for x in a.torsion_elements()})
            injective = n_images == a.order()
            onto = n_images == b.order()
        else:
            a = random_group(rng)
            if a.rank == 0:
                a = FgGroup(1, a.torsion)
            b = a if rng.randint(0, 1) else random_group(rng)
            phi = random_hom(rng, a, b)
            injective = hom_kernel(phi)[0].is_trivial
            onto = surjective_by_quotient(phi)
        if injective and onto:
            inv = hom_inverse(phi)
            assert compose(phi, inv) == identity_hom(b)
            assert compose(inv, phi) == identity_hom(a)
            seen["iso"] += 1
            continue
        message = NOT_SURJECTIVE if injective else NOT_INJECTIVE
        with pytest.raises(GradalError, match=message) as exc:
            hom_inverse(phi)
        assert type(exc.value) is GradalError
        seen[message] += 1
    assert min(seen.values()) > 5, seen


def test_torsionfree_summand_positive_cases():
    g = FgGroup(1, (2,))
    assert is_in_torsionfree_summand(g, [g.element((1, 0))])
    assert is_in_torsionfree_summand(g, [g.element((2, 0))])
    h = FgGroup(2, ())
    assert is_in_torsionfree_summand(h, [h.element((2, 3))])
    assert is_in_torsionfree_summand(h, [])


def test_torsionfree_summand_negative_cases():
    g = FgGroup(1, (2,))
    assert not is_in_torsionfree_summand(g, [g.element((0, 1))])
    # Torsionfree subgroup that still meets every complement of the
    # torsion part: generator (n, 1) in Z x Z/n.
    for n in (2, 3, 4):
        gn = FgGroup(1, (n,))
        gen = gn.element((n, 1))
        sub, _ = subgroup_generated_by(gn, [gen])
        assert sub.is_torsionfree
        assert not is_in_torsionfree_summand(gn, [gen])


def test_torsionfree_summand_random_consistency():
    rng = random.Random(5150)
    for _ in range(100):
        g = random_group(rng)
        gens = random_elements(rng, g, rng.randint(1, 2))
        flag = is_in_torsionfree_summand(g, gens)
        sub, _ = subgroup_generated_by(g, gens)
        if flag:
            assert sub.is_torsionfree
        if g.is_torsionfree:
            assert flag == True  # noqa: E712


def test_torsionfree_summand_matches_bruteforce():
    rng = random.Random(4242)
    chains = [(), (2,), (3,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6),
              (3, 6), (4, 4), (2, 12), (6, 6), (12, 12)]
    seen = {True: 0, False: 0, None: 0}
    for _ in range(400):
        g = FgGroup(rng.randint(0, 3), rng.choice(chains))
        gens = random_elements(rng, g, rng.randint(0, 3))
        expected = torsionfree_summand_bruteforce(
            g.rank, g.torsion, [x.coords for x in gens])
        seen[expected] += 1
        if expected is not None:
            assert is_in_torsionfree_summand(g, gens) == expected, (g, gens)
    assert min(seen[True], seen[False]) > 50, seen


def test_torsionfree_summand_large_torsion():
    """Z^2 x Z/12 x Z/12: every case is decided, however many maps the
    torsion part admits."""
    g = FgGroup(2, (12, 12))
    cases = [((1, 0, 0, 0), True), ((1, 0, 1, 0), True),
             ((12, 0, 1, 0), False)]
    for coords, expected in cases:
        assert torsionfree_summand_bruteforce(2, (12, 12), [coords]) == expected
        assert is_in_torsionfree_summand(g, [g.element(coords)]) == expected


def _random_hom(rng, a, b):
    """A hom a -> b whose matrix has entries in {0, 1}: the first of three
    random draws that is a hom, else the zero hom."""
    for _ in range(3):
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(a.dim))
                     for _ in range(b.dim))
        try:
            return GroupHom(a, b, rows)
        except NotAHomomorphismError:
            pass
    return zero_hom(a, b)


def test_groups_elements_homs_are_values():
    """Equal keys iff ==, == implies equal hashes, and each hash is the
    hash of the key tuple, for elements built by every route, though an
    element computes its hash at first use; a value never equals its key
    tuple, and an element never equals an element of another group with
    the same coordinates."""
    rng = random.Random(5150)
    chains = [(), (2,), (3,), (2, 2), (2, 4)]
    draws = {"group": 0, "elem": 0, "hom": 0}
    equal = {"group": 0, "elem": 0, "hom": 0}
    other_group = 0

    def check(kind, u, v, key):
        draws[kind] += 1
        assert (u == v) == (key(u) == key(v))
        assert (u != v) == (key(u) != key(v))
        assert hash(u) == hash(key(u))
        if u == v:
            equal[kind] += 1
            assert hash(u) == hash(v)
        assert u != key(u)

    for _ in range(400):
        a, b = (FgGroup(rng.randint(0, 2), rng.choice(chains))
                for _ in range(2))
        check("group", a, b, lambda g: (g.rank, g.torsion))
        check("group", a, FgGroup(a.rank, a.torsion),
              lambda g: (g.rank, g.torsion))
        x, y = (a.element(tuple(rng.randint(-1, 1) for _ in range(a.dim)))
                for _ in range(2))
        check("elem", x, y, lambda e: (e.group, e.coords))
        hom = _random_hom(rng, a, b)
        check("elem", x + y, -x, lambda e: (e.group, e.coords))
        check("elem", hom.apply(x), b.zero(), lambda e: (e.group, e.coords))
        if a.dim == b.dim:
            z = b.element(x.coords)
            check("elem", x, z, lambda e: (e.group, e.coords))
            if a != b and z.coords == x.coords:
                other_group += 1
                assert x != z
        check("hom", hom, _random_hom(rng, a, b),
              lambda h: (h.domain, h.codomain, h.matrix))
    assert hash(FgGroup(1, (2,))) == hash((1, (2,)))
    assert min(equal.values()) > 20 and min(draws.values()) > 200, (
        equal, draws)
    assert other_group > 20, other_group


def test_is_surjective_matches_the_quotient_route():
    """is_surjective reads the Smith diagonal of the presentation; it
    agrees with the triviality of the quotient by the generators' images
    on seeded homs, trivial domains and codomains among them."""
    rng = random.Random(1357)
    groups = SMALL_GROUPS + [FgGroup(0, (6,)), FgGroup(1, (2, 6))]
    seen = {True: 0, False: 0}
    trivial_ends = 0
    for _ in range(1000):
        a, b = rng.choice(groups), rng.choice(groups)
        h = _random_hom(rng, a, b) if rng.random() < 0.5 else random_hom(
            rng, a, b)
        want = surjective_by_quotient(h)
        assert h.is_surjective() is want, h
        seen[want] += 1
        trivial_ends += a.is_trivial or b.is_trivial
    assert min(seen.values()) >= 200 and trivial_ends > 50, (seen,
                                                             trivial_ends)


def test_composites_and_sums_are_checked_homs():
    """compose and add_homs skip the constructor's checks; each result
    equals, and hashes like, the hom the constructor builds from its
    matrix, and its columns are the images of the generators, reduced."""
    rng = random.Random(2468)
    unreduced = 0
    for _ in range(400):
        a, b, c = (rng.choice(SMALL_GROUPS) for _ in range(3))
        f, g, g2 = random_hom(rng, b, c), random_hom(rng, a, b), random_hom(
            rng, a, b)
        for h, images in ((compose(f, g), [f.apply(g.apply(x))
                                           for x in a.generators()]),
                          (add_homs(g, g2), [g.apply(x) + g2.apply(x)
                                             for x in a.generators()])):
            checked = GroupHom(h.domain, h.codomain, h.matrix)
            assert h == checked and hash(h) == hash(checked)
            assert h.matrix == hom_matrix_by_group_elems(
                h.domain, h.codomain, h.matrix)
            assert h.matrix == tuple(zip(*(x.coords for x in images))) or (
                not images and h.matrix == ((),) * h.codomain.dim)
        sums = [[u + v for u, v in zip(ru, rv)]
                for ru, rv in zip(g.matrix, g2.matrix)]
        unreduced += any(v >= d for row, d in zip(sums[b.rank:], b.torsion)
                         for v in row)
    assert unreduced > 50, unreduced


def test_foreign_operands_are_typed_errors():
    """A non-element or non-hom operand raises ParentMismatchError, not
    an AttributeError from inside the operation."""
    g = FgGroup(1, (2,))
    h = identity_hom(g)
    for op in (lambda: h.apply(3), lambda: h.apply((1, 0)),
               lambda: g.element((1, 0)) + 1,
               lambda: g.element((1, 0)) - (1, 0),
               lambda: compose(h, 5), lambda: compose(5, h),
               lambda: add_homs(h, 5), lambda: add_homs(5, h)):
        with pytest.raises(ParentMismatchError):
            op()
    with pytest.raises(ParentMismatchError, match="^element of int, hom "):
        h.apply(3)
    with pytest.raises(ParentMismatchError,
                       match=r"^elements of Z x Z/2 and int$"):
        g.element((1, 0)) + 1


def test_quotient_by_matches_its_normalizing_oracle():
    """quotient_by reads the Smith transform alone; its group and
    projection equal those through normalize_presentation's to_normal,
    at ranks 0 to 3 over every torsion chain the harness draws."""
    rng = random.Random(3412)
    for _ in range(1200):
        g = FgGroup(rng.randint(0, 3), rng.choice(_TORSION_CHAINS))
        gens = [g.element([rng.randint(-3, 3) for _ in range(g.dim)])
                for _ in range(rng.randint(0, 3))]
        assert quotient_by(g, gens) == quotient_by_normalizing(g, gens)


def test_quotient_by_inverts_no_smith_transform(monkeypatch):
    """Only from_normal needs the inverse, so quotient_by, which reads
    to_normal, calls no inverse_unimodular; normalize_presentation
    still calls it once."""
    calls = []
    real = abelian.inverse_unimodular
    monkeypatch.setattr(abelian, "inverse_unimodular",
                        lambda u: calls.append(1) or real(u))
    for g in SMALL_GROUPS:
        quotient_by(g, [])
        quotient_by(g, g.generators()[:1])
    assert calls == []
    abelian.normalize_presentation(2, [[2, 0]])
    assert calls == [1]
