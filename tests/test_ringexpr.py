"""Ring constructions, normal forms, and classification."""

import random

import pytest

from _oracles import zero_divisor_pair_bruteforce
from gradal.abelian import (
    FgGroup,
    GroupHom,
    box_fiber,
    hom_image,
    identity_hom,
    lift_hom,
)
import gradal.ringexpr as ringexpr
from gradal.errors import (
    GradalError,
    InternalInvariantError,
    NotASubgroupError,
    NotEntireError,
    NotSurjectiveError,
    TorsionKernelError,
)
from gradal.ringexpr import (
    BaseQ,
    BaseZ,
    classify,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
    regrade_extend,
    regrade_restrict,
    restrict_data,
)

Q = normalize(BaseQ())
Z = normalize(BaseZ())


def catalog():
    out = [Q, Z]
    for base in (Q, Z):
        for grp in (FgGroup(1, ()), FgGroup(2, ()), FgGroup(0, (2,)),
                    FgGroup(0, (4,)), FgGroup(1, (2,)), FgGroup(0, (2, 4))):
            for kind in ("fine", "coarse"):
                out.append(group_algebra(base, grp, kind))
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    out.append(coarsen(fine2, GroupHom(fine2.ggroup, FgGroup(1, ()),
                                       ((1, 1),))))
    finet = group_algebra(Q, FgGroup(1, (2,)), "fine")
    out.append(coarsen(finet, GroupHom(finet.ggroup, FgGroup(1, ()),
                                       ((1, 0),))))
    out.append(fraction_field(group_algebra(Q, FgGroup(1, ()), "fine")))
    return out


def test_base_shapes():
    assert Q.base == "Q" and Q.egroup.is_trivial and Q.ggroup.is_trivial
    assert Z.base == "Z"
    assert not Q.fraction


def test_fine_algebra_shape():
    nf = group_algebra(Q, FgGroup(1, (2,)), "fine")
    assert nf.egroup == FgGroup(1, (2,))
    assert nf.ggroup == FgGroup(1, (2,))
    assert nf.delta == identity_hom(nf.egroup)


def test_coarse_algebra_shape():
    nf = group_algebra(Q, FgGroup(1, (2,)), "coarse")
    assert nf.egroup == FgGroup(1, (2,))
    assert nf.ggroup.is_trivial
    for f in nf.egroup.box_elements(1):
        assert nf.delta.apply(f).is_zero


def test_iterated_fine_over_coarse():
    inner = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    nf = group_algebra(inner, FgGroup(1, ()), "fine")
    assert nf.egroup == FgGroup(1, (2,))
    assert nf.ggroup == FgGroup(1, ())
    # Degree of a mixed exponent is its free part only.
    assert nf.delta.apply(nf.egroup.element((3, 1))).coords == (3,)


def test_coarsen_composes_degree():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 1),))
    rc = coarsen(fine2, psi)
    assert rc.ggroup == FgGroup(1, ())
    assert rc.egroup == fine2.egroup
    f = rc.egroup.element((2, 3))
    assert rc.delta.apply(f).coords == (5,)


def test_coarsen_requires_surjective():
    fine1 = group_algebra(Q, FgGroup(1, ()), "fine")
    psi = GroupHom(fine1.ggroup, FgGroup(1, ()), ((2,),))
    with pytest.raises(NotSurjectiveError):
        coarsen(fine1, psi)


def test_restrict_shape_and_membership():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    sub_gens = [fine2.ggroup.element((2, 0)), fine2.ggroup.element((0, 1))]
    nf, kappa = restrict_data(fine2, sub_gens)
    assert kappa.domain == nf.egroup
    assert kappa.codomain == fine2.egroup
    assert kappa.is_injective()
    # Every restricted exponent lands in the generated subgroup.
    for f in nf.egroup.box_elements(1):
        img = kappa.apply(f)
        assert img.coords[0] % 2 == 0


def test_restrict_rejects_fraction():
    fr = fraction_field(group_algebra(Q, FgGroup(1, ()), "fine"))
    with pytest.raises(GradalError):
        regrade_restrict(fr, [fr.ggroup.element((2,))])


def test_restrict_reads_an_iterator_of_gens_once():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    gens = [fine2.ggroup.element((2, 0)), fine2.ggroup.element((0, 1))]
    assert (regrade_restrict(fine2, iter(gens)).describe()
            == regrade_restrict(fine2, gens).describe())


def test_restrict_self_check_is_an_internal_error(monkeypatch):
    """The restricted degrees always lift to the subgroup; a failed lift
    is a bug, not a hypothesis the caller broke."""
    fine1 = group_algebra(Q, FgGroup(1, ()), "fine")
    monkeypatch.setattr(ringexpr, "lift_hom", lambda iota, psi: None)
    with pytest.raises(InternalInvariantError,
                       match="^degree escaped the subgroup$"):
        regrade_restrict(fine1, [fine1.ggroup.element((2,))])


def test_extend_refuses_a_map_not_injective():
    fine1 = group_algebra(Q, FgGroup(1, ()), "fine")
    with pytest.raises(NotASubgroupError,
                       match="^grading extension map is not injective$"):
        regrade_extend(fine1, GroupHom(FgGroup(1), FgGroup(1), ((0,),)))


def test_extend_keeps_support():
    fine1 = group_algebra(Q, FgGroup(1, ()), "fine")
    embed = GroupHom(FgGroup(1, ()), FgGroup(2, ()), ((1,), (0,)))
    nf = regrade_extend(fine1, embed)
    assert nf.ggroup == FgGroup(2, ())
    cls = classify(nf)
    assert not cls.full_support
    assert cls.support.rank == 1


def test_fraction_field_gates():
    ent = group_algebra(Q, FgGroup(1, ()), "fine")
    fr = fraction_field(ent)
    assert fr.fraction
    not_ent = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    with pytest.raises(NotEntireError):
        fraction_field(not_ent)


def test_fraction_field_idempotent():
    fr = fraction_field(group_algebra(Q, FgGroup(1, ()), "fine"))
    assert fraction_field(fr) is fr


def test_coarsen_a_fraction_ring():
    """Coarsening commutes with fractions along a torsionfree kernel, and
    is refused along a torsion kernel: the coarse ring has homogeneous
    zero divisors, so it has no graded ring of fractions."""
    fine = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine.ggroup, FgGroup(1, ()), ((1, 1),))
    assert coarsen(fraction_field(fine), psi) == fraction_field(
        coarsen(fine, psi))
    fr = fraction_field(group_algebra(Q, FgGroup(1, (2,)), "fine"))
    with pytest.raises(TorsionKernelError):
        coarsen(fr, GroupHom(fr.ggroup, FgGroup(1, ()), ((1, 0),)))


def rebuild(nf):
    """nf from its base and exponent group through the constructors only:
    fine algebra, coarsening onto the degree support, extension along the
    support embedding, and fractions for a fraction ring."""
    fine = group_algebra(normalize(BaseZ() if nf.base == "Z" else BaseQ()),
                         nf.egroup, "fine")
    _, emb = hom_image(nf.delta)
    onto_support = lift_hom(emb, nf.delta)
    out = regrade_extend(coarsen(fine, onto_support), emb)
    return fraction_field(out) if nf.fraction else out


def test_constructor_round_trip():
    for nf in catalog():
        assert rebuild(nf) == nf


def test_normalize_idempotent_on_constructors():
    nf = normalize(BaseQ())
    assert normalize(nf) is nf
    assert rebuild(nf) == nf
    nf2 = group_algebra(nf, FgGroup(1, (2,)), "coarse")
    assert rebuild(nf2) == nf2
    fine2 = group_algebra(Z, FgGroup(2, ()), "fine")
    nf3 = regrade_restrict(fine2, [fine2.ggroup.element((2, 0)),
                                   fine2.ggroup.element((0, 1))])
    assert rebuild(nf3) == nf3


def test_classification_flags_against_bruteforce():
    for nf in catalog():
        cls = classify(nf)
        assert cls.noetherian
        if nf.fraction:
            assert cls.entire and cls.simple
            continue
        pair = zero_divisor_pair_bruteforce(nf)
        assert (pair is None) == cls.entire


def test_simple_criterion():
    # Over Q with injective degree map every nonzero homogeneous element
    # is invertible; over Z or with a kernel it is not.
    assert classify(group_algebra(Q, FgGroup(1, ()), "fine")).simple
    assert classify(group_algebra(Q, FgGroup(0, (2,)), "fine")).simple
    assert not classify(group_algebra(Z, FgGroup(1, ()), "fine")).simple
    assert not classify(group_algebra(Q, FgGroup(1, ()), "coarse")).simple
    fr = fraction_field(group_algebra(Z, FgGroup(1, ()), "fine"))
    assert classify(fr).simple


def test_support_full_on_plain_algebras():
    for nf in catalog():
        cls = classify(nf)
        if nf.fraction:
            continue
        assert cls.full_support


def _random_ring(rng):
    """A ring from the constructors: a group algebra over Z or Q, maybe
    coarsened onto Z or 0, maybe passed to fractions."""
    base = normalize(rng.choice((BaseZ(), BaseQ())))
    grp = FgGroup(rng.randint(0, 2), rng.choice(((), (2,), (2, 2))))
    nf = group_algebra(base, grp, rng.choice(("fine", "coarse")))
    if rng.randint(0, 1):
        cod = FgGroup(rng.randint(0, min(1, nf.ggroup.rank)), ())
        nf = coarsen(nf, GroupHom(nf.ggroup, cod,
                                  ((1,) * nf.ggroup.rank
                                   + (0,) * len(nf.ggroup.torsion),)
                                  * cod.rank))
    if classify(nf).entire and rng.randint(0, 1):
        nf = fraction_field(nf)
    return nf


def test_rings_are_values():
    """Equal keys iff ==, == implies equal hashes, each hash is the hash
    of the key tuple, and a ring built twice the same way is equal."""

    def key(nf):
        return (nf.base, nf.egroup, nf.ggroup, nf.delta, nf.fraction)

    rng = random.Random(802)
    rings = []
    equal = 0
    for _ in range(300):
        state = rng.getstate()
        r = _random_ring(rng)
        rng.setstate(state)
        again = _random_ring(rng)
        assert r == again and hash(r) == hash(again) and r is not again
        assert hash(r) == hash(key(r)) and r != key(r)
        for s in rings[-8:]:
            assert (r == s) == (key(r) == key(s))
            assert (r != s) == (key(r) != key(s))
            if r == s:
                equal += 1
                assert hash(r) == hash(s)
        rings.append(r)
    assert equal > 20, equal
    assert hash(Q) == hash(("Q", FgGroup(0, ()), FgGroup(0, ()), Q.delta,
                            False))


def test_box_fibers_kept_per_box():
    """The box exponents over each degree, in coordinate order; the
    fibers of the degrees met partition the box."""
    nf = coarsen(group_algebra(Q, FgGroup(1, (2,)), "fine"),
                 GroupHom(FgGroup(1, (2,)), FgGroup(1, ()), ((1, 0),)))
    for box in (0, 1, 2):
        want = {}
        for f in sorted(nf.egroup.box_elements(box), key=lambda f: f.coords):
            want.setdefault(nf.delta.apply(f), []).append(f)
        fibers = {d: box_fiber(nf.delta, box, d) for d in want}
        assert fibers == want
        assert sum(map(len, fibers.values())) == (2 * box + 1) * 2
        assert box_fiber(nf.delta, box, nf.ggroup.element((box + 1,))) == []


def test_classify_shared_by_equal_rings():
    """classify is keyed by the ring's value: equal rings built
    separately get the very same Classification."""
    rng = random.Random(1302)
    for _ in range(100):
        state = rng.getstate()
        a = _random_ring(rng)
        rng.setstate(state)
        b = _random_ring(rng)
        assert a == b and a is not b
        assert classify(a) is classify(b)
