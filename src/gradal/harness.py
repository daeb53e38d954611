"""Named, reproducible property checks on generated desk-scale instances.

Each check replays one statement of the theory on a catalog of small
instances: factorization and unit transfer under coarsening, entirety
criteria for group algebras, integrality transfer between fine and
coarse gradings, the torsion idempotent, the summand criterion, graded
euclidean division, the free-summand isomorphism, and the agreement of
integral closures under coarsening for torsionfree grading groups.

Every trial is pass, fail, or inconclusive.  A bounded witness search
that comes back empty never counts as a pass; when a conclusion would
rest on it the trial is inconclusive.  All randomness flows through a
small explicit generator so reports reproduce bit for bit from (seed,
trial index).
"""

import json
from fractions import Fraction as Rational
from math import prod

from .abelian import (
    FgGroup,
    GroupElem,
    GroupHom,
    _Record,
    _check_ints,
    _need,
    box_fiber,
    compose,
    direct_sum,
    hom_kernel,
    is_in_torsionfree_summand,
    quotient_by,
    subgroup_generated_by,
)
from .closure import (
    IntegralityWitness,
    _z_top,
    components_integral_check,
    find_integral_equation,
    find_integral_equation_fraction,
    graded_euclidean_division,
    laurent_extension,
    lem50_iso,
    torsion_idempotent,
)
from .element import (
    Element,
    Fraction,
    NonZeroDivisor,
    Unit,
    ZeroDivisor,
    degree_of,
    homogeneous_unit_test,
    is_homogeneous,
    lemma_p70_check,
    nzd_test,
    reparent,
)
from .errors import GradalError, InternalInvariantError, UnknownCheckIdError
from .ringexpr import (
    BaseQ,
    BaseZ,
    _over_base,
    classify,
    coarsen,
    group_algebra,
    normalize,
    regrade_extend,
)

__all__ = [
    "Rng",
    "CheckConfig",
    "CheckReport",
    "CHECK_IDS",
    "PROFILES",
    "DEFAULT_BOUNDS",
    "generate_instance",
    "run_check",
    "report_json",
]

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Rng:
    """splitmix64; tiny, exact, and identical on every platform."""

    def __init__(self, seed):
        self.state = seed & _M64

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def randint(self, a, b):
        return a + self.next_u64() % (b - a + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


def _trial_seed(seed, trial):
    r = Rng((seed ^ ((trial + 1) * _GAMMA)) & _M64)
    return r.next_u64()


PROFILES = ("entire-torsionfree-kernel", "torsion-kernel",
            "simple-full-support", "free-summand")

DEFAULT_BOUNDS = {"max_deg": 3, "box": 3}

_TORSION_CHAINS = ((), (2,), (3,), (4,), (6,), (2, 2), (2, 4))
_A90_ORDERS = (2, 3, 4, 6)
_A140_ORDERS = (2, 3, 4)


class CheckConfig:
    """Which check to run, how many trials, the seed and the search
    bounds (a copy of DEFAULT_BOUNDS)."""

    __slots__ = ("check_id", "trials", "seed", "bounds")

    def __init__(self, check_id, trials=24, seed=2024):
        if check_id not in CHECK_IDS:
            raise UnknownCheckIdError(f"unknown check id {check_id!r}")
        _check_ints("trials and seed", (trials, seed))
        if trials < 1:
            raise GradalError("trials must be at least 1")
        self.check_id = check_id
        self.trials = trials
        self.seed = seed
        self.bounds = dict(DEFAULT_BOUNDS)


class CheckReport(_Record):
    """Per-trial verdicts in trial order, their counts, the first failing
    trial with its payload (or None) and the trials that raised."""

    __slots__ = ("check_id", "seed", "trials", "results", "passes", "fails",
                 "inconclusive", "counterexample", "errors")


def _sample_coeff(rng, base):
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    if base == "Q" and rng.randint(0, 2) == 0:
        return Rational(num, rng.choice((1, 2, 3)))
    return num


def _box_choice(rng, g, box):
    """rng.choice(list(g.box_elements(box))) without the list: one draw,
    decoded as a mixed-radix index, last coordinate fastest."""
    sizes = [2 * box + 1] * g.rank + list(g.torsion)
    k = rng.next_u64() % prod(sizes)
    coords = [0] * len(sizes)
    for i in reversed(range(len(sizes))):
        k, coords[i] = divmod(k, sizes[i])
    return GroupElem(g, tuple(c - box for c in coords[:g.rank])
                     + tuple(coords[g.rank:]))


def _sample_element(rng, nf, max_terms=4, box=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[_box_choice(rng, nf.egroup, box)] = _sample_coeff(rng, nf.base)
    return Element(nf, terms)


def _sample_homogeneous(rng, nf, degree, max_terms=2):
    """Nonzero element whose support sits in one fiber of the degree map."""
    anchor = _box_choice(rng, nf.egroup, 2)
    fiber = box_fiber(degree, 2, degree.apply(anchor))
    terms = {}
    for _ in range(min(rng.randint(1, max_terms), len(fiber))):
        terms[rng.choice(fiber)] = _sample_coeff(rng, nf.base)
    return Element(nf, terms)


def _annihilator_pair(nf, t):
    """x = e_t - 1 and y = sum of e_(i*t) for i below the order of t."""
    x = Element(nf, {t: 1}) - Element.one(nf)
    y = Element(nf, {i * t: 1 for i in range(t.elem_order())})
    return x, y


def _sample_group(rng, max_rank=1):
    return FgGroup(rng.randint(0, max_rank), rng.choice(_TORSION_CHAINS))


def _base(rng):
    return rng.choice((BaseZ(), BaseQ()))


def generate_instance(seed, profile):
    """Deterministic instance for a profile: (ring, psi or None).

    The returned ring satisfies the profile's hypotheses; this is checked
    here with classify and the group predicates, on one kernel of psi.
    """
    return _instance(seed, profile)[:2]


def _instance(seed, profile):
    """generate_instance plus hom_kernel(psi), None where psi is None."""
    if profile not in PROFILES:
        raise GradalError(f"unknown profile {profile!r}")
    _check_ints("seeds", (seed,))
    rng = Rng(seed)
    nf, psi = _build_profile(rng, profile)
    kernel = None if psi is None else hom_kernel(psi)
    if not _profile_ok(nf, kernel, profile):
        # every profile builds its ring and psi to have these properties
        raise InternalInvariantError(
            f"profile {profile!r} drew an instance outside it from {seed}")
    return nf, psi, kernel


def _build_profile(rng, profile):
    if profile == "entire-torsionfree-kernel":
        k = FgGroup(rng.randint(1, 2), ())
        h = _sample_group(rng, max_rank=1)
        ds = direct_sum(k, h)
        nf = group_algebra(normalize(_base(rng)), ds.group, "fine")
        return nf, ds.proj2
    if profile == "torsion-kernel":
        n = rng.choice(_A90_ORDERS)
        g = FgGroup(rng.randint(0, 1), (n,))
        tgen = g.element((0,) * g.rank + (1,))
        _, proj = quotient_by(g, [tgen])
        nf = group_algebra(normalize(_base(rng)), g, "fine")
        return nf, proj
    if profile == "simple-full-support":
        g = _sample_group(rng, max_rank=2)
        nf = group_algebra(normalize(BaseQ()), g, "fine")
        return nf, None
    # free-summand: G = F + H with F free, R simple, psi(D) inside D
    f = FgGroup(rng.randint(1, 2), ())
    h = _sample_group(rng, max_rank=1)
    ds = direct_sum(f, h)
    g = ds.group
    if rng.randint(0, 2) == 0:
        # restricted support d*F + H, still a psi-stable subgroup
        d = rng.randint(2, 3)
        gens = [d * ds.inj1.apply(x) for x in f.generators()]
        gens += [ds.inj2.apply(x) for x in h.generators()]
        sub, iota = subgroup_generated_by(g, gens)
        nf = regrade_extend(group_algebra(normalize(BaseQ()), sub, "fine"),
                            iota)
    else:
        nf = group_algebra(normalize(BaseQ()), g, "fine")
    return nf, ds.proj2


def _profile_ok(nf, kernel, profile):
    cls = classify(nf)
    if profile == "simple-full-support":
        return cls.simple and cls.full_support
    free = kernel[0].is_torsionfree
    if profile == "entire-torsionfree-kernel":
        return cls.entire and free
    if profile == "torsion-kernel":
        return cls.entire and not free
    return cls.simple and free


def _zq_pair(ggroup):
    """The base-change inclusion pair Z[G-algebra] inside Q[G-algebra]."""
    r = group_algebra(normalize(BaseZ()), ggroup, "fine")
    return r, _over_base(r, "Q")


def _payload(**kv):
    out = {}
    for k, v in kv.items():
        out[k] = v if isinstance(v, (int, str, bool)) else str(v)
    return out


# --- the twelve checks; each returns (verdict, payload or None) ---


def _check_p70(trial, seed, bounds):
    nf, psi = generate_instance(seed, "entire-torsionfree-kernel")
    rng = Rng(seed ^ 0x70)
    coarse_degree = compose(psi, nf.delta)
    x = _sample_homogeneous(rng, nf, coarse_degree, max_terms=3)
    y = _sample_homogeneous(rng, nf, coarse_degree, max_terms=3)
    prod = x * y
    if is_homogeneous(x) and is_homogeneous(y):
        rep = lemma_p70_check(nf, psi, x, y)
        if rep.passed:
            return "pass", None
        return "fail", _payload(ring=nf.describe(), x=x, y=y, xy=prod,
                                reason="homogeneous factors, bad report")
    # a factor with several components forces a mixed, nonzero product
    if not prod.is_zero and not is_homogeneous(prod):
        return "pass", None
    return "fail", _payload(ring=nf.describe(), x=x, y=y, xy=prod,
                            reason="product collapsed to one component")


def _check_p80(trial, seed, bounds):
    nf, psi = generate_instance(seed, "entire-torsionfree-kernel")
    rng = Rng(seed ^ 0x80)
    rc = coarsen(nf, psi)
    if rng.randint(0, 2) == 0:
        f = _box_choice(rng, nf.egroup, 1)
        if nf.base == "Z":
            c = rng.choice((1, -1, 2))
        else:
            c = rng.choice((1, -1, Rational(1, 2)))
        x = Element(nf, {f: c})
    else:
        x = _sample_homogeneous(rng, nf, rc.delta, max_terms=3)
    fine_unit = (is_homogeneous(x)
                 and isinstance(homogeneous_unit_test(x), Unit))
    coarse_unit = isinstance(homogeneous_unit_test(reparent(x, rc)), Unit)
    if fine_unit == coarse_unit:
        return "pass", None
    return "fail", _payload(ring=nf.describe(), x=x,
                            fine_unit=fine_unit, coarse_unit=coarse_unit)


def _check_p90(trial, seed, bounds):
    profile = ("entire-torsionfree-kernel" if trial % 2 == 0
               else "torsion-kernel")
    nf, psi, (kern, _) = _instance(seed, profile)
    rng = Rng(seed ^ 0x90)
    rc = coarsen(nf, psi)
    claim = classify(rc).entire
    if claim != kern.is_torsionfree:
        return "fail", _payload(ring=nf.describe(), kernel=str(kern),
                                coarse_entire=claim)
    if claim:
        for _ in range(2):
            xc = _sample_homogeneous(rng, rc, rc.delta)
            if not isinstance(nzd_test(xc), NonZeroDivisor):
                return "fail", _payload(ring=rc.describe(), x=xc,
                                        reason="zero divisor in entire ring")
        return "pass", None
    # exhibit the annihilator pair coming from a torsion kernel degree
    ke, ike = hom_kernel(rc.delta)
    tors = [t for t in ke.torsion_elements() if not t.is_zero]
    x, y = _annihilator_pair(rc, ike.apply(tors[0]))
    if (x * y).is_zero and not x.is_zero and not y.is_zero \
            and isinstance(nzd_test(x), ZeroDivisor):
        return "pass", None
    return "fail", _payload(ring=rc.describe(), x=x, y=y,
                            reason="annihilator pair did not verify")


def _check_p100(trial, seed, bounds):
    rng = Rng(seed ^ 0x100)
    g0 = _sample_group(rng, max_rank=1)
    r0 = group_algebra(normalize(_base(rng)), g0, "fine")
    f = _sample_group(rng, max_rank=1)
    fine = group_algebra(r0, f, "fine")
    coarse = group_algebra(r0, f, "coarse")
    c0, cf, cc = classify(r0), classify(fine), classify(coarse)
    if cf.entire != c0.entire or cf.simple != c0.simple:
        return "fail", _payload(base_ring=r0.describe(), f=str(f),
                                reason="fine algebra classification moved")
    if cc.entire != (c0.entire and f.is_torsionfree):
        return "fail", _payload(base_ring=r0.describe(), f=str(f),
                                coarse_entire=cc.entire)
    if cc.simple != (c0.simple and f.is_trivial):
        return "fail", _payload(base_ring=r0.describe(), f=str(f),
                                coarse_simple=cc.simple)
    if not f.is_torsionfree:
        ds = direct_sum(r0.egroup, f)
        t = next(x for x in f.torsion_elements() if not x.is_zero)
        x, y = _annihilator_pair(coarse, ds.inj2.apply(t))
        if not (x * y).is_zero or x.is_zero or y.is_zero:
            return "fail", _payload(ring=coarse.describe(), x=x, y=y,
                                    reason="torsion annihilator missing")
    if cc.entire:
        xc = _sample_homogeneous(rng, coarse, coarse.delta)
        if not isinstance(nzd_test(xc), NonZeroDivisor):
            return "fail", _payload(ring=coarse.describe(), x=xc,
                                    reason="zero divisor in entire algebra")
    return "pass", None


def _check_a80(trial, seed, bounds):
    rng = Rng(seed ^ 0xA80)
    g0 = _sample_group(rng, max_rank=1)
    r0, s0 = _zq_pair(g0)
    f = _sample_group(rng, max_rank=1)
    rf = group_algebra(r0, f, "fine")
    sf = _over_base(rf, "Q")
    ds_e = direct_sum(s0.egroup, f)
    s = _sample_homogeneous(rng, s0, s0.delta)
    if rng.randint(0, 1) == 0:
        s = s * Rational(1, 2)
    fel = _box_choice(rng, f, 1)
    x = Element(sf, {ds_e.inj1.apply(e) + ds_e.inj2.apply(fel): c
                     for e, c in s.terms.items()})
    w_base = find_integral_equation(r0, s0, s, bounds["max_deg"],
                                    bounds["box"])
    w_alg = find_integral_equation(rf, sf, x, bounds["max_deg"],
                                   bounds["box"])
    found_base = isinstance(w_base, IntegralityWitness)
    found_alg = isinstance(w_alg, IntegralityWitness)
    if found_base != found_alg:
        return "fail", _payload(s=s, f_shift=fel, base_ring=r0.describe(),
                                found_base=found_base, found_alg=found_alg)
    if found_base and w_base.degree != w_alg.degree:
        return "fail", _payload(s=s, f_shift=fel,
                                deg_base=w_base.degree, deg_alg=w_alg.degree)
    return "pass", None


def _check_a90(trial, seed, bounds):
    n = _A90_ORDERS[trial % len(_A90_ORDERS)]
    rec = torsion_idempotent(n)
    if rec.f * rec.f != rec.f:
        return "fail", _payload(n=n, f=rec.f, reason="not idempotent")
    if any(c.denominator != n for c in rec.f.terms.values()):
        return "fail", _payload(n=n, f=rec.f, reason="coefficients not 1/n")
    w = find_integral_equation(rec.ring_z, rec.ring_q, rec.f,
                               max_deg=2, support_box=1)
    if not isinstance(w, IntegralityWitness) or w.degree != 2:
        return "fail", _payload(n=n, f=rec.f,
                                reason="no degree-2 witness found")
    return "pass", None


def _integral_sample(rng, r, s, psi):
    """Coarse-homogeneous sample in s, biased toward members of r."""
    x = reparent(_sample_homogeneous(rng, r, compose(psi, r.delta),
                                     max_terms=3), s)
    if rng.randint(0, 2) == 0:
        return x * Rational(1, 2)
    return x


def _torsion_components_trial(n, bounds):
    grp = FgGroup(0, (n,))
    r, s = _zq_pair(grp)
    psi = GroupHom(grp, FgGroup(0, ()), ())
    f = Element(s, {s.egroup.element((i,)): Rational(1, n) for i in range(n)})
    rep = components_integral_check(r, psi, f, bounds["max_deg"],
                                    bounds["box"])
    if rep.outcome == "only-coarse":
        return "pass", None
    return "fail", _payload(outcome=rep.outcome,
                            reason="torsion idempotent not only-coarse")


def _summand_kernel_instance(rng):
    """(G, psi, kernel gens) with the kernel inside a torsionfree summand."""
    h = _sample_group(rng, max_rank=1)
    ds = direct_sum(FgGroup(1, ()), h)
    g = ds.group
    d = rng.randint(1, 2)
    kgen = d * ds.inj1.apply(FgGroup(1, ()).element((1,)))
    _, proj = quotient_by(g, [kgen])
    return g, proj, [kgen]


def _summand_kernel_trial(rng, bounds, reason):
    """Components check over a kernel inside a torsionfree summand.

    reason is the failure text when the summand criterion rejects it.
    """
    g, psi, kgens = _summand_kernel_instance(rng)
    if not is_in_torsionfree_summand(g, kgens):
        return "fail", _payload(group=str(g), reason=reason)
    r, s = _zq_pair(g)
    x = _integral_sample(rng, r, s, psi)
    rep = components_integral_check(r, psi, x, bounds["max_deg"],
                                    bounds["box"])
    if rep.outcome == "both":
        return "pass", None
    if rep.outcome == "only-coarse":
        return "fail", _payload(outcome=rep.outcome, ring=r.describe(), x=x)
    return "inconclusive", None


def _check_a101(trial, seed, bounds):
    rng = Rng(seed ^ 0xA101)
    if trial % 2 == 1:
        return _torsion_components_trial(_A90_ORDERS[(trial // 2)
                                                     % len(_A90_ORDERS)],
                                         bounds)
    return _summand_kernel_trial(rng, bounds,
                                 "kernel escaped a torsionfree summand")


def _check_a120(trial, seed, bounds):
    rng = Rng(seed ^ 0xA120)
    if trial % 2 == 1:
        n = _A90_ORDERS[(trial // 2) % len(_A90_ORDERS)]
        g = FgGroup(1, (n,))
        tgen = g.element((0, 1))
        if is_in_torsionfree_summand(g, [tgen]):
            return "fail", _payload(group=str(g),
                                    reason="torsion subgroup in a "
                                           "torsionfree summand")
        return _torsion_components_trial(n, bounds)
    return _summand_kernel_trial(rng, bounds, "free kernel not in a summand")


def _check_a140(trial, seed, bounds):
    rng = Rng(seed ^ 0xA140)
    if trial % 2 == 0:
        n = _A140_ORDERS[(trial // 2) % len(_A140_ORDERS)]
        g = FgGroup(1, (n,))
        gen = g.element((n, 1))
        sub, _ = subgroup_generated_by(g, [gen])
        if not sub.is_torsionfree:
            return "fail", _payload(group=str(g), n=n,
                                    reason="witness subgroup has torsion")
        if is_in_torsionfree_summand(g, [gen]):
            return "fail", _payload(group=str(g), n=n,
                                    reason="witness subgroup reported "
                                           "inside a torsionfree summand")
        return "pass", None
    g = FgGroup(rng.randint(1, 3), ())
    gens = [_box_choice(rng, g, 2) for _ in range(rng.randint(1, 2))]
    if is_in_torsionfree_summand(g, gens):
        return "pass", None
    return "fail", _payload(group=str(g),
                            gens=",".join(str(x.coords) for x in gens),
                            reason="subgroup of a torsionfree group "
                                   "not reported contained")


def _shuffled_copy(rng, x):
    items = list(x.terms.items())
    rng.shuffle(items)
    return Element(x.parent, dict(items))


def _check_f20(trial, seed, bounds):
    rng = Rng(seed ^ 0xF20)
    if trial % 2 == 0:
        base = group_algebra(normalize(BaseQ()), FgGroup(0, ()), "fine")
    else:
        base, _ = generate_instance(seed, "simple-full-support")
    struct = laurent_extension(base)
    ring = struct.ring

    def poly(max_deg, monic_top):
        d = rng.randint(0, max_deg)
        e = _box_choice(rng, base.egroup, 1)
        terms = {}
        for k in range(d + 1):
            if k == d or rng.randint(0, 1):
                terms[struct.emb_e.apply(e) + k * struct.z_gen] = \
                    1 if (k == d and monic_top) else _sample_coeff(rng, "Q")
        return Element(ring, terms)

    f = poly(2, monic_top=True)
    g = poly(3, monic_top=False)
    u, v = graded_euclidean_division(struct, f, g)
    if g != u * f + v:
        return "fail", _payload(f=f, g=g, u=u, v=v, reason="g != u*f + v")
    if not v.is_zero and _z_top(struct, v)[0] >= _z_top(struct, f)[0]:
        return "fail", _payload(f=f, g=g, v=v, reason="remainder too large")
    u2, v2 = graded_euclidean_division(struct, _shuffled_copy(rng, f),
                                       _shuffled_copy(rng, g))
    if u2 != u or v2 != v:
        return "fail", _payload(f=f, g=g, reason="division depends on "
                                                 "term processing order")
    return "pass", None


def _check_lem50(trial, seed, bounds):
    nf, psi, (kern, ik) = _instance(seed, "free-summand")
    rng = Rng(seed ^ 0x50)
    fgens = [ik.apply(x) for x in kern.generators()]
    # the instance is built on F + H with psi the second projection, so
    # the intended complement is the canonical second summand; a generic
    # section could pick a complement that is not support-stable
    section = direct_sum(FgGroup(kern.rank, ()), psi.codomain).inj2
    hgens = [section.apply(x) for x in psi.codomain.generators()]
    pair = lem50_iso(nf, fgens, hgens)
    for _ in range(3):
        x = _sample_element(rng, pair.coarse)
        if pair.p.apply(pair.q.apply(x)) != x:
            return "fail", _payload(ring=nf.describe(), x=x,
                                    reason="p(q(x)) != x")
        y = _sample_element(rng, pair.target)
        if pair.q.apply(pair.p.apply(y)) != y:
            return "fail", _payload(ring=nf.describe(), y=y,
                                    reason="q(p(y)) != y")
    a = _sample_element(rng, pair.target)
    b = _sample_element(rng, pair.target)
    if pair.p.apply(a * b) != pair.p.apply(a) * pair.p.apply(b):
        return "fail", _payload(ring=nf.describe(), a=a, b=b,
                                reason="p not multiplicative")
    if pair.p.apply(Element.one(pair.target)) != Element.one(pair.coarse):
        return "fail", _payload(ring=nf.describe(), reason="p not unital")
    hom = _sample_homogeneous(rng, pair.target, pair.target.delta)
    if degree_of(pair.p.apply(hom)) != degree_of(hom):
        return "fail", _payload(ring=nf.describe(), y=hom,
                                reason="p moved the complement degree")
    return "pass", None


def _t4800_ring(rng):
    """Entire, torsionfree-graded, with two exponents over each degree."""
    base = normalize(BaseZ() if rng.randint(0, 1) else BaseQ())
    fine = group_algebra(base, FgGroup(2, ()), "fine")
    return coarsen(fine, GroupHom(fine.ggroup, FgGroup(1, ()), ((1, 1),)))


def _check_t4800(trial, seed, bounds):
    rng = Rng(seed ^ 0x4800)
    r = _t4800_ring(rng)
    psi = GroupHom(r.ggroup, FgGroup(0, ()), ())
    rc = coarsen(r, psi)
    den = _sample_homogeneous(rng, r, r.delta, max_terms=1)
    if rng.randint(0, 1) == 0:
        num = _sample_homogeneous(rng, r, r.delta) * den
    else:
        num = _sample_homogeneous(rng, r, r.delta)
        if rng.randint(0, 1) == 0:
            den = den.scale(2)
    x = Fraction(num, den)
    xc = Fraction(reparent(x.num, rc), reparent(x.den, rc))
    w_fine = find_integral_equation_fraction(r, x, bounds["max_deg"],
                                             bounds["box"])
    w_coarse = find_integral_equation_fraction(rc, xc, bounds["max_deg"],
                                               bounds["box"])
    fine_found = isinstance(w_fine, IntegralityWitness)
    coarse_found = isinstance(w_coarse, IntegralityWitness)
    if fine_found and not coarse_found:
        return "fail", _payload(ring=r.describe(), x=x,
                                fine_degree=w_fine.degree,
                                reason="fine witness with no coarse witness "
                                       "at the same bounds")
    if fine_found and coarse_found:
        return "pass", None
    return "inconclusive", None


_CHECKS = {
    "P70": _check_p70,
    "P80": _check_p80,
    "P90": _check_p90,
    "P100": _check_p100,
    "A80": _check_a80,
    "A90": _check_a90,
    "A101": _check_a101,
    "A120": _check_a120,
    "A140": _check_a140,
    "F20": _check_f20,
    "LEM50": _check_lem50,
    "T4800": _check_t4800,
}

CHECK_IDS = tuple(_CHECKS)


def run_check(cfg):
    """Run the configured trials; merge results in trial-index order.
    A trial that raises a GradalError is recorded as an "error"."""
    _need(cfg, CheckConfig,
          "expected a check config, got {0.__class__.__name__}")
    fn = _CHECKS[cfg.check_id]
    results = []
    errors = []
    counterexample = None
    for trial in range(cfg.trials):
        tseed = _trial_seed(cfg.seed, trial)
        try:
            verdict, payload = fn(trial, tseed, cfg.bounds)
        except GradalError as exc:
            verdict = "error"
            errors.append({"trial": trial, "trial_seed": tseed,
                           "type": type(exc).__name__, "message": str(exc)})
        results.append(verdict)
        if verdict == "fail" and counterexample is None:
            counterexample = {"trial": trial, "trial_seed": tseed}
            counterexample.update(payload or {})
    return CheckReport(
        check_id=cfg.check_id,
        seed=cfg.seed,
        trials=cfg.trials,
        results=results,
        passes=results.count("pass"),
        fails=results.count("fail"),
        inconclusive=results.count("inconclusive"),
        counterexample=counterexample,
        errors=errors,
    )


def report_json(report):
    _need(report, CheckReport,
          "expected a check report, got {0.__class__.__name__}")
    obj = {
        "check_id": report.check_id,
        "seed": report.seed,
        "trials": report.trials,
        "passes": report.passes,
        "fails": report.fails,
        "inconclusive": report.inconclusive,
    }
    if report.counterexample is not None:
        obj["counterexample"] = report.counterexample
    if report.errors:
        obj.update(errors=len(report.errors), first_error=report.errors[0])
    return json.dumps(obj, separators=(",", ":"))
