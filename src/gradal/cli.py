"""Command-line frontend.

A small expression language describes groups, grading homomorphisms,
ring constructions, and elements; subcommands expose classification,
integrality searches, graded division, the torsion idempotent, the
free-summand isomorphism, and the property-check harness.  Output is
line-oriented JSON with exact rationals ("p/q"); --pretty switches to
indented objects.  Exit codes: 0 success, 2 parse or type error, 3
hypothesis violation, 4 check failure, 5 failed self-verification.

Grammar (";"-separated let-bindings may precede any expression):

    group  := gatom ("x" gatom)*
    gatom  := "0" | "Z" ("^" int | "/" int)? | "(" group ")" | name
    hom    := "[" rows "]" (":" group "->" group)? | name
    ring   := ("Z" | "Q" | name | "coarsen(" ring "," hom ")"
               | "restrict(" ring "," gens ")" | "Frac(" ring ")")
              ("[" group "]" ("fine" | "coarse"))*
    gens   := "<" "(" ints ")" ("," "(" ints ")")* ">" | name
    elem   := sign? term (sign term)* | name
              with term := (rat "*")? "e(" ints ")"

Matrix rows are codomain coordinates: entry (i, j) is the i-th
coordinate of the image of the j-th domain generator.  Without an
annotation the domain is the grading group of the ring at hand and the
codomain is free of rank equal to the row count.  Groups are normalized
to invariant-factor form (free coordinates first, then torsion in an
ascending divisibility chain); exponent tuples in homs and elements
refer to the normalized coordinates.

Tokens are the symbols -> [ ] ( ) < > , ; * + - / ^ : =, integers of
ASCII digits 0-9, and words that start with a letter or "_" and go on
with letters, digits or "_"; spaces, tabs, carriage returns and
newlines separate them.  Any other character is a syntax error.

A name means what the latest let before it bound (lets carry over from
--script and from earlier arguments): a later rebinding changes nothing
already written, and evaluation reads the syntax tree alone.  A let
whose value parses as a ring, a bare name included, binds a ring: "let
G = Z;" binds the ring Z, "let G = Z^1;" the group.  The grammar words
Z Q e fine coarse let coarsen restrict Frac cannot be bound.
"""

import argparse
import copy
import json
import re
import sys
from fractions import Fraction as Rational

# closure, element and harness are imported by the subcommands that run
# them, so a cold command compiles only the modules it uses.
from .abelian import (
    FgGroup,
    GroupHom,
    _Record,
    direct_sum,
    find_section,
    is_in_torsionfree_summand,
    quotient_by,
    subgroup_generated_by,
)
from .errors import (
    DslSyntaxError,
    DslTypeError,
    GradalError,
    HypothesisViolatedError,
    InternalInvariantError,
    UnknownCheckIdError,
)
from .ringexpr import (
    BaseQ,
    BaseZ,
    classify,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
    regrade_restrict,
)

__all__ = ["main"]

# Grammar words; a let may not bind them.  "x" is the infix product of
# groups, and a name x still resolves wherever a name is read.
_KEYWORDS = frozenset(("Z", "Q", "e", "fine", "coarse", "let", "coarsen",
                       "restrict", "Frac"))


# --- tokens ---

# The group name is the token kind.  \w also reads digits that are not
# ASCII, so a word must start with a letter or "_".
_TOKEN = re.compile(r"(?P<sym>->|[][()<>,;*+/^:=-])|(?P<int>[0-9]+)"
                    r"|(?P<name>\w+)|(?P<newline>\n)|(?P<blank>[ \t\r]+)"
                    r"|(?P<bad>.)", re.S)


class _Tok(_Record):
    __slots__ = ("kind", "text", "line", "col")  # kind: name, int, sym, end


def _tokenize(text):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad" or (kind == "name" and not (word[0].isalpha()
                                                       or word[0] == "_")):
            raise DslSyntaxError(f"unexpected character {word[0]!r}",
                                 line, col)
        elif kind != "blank":
            toks.append(_Tok(kind, word, line, col))
    toks.append(_Tok("end", "", line, len(text) - line_start + 1))
    return toks


# --- syntax trees (spans, (line, first col, end col), feed error reports) ---

class GroupAst(_Record):
    # kind: zero, free, torsion, prod
    __slots__ = ("kind", "span", "n", "left", "right")


class HomAst(_Record):
    __slots__ = ("rows", "dom", "cod", "span", "mat_span")


class GensAst(_Record):
    __slots__ = ("tuples", "span", "tuple_spans")


class ElemAst(_Record):
    # terms: ((num, den, coords), ...), sign folded into num
    __slots__ = ("terms", "span", "term_spans")


class RingAst(_Record):
    # kind: Z, Q, algebra, coarsen, restrict, frac
    __slots__ = ("kind", "span", "inner", "group", "alg_kind", "hom", "gens")


class RefAst(_Record):
    """A name that is unbound, or bound to another kind, where it is
    written; evaluating it reports "'name' is not a bound kind"."""

    __slots__ = ("name", "kind", "span")


def _unbound(node):
    return DslTypeError(f"{node.name!r} is not a bound {node.kind}",
                        (node.span,))


class _Parser:
    """Recursive descent with a lexical scope: a name resolves, when it is
    read, to the AST that the latest let before it bound."""

    def __init__(self, text, scope):
        self.toks = _tokenize(text)
        self.pos = 0
        self.last_end = 1
        self.scope = dict(scope)  # name -> (kind, AST)

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
            self.last_end = t.col + len(t.text)
        return t

    def accept(self, text):
        """Read the next token if its text is text; whether it was."""
        if self.peek().text != text:
            return False
        self.next()
        return True

    def expect(self, text):
        if not self.accept(text):
            self.fail(f"expected {text!r}")

    def at_end(self):
        return self.peek().kind == "end"

    def fail(self, msg):
        t = self.peek()
        raise DslSyntaxError(msg + f", found {t.text or 'end'!r}",
                             t.line, t.col)

    def mark(self):
        t = self.peek()
        return (t.line, t.col)

    def close(self, mark):
        return (mark[0], mark[1], self.last_end)

    def ref(self, kind, *reserved):
        """If the next token is a name outside reserved, read it: the AST
        bound to it as a kind, with the name's span, else a RefAst."""
        t = self.peek()
        if t.kind != "name" or t.text in reserved:
            return None
        mark = self.mark()
        self.next()
        return self.resolve(RefAst(t.text, kind, self.close(mark)))

    def resolve(self, ref):
        """The AST bound to ref's name as ref's kind, copied to report
        errors at ref's span; ref itself when there is none."""
        bound = self.scope.get(ref.name)
        if bound is None or bound[0] != ref.kind:
            return ref
        node = copy.copy(bound[1])
        node.span = ref.span
        return node

    # groups

    def group(self):
        mark = self.mark()
        node = self.gatom()
        while self.accept("x"):
            node = GroupAst("prod", left=node, right=self.gatom(),
                            span=self.close(mark))
        return node

    def gatom(self):
        ref = self.ref("group", "Z")
        if ref is not None:
            return ref
        mark = self.mark()
        if self.accept("0"):
            return GroupAst("zero", span=self.close(mark))
        if self.accept("("):
            node = self.group()
            self.expect(")")
            return node
        if self.accept("Z"):
            if self.accept("^"):
                return GroupAst("free", n=self.int_lit(),
                                span=self.close(mark))
            if self.accept("/"):
                return GroupAst("torsion", n=self.int_lit(),
                                span=self.close(mark))
            return GroupAst("free", n=1, span=self.close(mark))
        self.fail("expected a group")

    def int_lit(self):
        neg = self.accept("-")
        if self.peek().kind != "int":
            self.fail("expected an integer")
        n = int(self.next().text)
        return -n if neg else n

    def ints(self, opening, closing):
        """A bracketed, comma-separated, possibly empty integer tuple."""
        self.expect(opening)
        out = []
        if self.peek().text != closing:
            out.append(self.int_lit())
            while self.accept(","):
                out.append(self.int_lit())
        self.expect(closing)
        return tuple(out)

    # homs

    def hom(self):
        mark = self.mark()
        self.expect("[")
        rows = []
        if self.peek().text == "[":
            rows.append(self.ints("[", "]"))
            while self.accept(","):
                rows.append(self.ints("[", "]"))
        self.expect("]")
        mat_span = self.close(mark)
        dom = cod = None
        if self.accept(":"):
            dom = self.group()
            self.expect("->")
            cod = self.group()
        return HomAst(tuple(rows), dom, cod,
                      span=self.close(mark), mat_span=mat_span)

    # generator lists

    def gens(self):
        ref = self.ref("gens")
        if ref is not None:
            return ref
        mark = self.mark()
        self.expect("<")
        spans = []
        tuples = [self.coord_tuple(spans)]
        while self.accept(","):
            tuples.append(self.coord_tuple(spans))
        self.expect(">")
        return GensAst(tuple(tuples), span=self.close(mark),
                       tuple_spans=tuple(spans))

    def coord_tuple(self, spans=None):
        mark = self.mark()
        coords = self.ints("(", ")")
        if spans is not None:
            spans.append(self.close(mark))
        return coords

    # rings

    def ring(self):
        mark = self.mark()
        node = self.ratom()
        while self.accept("["):
            grp = self.group()
            self.expect("]")
            if self.peek().text not in ("fine", "coarse"):
                self.fail("expected 'fine' or 'coarse'")
            node = RingAst("algebra", inner=node, group=grp,
                           alg_kind=self.next().text,
                           span=self.close(mark))
        return node

    def ratom(self):
        mark = self.mark()
        t = self.peek()
        if t.text in ("Z", "Q"):
            self.next()
            return RingAst(t.text, span=self.close(mark))
        if self.accept("coarsen"):
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            h = self.ref("hom", "fine", "coarse", "let") or self.hom()
            self.expect(")")
            return RingAst("coarsen", inner=inner, hom=h,
                           span=self.close(mark))
        if self.accept("restrict"):
            self.expect("(")
            inner = self.ring()
            self.expect(",")
            g = self.gens()
            self.expect(")")
            return RingAst("restrict", inner=inner, gens=g,
                           span=self.close(mark))
        if self.accept("Frac"):
            self.expect("(")
            inner = self.ring()
            self.expect(")")
            return RingAst("frac", inner=inner, span=self.close(mark))
        ref = self.ref("ring")
        if ref is None:
            self.fail("expected a ring")
        return ref

    # elements

    def elem(self):
        ref = self.ref("elem", "e")
        if ref is not None:
            return ref
        mark = self.mark()
        terms = []
        spans = []
        sign = 1
        if self.peek().text in ("+", "-"):
            sign = -1 if self.next().text == "-" else 1
        terms.append(self.elem_term(sign, spans))
        while self.peek().text in ("+", "-"):
            sign = -1 if self.next().text == "-" else 1
            terms.append(self.elem_term(sign, spans))
        return ElemAst(tuple(terms), span=self.close(mark),
                       term_spans=tuple(spans))

    def elem_term(self, sign, spans):
        mark = self.mark()
        t = self.peek()
        num, den = 1, 1
        if t.kind == "int":
            num = int(self.next().text)
            if self.accept("/"):
                if self.peek().kind != "int":
                    self.fail("expected a denominator")
                den = int(self.next().text)
            self.expect("*")
        self.expect("e")
        coords = self.coord_tuple()
        spans.append(self.close(mark))
        return (sign * num, den, coords)

    # scripts

    def lets(self):
        """Bind each let into the scope; return the ring and group values,
        which are evaluated once the whole text parses."""
        eager = []
        while self.accept("let"):
            if self.peek().kind != "name":
                self.fail("expected a name after let")
            name = self.next()
            if name.text in _KEYWORDS:
                raise DslSyntaxError(f"{name.text!r} is a keyword and "
                                     "cannot be bound", name.line, name.col)
            self.expect("=")
            kind, value = self.let_value()
            self.scope[name.text] = (kind, value)
            if kind in ("ring", "group"):
                eager.append((kind, value))
            self.expect(";")
        return eager

    def let_value(self):
        """(kind, AST) of the first of hom, gens, ring, group and element
        that reads the whole value.  A name left unresolved binds a ring,
        which reports "'name' is not a bound ring" when evaluated.  When
        none reads it, the syntax error is that of the production that
        read furthest (the later one on a tie)."""
        t = self.peek()
        if t.text == "[":
            return "hom", self.hom()
        if t.text == "<":
            return "gens", self.gens()
        start = self.pos
        furthest = None
        for kind, production in (("ring", self.ring), ("group", self.group),
                                 ("elem", self.elem)):
            self.pos = start
            try:
                node = production()
                if not (self.peek().text == ";" or self.at_end()):
                    self.expect(";")
            except DslSyntaxError as exc:
                if furthest is None or ((exc.line, exc.col)
                                        >= (furthest.line, furthest.col)):
                    furthest = exc
                continue
            if isinstance(node, RefAst):
                return "ring", self.resolve(RefAst(node.name, "ring",
                                                   node.span))
            return kind, node
        raise furthest


def _parse(text, scope, goal=None):
    """Parse let-bindings, then the goal expression (a _Parser method; a
    --script file has none).  Returns the goal's AST and the scope with
    the lets added.  Ring and group lets are evaluated here, in order, so
    that their errors show at the let even when nothing uses them."""
    p = _Parser(text, scope)
    eager = p.lets()
    node = goal(p) if goal is not None else None
    if not p.at_end():
        p.fail("trailing input" if goal is not None
               else "script files may only contain let-bindings")
    for kind, value in eager:
        (_eval_ring if kind == "ring" else _eval_group)(value)
    return node, p.scope


# --- evaluation (a pure function of the AST: names resolved when parsed) ---

def _eval_group(node):
    if isinstance(node, RefAst):
        raise _unbound(node)
    if node.kind == "zero":
        return FgGroup(0, ())
    if node.kind == "free":
        if node.n < 0:
            raise DslTypeError("negative rank", (node.span,))
        return FgGroup(node.n, ())
    if node.kind == "torsion":
        if node.n < 2:
            raise DslTypeError(f"Z/{node.n} needs a modulus of at least 2",
                               (node.span,))
        return FgGroup(0, (node.n,))
    return direct_sum(_eval_group(node.left), _eval_group(node.right)).group


def _eval_hom(node, domain, ring_span):
    if isinstance(node, RefAst):
        raise _unbound(node)
    dom = domain
    if node.dom is not None:
        dom = _eval_group(node.dom)
        if dom != domain:
            raise DslTypeError(
                f"hom domain {dom} does not match the ring grading {domain}",
                (node.dom.span, ring_span))
    cod = (_eval_group(node.cod) if node.cod is not None
           else FgGroup(len(node.rows), ()))
    if len(node.rows) != cod.dim:
        spans = ((node.mat_span,) if node.cod is None
                 else (node.mat_span, node.cod.span))
        raise DslTypeError(
            f"matrix has {len(node.rows)} rows, codomain needs {cod.dim}",
            spans)
    for row in node.rows:
        if len(row) != dom.dim:
            spans = ((node.mat_span,) if node.dom is None
                     else (node.mat_span, node.dom.span))
            raise DslTypeError(
                f"matrix row {row} has {len(row)} entries, "
                f"domain needs {dom.dim}", spans)
    try:
        return GroupHom(dom, cod, node.rows)
    except GradalError as exc:
        raise DslTypeError(f"matrix is not a homomorphism: {exc}",
                           (node.mat_span,))


def _eval_gens(node, group):
    if isinstance(node, RefAst):
        raise _unbound(node)
    out = []
    for t, span in zip(node.tuples, node.tuple_spans):
        if len(t) != group.dim:
            raise DslTypeError(
                f"generator {t} has {len(t)} coordinates, "
                f"the group {group} needs {group.dim}", (span,))
        out.append(group.element(t))
    return out


def _eval_elem(node, nf):
    from .element import Element
    if isinstance(node, RefAst):
        raise _unbound(node)
    terms = {}
    e = nf.egroup
    for (num, den, coords), span in zip(node.terms, node.term_spans):
        if len(coords) != e.dim:
            raise DslTypeError(
                f"exponent {coords} has {len(coords)} coordinates, "
                f"the exponent group {e} needs {e.dim}", (span,))
        if den == 0:
            raise DslTypeError("zero denominator in a coefficient", (span,))
        c = Rational(num, den)
        if nf.base == "Z":
            if c.denominator != 1:
                raise DslTypeError(
                    f"coefficient {num}/{den} is not an integer, "
                    "the ring has integer coefficients", (span,))
        f = e.element(coords)
        terms[f] = terms.get(f, 0) + c
    return Element(nf, terms)


def _eval_ring(node):
    if isinstance(node, RefAst):
        raise _unbound(node)
    if node.kind in ("Z", "Q"):
        return normalize(BaseZ() if node.kind == "Z" else BaseQ())
    inner = _eval_ring(node.inner)
    if node.kind == "algebra":
        return group_algebra(inner, _eval_group(node.group), node.alg_kind)
    if node.kind == "coarsen":
        return coarsen(inner, _eval_hom(node.hom, inner.ggroup,
                                        node.inner.span))
    if node.kind == "restrict":
        return regrade_restrict(inner, _eval_gens(node.gens, inner.ggroup))
    return fraction_field(inner)


def _ring_arg(text, scope):
    """The ring, its AST and the scope its lets extend."""
    node, scope = _parse(text, scope, _Parser.ring)
    return _eval_ring(node), node, scope


def _elem_arg(text, nf, scope):
    node, _ = _parse(text, scope, _Parser.elem)
    return _eval_elem(node, nf)


def _inclusion_args(args, scope):
    """The subring, the ring and the element of integrality and almost."""
    r, _, scope = _ring_arg(args.subring, scope)
    s, _, scope = _ring_arg(args.ring, scope)
    return r, s, _elem_arg(args.elem, s, scope)


def _coords_str(x):
    return "(" + ",".join(str(v) for v in x.coords) + ")"


# --- subcommands ---

def _cmd_classify(args, scope):
    nf, _, _ = _ring_arg(args.ring, scope)
    cls = classify(nf)
    return [{
        "ring": nf.describe(),
        "entire": cls.entire,
        "simple": cls.simple,
        "noetherian": cls.noetherian,
        "support": str(cls.support),
        "full_support": cls.full_support,
    }]


def _cmd_components(args, scope):
    from .element import homogeneous_components
    nf, _, scope = _ring_arg(args.ring, scope)
    x = _elem_arg(args.elem, nf, scope)
    out = []
    for deg, part in homogeneous_components(x).items():
        out.append({"degree": _coords_str(deg), "element": str(part)})
    if not out:
        out.append({"degree": None, "element": "0"})
    return out


def _cmd_integrality(args, scope):
    from .closure import IntegralityWitness, find_integral_equation, witness_str
    r, s, x = _inclusion_args(args, scope)
    res = find_integral_equation(r, s, x, args.max_deg, args.box)
    if isinstance(res, IntegralityWitness):
        return [{"found": True, "degree": res.degree,
                 "witness": witness_str(res)}]
    return [{"found": False, "max_deg": res.max_deg, "box": res.box}]


def _cmd_almost(args, scope):
    from .closure import AlmostIntegralWitness, find_almost_integral_witness
    r, s, x = _inclusion_args(args, scope)
    res = find_almost_integral_witness(r, s, x, args.kmax, args.box)
    if isinstance(res, AlmostIntegralWitness):
        return [{"found": True, "k": res.k,
                 "combination": [str(c) for c in res.combination]}]
    return [{"found": False, "k_max": res.k_max, "box": res.box}]


def _cmd_divide(args, scope):
    from .closure import graded_euclidean_division, laurent_extension
    _, ast, scope = _ring_arg(args.ring, scope)
    if not (ast.kind == "algebra" and ast.alg_kind == "coarse"
            and _eval_group(ast.group) == FgGroup(1, ())):
        raise HypothesisViolatedError(
            "divide needs a ring written as R[Z]coarse")
    struct = laurent_extension(_eval_ring(ast.inner))
    f = _elem_arg(args.f, struct.ring, scope)
    g = _elem_arg(args.g, struct.ring, scope)
    u, v = graded_euclidean_division(struct, f, g)
    return [{"u": str(u), "v": str(v)}]


def _idempotent_fields(n):
    """The torsion idempotent record and its five printed fields."""
    from .closure import torsion_idempotent, witness_str
    rec = torsion_idempotent(n)
    return rec, {"n": rec.n, "f": str(rec.f), "c": str(rec.c),
                 "d": str(rec.d), "witness": witness_str(rec.witness)}


def _cmd_idempotent(args, scope):
    rec, out = _idempotent_fields(args.n)
    out.update(idempotent=rec.f * rec.f == rec.f, in_integer_ring=False,
               witness_verified=True)
    return [out]


def _cmd_iso_lem50(args, scope):
    from .closure import lem50_iso
    nf, _, scope = _ring_arg(args.ring, scope)
    node, _ = _parse(args.subgroup, scope, _Parser.gens)
    fgens = _eval_gens(node, nf.ggroup)
    _, proj = quotient_by(nf.ggroup, fgens)
    section = find_section(proj)
    if section is None:
        raise HypothesisViolatedError(
            "the subgroup is not a direct summand; no complement exists")
    hgens = [section.apply(x) for x in proj.codomain.generators()]
    pair = lem50_iso(nf, fgens, hgens)
    return [{
        "coarse": pair.coarse.describe(),
        "target": pair.target.describe(),
        "p_exponent_matrix": [list(r) for r in pair.p.exponent_map.matrix],
        "q_exponent_matrix": [list(r) for r in pair.q.exponent_map.matrix],
    }]


def _cmd_check(args, scope):
    from .harness import CheckConfig, report_json, run_check
    report = run_check(CheckConfig(args.check_id, args.trials, args.seed))
    return [json.loads(report_json(report))]


def _demo_a90(n):
    _, out = _idempotent_fields(n)
    out.update(witness_verified=True,
               conclusion=f"Z[Z/{n}]_[0] is NOT integrally closed "
                          f"in Q[Z/{n}]_[0]")
    return [out]


def _demo_a140():
    out = []
    for n in (2, 3, 4):
        g = FgGroup(1, (n,))
        gen = g.element((n, 1))
        sub, _ = subgroup_generated_by(g, [gen])
        out.append({
            "n": n,
            "group": str(g),
            "generator": _coords_str(gen),
            "subgroup_torsionfree": sub.is_torsionfree,
            "in_torsionfree_summand": is_in_torsionfree_summand(g, [gen]),
        })
    return out


def _demo_p90():
    from .element import Element, ZeroDivisor, nzd_test
    good = group_algebra(normalize(BaseQ()), FgGroup(2, ()), "fine")
    psi = GroupHom(good.ggroup, FgGroup(1, ()), ((1, 1),))
    entire_side = {
        "ring": good.describe(),
        "kernel": "Z",
        "kernel_torsionfree": True,
        "coarse_entire": classify(coarsen(good, psi)).entire,
    }
    bad = group_algebra(normalize(BaseQ()), FgGroup(0, (2,)), "fine")
    psi2 = GroupHom(bad.ggroup, FgGroup(0, ()), ())
    rc = coarsen(bad, psi2)
    x = Element(rc, {rc.egroup.element((1,)): 1,
                     rc.egroup.element((0,)): -1})
    res = nzd_test(x)
    torsion_side = {
        "ring": bad.describe(),
        "kernel": "Z/2",
        "kernel_torsionfree": False,
        "coarse_entire": classify(rc).entire,
        "zero_divisor": str(x),
        "annihilator": str(res.annihilator) if isinstance(res, ZeroDivisor)
        else None,
    }
    return [entire_side, torsion_side]


def _cmd_demo(args, scope):
    if args.which == "a90":
        return _demo_a90(args.n)
    if args.which == "a140":
        return _demo_a140()
    return _demo_p90()


def _parser():
    p = argparse.ArgumentParser(
        prog="gradal",
        description="exact computations in graded commutative rings")
    p.add_argument("--pretty", action="store_true",
                   help="indent JSON output")
    p.add_argument("--script", metavar="FILE",
                   help="load let-bindings from FILE ('-' for stdin)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="entire/simple/noetherian flags")
    c.add_argument("ring")
    c.set_defaults(fn=_cmd_classify)

    c = sub.add_parser("components", help="homogeneous components")
    c.add_argument("ring")
    c.add_argument("elem")
    c.set_defaults(fn=_cmd_components)

    c = sub.add_parser("integrality", help="search a monic equation")
    c.add_argument("subring")
    c.add_argument("ring")
    c.add_argument("elem")
    c.add_argument("--max-deg", type=int, default=3)
    c.add_argument("--box", type=int, default=3)
    c.set_defaults(fn=_cmd_integrality)

    c = sub.add_parser("almost", help="search an almost-integrality witness")
    c.add_argument("subring")
    c.add_argument("ring")
    c.add_argument("elem")
    c.add_argument("--kmax", type=int, default=2)
    c.add_argument("--box", type=int, default=3)
    c.set_defaults(fn=_cmd_almost)

    c = sub.add_parser("divide",
                       help="graded euclidean division in R[Z]coarse")
    c.add_argument("ring")
    c.add_argument("f")
    c.add_argument("g")
    c.set_defaults(fn=_cmd_divide)

    c = sub.add_parser("idempotent", help="the order-n torsion idempotent")
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(fn=_cmd_idempotent)

    c = sub.add_parser("iso-lem50", help="split a free grading summand")
    c.add_argument("ring")
    c.add_argument("subgroup")
    c.set_defaults(fn=_cmd_iso_lem50)

    c = sub.add_parser("check", help="run a named property check")
    c.add_argument("check_id")
    c.add_argument("--trials", type=int, default=24)
    c.add_argument("--seed", type=int, default=2024)
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("demo", help="fixed worked examples")
    c.add_argument("which", choices=("a90", "a140", "p90"))
    c.add_argument("--n", type=int, default=2)
    c.set_defaults(fn=_cmd_demo)

    return p


def _emit(objects, pretty):
    """Each subcommand builds JSON-native objects: str keys, lists, and
    rationals already written as strings."""
    for obj in objects:
        if pretty:
            print(json.dumps(obj, indent=2))
        else:
            print(json.dumps(obj, separators=(",", ":")))


def _error_json(kind, exc):
    obj = {"error": kind, "message": str(exc)}
    if isinstance(exc, DslSyntaxError):
        obj["line"] = exc.line
        obj["col"] = exc.col
    if isinstance(exc, DslTypeError) and exc.spans:
        obj["spans"] = [list(s) for s in exc.spans]
    print(json.dumps(obj, separators=(",", ":")), file=sys.stderr)


def main(argv=None):
    args = _parser().parse_args(argv)
    scope = {}
    try:
        if args.script:
            try:
                if args.script == "-":
                    text = sys.stdin.read()
                else:
                    with open(args.script, encoding="utf-8") as fh:
                        text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                _error_json("script", exc)
                return 2
            _, scope = _parse(text, scope)
        result = args.fn(args, scope)
    except (DslSyntaxError, DslTypeError, UnknownCheckIdError) as exc:
        _error_json("parse-or-type", exc)
        return 2
    except InternalInvariantError as exc:
        _error_json("internal", exc)
        return 5
    except GradalError as exc:
        _error_json("hypothesis", exc)
        return 3
    _emit(result, args.pretty)
    if args.command == "check" and (result[0]["fails"] or result[0].get("errors")):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
