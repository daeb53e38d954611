"""Command line surface: golden outputs, exit codes, DSL parsing and
name binding."""

import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings

import pytest
from _oracles import tokenize_by_characters

import gradal.cli as cli
import gradal.closure as closure
import gradal.harness as harness
from gradal.abelian import FgGroup
from gradal.cli import main
from gradal.errors import DslSyntaxError, GradalError
from gradal.ringexpr import BaseQ, group_algebra, normalize

GOLDEN = pathlib.Path(__file__).parent / "golden"
# subprocesses find the package in the checkout, installed or not
ENV = dict(os.environ,
           PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent
                          / "src"))


def run_main(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


# --- golden outputs, byte for byte ---

CLASSIFY_RINGS = (
    "Q[Z/2]coarse",
    "Z[Z]fine",
    "Frac(Q[Z]fine)",
    "coarsen(Q[Z^2]fine, [[1,1]]: Z^2 -> Z)",
    "restrict(Q[Z]fine, <(2)>)",
)


def test_golden_classify(capsys):
    out = ""
    for ring in CLASSIFY_RINGS:
        rc, o, _ = run_main(capsys, "classify", ring)
        assert rc == 0
        out += o
    assert out == golden("classify_rings.txt")


@pytest.mark.parametrize("name,argv", [
    ("demo_a90_n2.json", ("demo", "a90", "--n", "2")),
    ("demo_a140.json", ("demo", "a140")),
    ("demo_p90.json", ("demo", "p90")),
    ("check_p70.json", ("check", "P70", "--trials", "6", "--seed", "11")),
    ("divide_example.json",
     ("divide", "Q[Z]coarse", "e(1)-e(0)", "e(2)+e(0)")),
    ("integrality_idempotent.json",
     ("integrality", "Z[Z/2]coarse", "Q[Z/2]coarse", "1/2*e(0)+1/2*e(1)")),
])
def test_golden_outputs(capsys, name, argv):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 0
    assert err == ""
    assert out == golden(name)


# --- exit codes and error JSON ---

def test_syntax_error_exit_2(capsys):
    rc, out, err = run_main(capsys, "classify", "Q[")
    assert rc == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "parse-or-type"
    assert obj["line"] == 1 and isinstance(obj["col"], int)


def test_type_error_exit_2_with_spans(capsys):
    rc, out, err = run_main(capsys, "components", "Q[Z]fine", "e(1,2)")
    assert rc == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "parse-or-type"
    assert obj["spans"] and all(len(s) == 3 for s in obj["spans"])


@pytest.mark.parametrize("argv,message,spans", [
    (("classify", "Q[Z^-1]fine"), "negative rank", [[1, 3, 7]]),
    (("classify", "Q[Z/1]fine"), "Z/1 needs a modulus of at least 2",
     [[1, 3, 6]]),
    (("classify", "coarsen(Q[Z]fine,[[1,1]])"),
     "matrix row (1, 1) has 2 entries, domain needs 1", [[1, 18, 25]]),
    (("classify", "coarsen(Q[Z]fine,[[1]]:Z^2->Z)"),
     "hom domain Z^2 does not match the ring grading Z",
     [[1, 24, 27], [1, 9, 17]]),
    (("classify", "coarsen(Q[Z]fine,[[1],[1]]:Z->Z)"),
     "matrix has 2 rows, codomain needs 1", [[1, 18, 27], [1, 31, 32]]),
    (("classify", "coarsen(Q[Z/2]fine,[[1]]:Z/2->Z)"),
     "matrix is not a homomorphism: generator of order 2 maps to an "
     "element of infinite order", [[1, 20, 25]]),
    (("classify", "restrict(Q[Z]fine,<(1,2)>)"),
     "generator (1, 2) has 2 coordinates, the group Z needs 1",
     [[1, 20, 25]]),
    (("components", "Z[Z]fine", "1/2*e(1)"),
     "coefficient 1/2 is not an integer, the ring has integer "
     "coefficients", [[1, 1, 9]]),
    (("components", "Q[Z]fine", "1/0*e(1)"),
     "zero denominator in a coefficient", [[1, 1, 9]]),
    (("components", "Q[Z]fine", "e(1,2)"),
     "exponent (1, 2) has 2 coordinates, the exponent group Z needs 1",
     [[1, 1, 7]]),
    (("classify", "coarsen(Q[Z]fine, psi)"), "'psi' is not a bound hom",
     [[1, 19, 22]]),
    (("classify", "restrict(Q[Z]fine, S)"), "'S' is not a bound gens",
     [[1, 20, 21]]),
])
def test_typed_errors_exit_2_with_their_spans(capsys, argv, message, spans):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 2 and out == ""
    where = " ".join(f"[{ln}:{a}-{b}]" for ln, a, b in spans)
    assert json.loads(err) == {"error": "parse-or-type",
                               "message": f"{message} at {where}",
                               "spans": spans}


def test_hypothesis_error_exit_3(capsys):
    rc, out, err = run_main(capsys, "divide", "Q[Z]fine",
                            "e(1)-e(0)", "e(2)+e(0)")
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "hypothesis"


@pytest.mark.parametrize("argv", [
    ("integrality", "Z[Z]fine", "Q[Z]fine", "e(1)", "--box", "-1"),
    ("integrality", "Z[Z]fine", "Q[Z]fine", "e(1)", "--max-deg", "0"),
    ("integrality", "Z[Z]fine", "Q[Z]fine", "e(1)", "--max-deg", "-2"),
    ("almost", "Z[Z]fine", "Q[Z]fine", "e(1)", "--kmax", "-1"),
    ("almost", "Z[Z]fine", "Q[Z]fine", "e(1)", "--box", "-1"),
])
def test_bounds_that_describe_no_search_exit_3(capsys, argv):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "hypothesis"


@pytest.mark.parametrize("box,message", [
    ("10", "a 9261 x 9261 system of 85766121 entries exceeds the limit of "
           "10000000"),
    ("20", "a 68921 x 68921 system of 4750104241 entries exceeds the limit "
           "of 10000000"),
    ("200", "a search over 64481201 candidates exceeds the limit of "
            "1000000; lower max_deg or box"),
])
def test_oversized_searches_are_refused_exit_3(capsys, box, message):
    """A search too large to list, or a system too large to allocate,
    is refused up front, before memory or time is spent on it."""
    start = time.perf_counter()
    rc, out, err = run_main(capsys, "integrality", "Z[Z^3]coarse",
                            "Q[Z^3]coarse", "e(0,0,0)", "--box", box)
    assert time.perf_counter() - start < 1
    assert rc == 3 and out == ""
    assert json.loads(err) == {"error": "hypothesis", "message": message}


def test_largest_searches_still_run(capsys):
    """The 961 x 961 system of a rank-2 box of radius 15 is in bounds."""
    rc, out, err = run_main(capsys, "integrality", "Z[Z^2]coarse",
                            "Q[Z^2]coarse", "e(0,0)", "--box", "15")
    assert rc == 0 and err == ""
    assert json.loads(out) == {"found": True, "degree": 1,
                               "witness": "monic 1; a1 = -e(0,0)"}


def test_smallest_bounds_still_search(capsys):
    rc, out, err = run_main(capsys, "integrality", "Z[Z]fine", "Q[Z]fine",
                            "e(1)", "--max-deg", "1", "--box", "1")
    assert rc == 0 and err == "" and json.loads(out)["found"] is True
    rc, out, err = run_main(capsys, "almost", "Z[Z]fine", "Q[Z]fine",
                            "e(1)", "--kmax", "0", "--box", "0")
    assert rc == 0 and err == "" and json.loads(out)["found"] is False


def test_almost_output(capsys):
    rc, out, err = run_main(capsys, "almost", "Z[Z/2]coarse", "Q[Z/2]coarse",
                            "1/2*e(0)+1/2*e(1)")
    assert rc == 0 and err == ""
    assert out == '{"found":true,"k":1,"combination":["0","e(0)"]}\n'


def test_components_output(capsys):
    rc, out, err = run_main(capsys, "components", "Z[Z]fine", "e(1)+2*e(0)")
    assert rc == 0 and err == ""
    assert out == ('{"degree":"(0)","element":"2*e(0)"}\n'
                   '{"degree":"(1)","element":"e(1)"}\n')


def test_idempotent_output(capsys):
    rc, out, err = run_main(capsys, "idempotent", "--n", "3")
    assert rc == 0 and err == ""
    assert out == (
        '{"n":3,"f":"1/3*e(0)+1/3*e(1)+1/3*e(2)","c":"e(0)+2*e(2)",'
        '"d":"e(0)+e(1)+e(2)",'
        '"witness":"monic 2; a1 = 2*e(2); a2 = -e(0)-e(1)-e(2)",'
        '"idempotent":true,"in_integer_ring":false,"witness_verified":true}\n')
    rc, out, err = run_main(capsys, "idempotent", "--n", "1")
    assert rc == 3 and out == ""
    assert json.loads(err) == {"error": "hypothesis",
                               "message": "need n >= 2, got 1"}


@pytest.mark.parametrize("argv", [("idempotent", "--n"),
                                  ("demo", "a90", "--n")])
def test_idempotent_order_is_bounded(capsys, argv):
    """The construction is quadratic in n: 256 is the largest order run,
    and larger ones are refused up front with exit 3."""
    rc, out, err = run_main(capsys, *argv, "256")
    assert rc == 0 and err == ""
    assert json.loads(out)["n"] == 256
    for n in ("257", "10000000"):
        rc, out, err = run_main(capsys, *argv, n)
        assert rc == 3 and out == ""
        assert json.loads(err) == {"error": "hypothesis",
                                   "message": f"need n <= 256, got {n}"}


@pytest.mark.parametrize("ring", ["Q[Z^\u00b2]fine", "Q[Z^\u0663]fine",
                                  "Q[Z/\uff12]fine"])
def test_non_ascii_digits_exit_2(capsys, ring):
    rc, out, err = run_main(capsys, "classify", ring)
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse-or-type"
    assert "unexpected character" in payload["message"]


def _tokens_or_error(tokenize, text):
    try:
        return [t if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col)
                for t in tokenize(text)]
    except DslSyntaxError as exc:
        return (str(exc), exc.line, exc.col)


def test_tokenizer_agrees_with_the_character_scanner():
    """The regular-expression scanner gives the tokens, positions and
    errors of a loop over characters, on random strings mixing the
    DSL's symbols with characters that \\w reads but a word may not
    start with, and with blanks no token allows."""
    alphabet = (list("[]()<>,;*+-/^:=") + ["->", "x", "e", "Z", "ab", "_",
                "0", "12", " ", "\t", "\r", "\n", "\f", "\u00b2",
                "\u0663", "\uff12", "\u01c5", "\u0301", "\u00e9", "#"])
    rng = random.Random(17)
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 12)))
        assert (_tokens_or_error(cli._tokenize, text)
                == _tokens_or_error(tokenize_by_characters, text)), text


def test_iso_lem50_non_summand_exit_3(capsys):
    rc, _, err = run_main(capsys, "iso-lem50", "Q[Z^2]fine", "<(2,0)>")
    assert rc == 3
    assert json.loads(err)["error"] == "hypothesis"


def test_iso_lem50_success(capsys):
    rc, out, _ = run_main(capsys, "iso-lem50", "Q[Z^2]fine", "<(1,0)>")
    assert rc == 0
    obj = json.loads(out)
    assert obj["p_exponent_matrix"] == [[0, 1], [1, 0]]
    assert obj["q_exponent_matrix"] == [[0, 1], [1, 0]]
    assert obj["coarse"] == "Q[Z^2] graded by Z"


def test_unknown_check_id_exit_2(capsys):
    rc, _, err = run_main(capsys, "check", "NOPE", "--trials", "2")
    assert rc == 2
    assert json.loads(err)["error"] == "parse-or-type"


def test_check_failure_exit_4(capsys, monkeypatch):
    monkeypatch.setitem(harness._CHECKS, "P70",
                        lambda trial, seed, bounds: ("fail", {"bad": trial}))
    rc, out, _ = run_main(capsys, "check", "P70", "--trials", "2",
                          "--seed", "1")
    assert rc == 4
    obj = json.loads(out)
    assert obj["fails"] == 2
    assert obj["counterexample"]["trial"] == 0


def test_failed_self_verification_exit_5(capsys, monkeypatch):
    """A witness that fails its own verification is a bug, not a
    violated hypothesis: a swapped or broken solver shows up as exit 5."""
    monkeypatch.setattr(closure, "verify_integral_witness",
                        lambda *args: False)
    rc, out, err = run_main(capsys, "integrality", "Z[Z/2]coarse",
                            "Q[Z/2]coarse", "1/2*e(0)+1/2*e(1)")
    assert rc == 5 and out == ""
    obj = json.loads(err)
    assert obj == {"error": "internal",
                   "message": "witness failed its own verification"}


def test_check_error_exit_4(capsys, monkeypatch):
    def fake(trial, seed, bounds):
        if trial == 1:
            raise GradalError("planted")
        return "pass", None

    monkeypatch.setitem(harness._CHECKS, "P70", fake)
    rc, out, _ = run_main(capsys, "check", "P70", "--trials", "3",
                          "--seed", "1")
    assert rc == 4
    obj = json.loads(out)
    assert obj["passes"] == 2 and obj["fails"] == 0 and obj["errors"] == 1
    assert obj["first_error"]["trial"] == 1
    assert obj["first_error"]["trial_seed"] == harness._trial_seed(1, 1)


def test_explicit_seed_beats_env(capsys, monkeypatch):
    """The environment does not set the seed: check defaults to 2024
    with GRADAL_SEED set, and only --seed moves it."""
    monkeypatch.setenv("GRADAL_SEED", "99")
    rc, out, _ = run_main(capsys, "check", "A90", "--trials", "4")
    assert rc == 0
    assert json.loads(out)["seed"] == 2024
    rc, out, _ = run_main(capsys, "check", "A90", "--trials", "4",
                          "--seed", "7")
    assert rc == 0
    assert json.loads(out)["seed"] == 7


# --- global flags ---

def test_pretty_matches_compact(capsys):
    rc, compact, _ = run_main(capsys, "classify", "Q[Z]fine")
    rc2, pretty, _ = run_main(capsys, "--pretty", "classify", "Q[Z]fine")
    assert rc == 0 and rc2 == 0
    assert "\n  " in pretty
    assert json.loads(compact) == json.loads(pretty)


def test_script_bindings(capsys, tmp_path):
    script = tmp_path / "defs.gradal"
    script.write_text(
        "let R = Q[Z^2]fine;\n"
        "let psi = [[1,1]]: Z^2 -> Z;\n"
        "let S = coarsen(R, psi);\n",
        encoding="utf-8")
    rc, out, _ = run_main(capsys, "--script", str(script), "classify", "S")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z"
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "components", "R", "e(1,0)+2*e(0,1)")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2


def test_name_refs_in_every_position(capsys, tmp_path):
    script = tmp_path / "defs.gradal"
    script.write_text(
        "let G = Z^2;\n"
        "let T = Z/2;\n"
        "let x = e(1)+2*e(0);\n"
        "let F = <(0,1)>;\n",
        encoding="utf-8")
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "classify", "Q[G]fine")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z^2"
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "classify", "coarsen(Q[G]fine, [[1,1]]: G -> Z)")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z"
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "classify", "Q[Z x T]coarse")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z x Z/2] graded by 0"
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "components", "Q[Z]fine", "x")
    assert rc == 0
    assert len(out.splitlines()) == 2
    rc, out, _ = run_main(capsys, "--script", str(script),
                          "iso-lem50", "Q[G]fine", "F")
    assert rc == 0
    assert json.loads(out)["coarse"] == "Q[Z^2] graded by Z"


@pytest.mark.parametrize("argv,missing", [
    (("classify", "Q[G]fine"), "'G' is not a bound group"),
    (("components", "Q[Z]fine", "y"), "'y' is not a bound elem"),
    (("classify", "let x = e(1); Q[x]fine"), "'x' is not a bound group"),
    (("classify", "let G = Z; Q[G]fine"), "'G' is not a bound group"),
    (("classify", "let G = Z^2; let S = G; S"), "'G' is not a bound ring"),
    (("classify", "let x = e(1); x"), "'x' is not a bound ring"),
    (("components", "Q[Z]fine", "let H = (G); H"), "'G' is not a bound ring"),
])
def test_unbound_or_wrong_kind_ref(capsys, argv, missing):
    rc, _, err = run_main(capsys, *argv)
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "parse-or-type"
    assert missing in payload["message"]
    assert payload["spans"]


def test_script_parse_error(capsys, tmp_path):
    script = tmp_path / "bad.gradal"
    script.write_text("let R = Q[Z;\n", encoding="utf-8")
    rc, _, err = run_main(capsys, "--script", str(script),
                          "classify", "Q[Z]fine")
    assert rc == 2
    assert json.loads(err)["error"] == "parse-or-type"


def test_unreadable_script_exit_2(capsys, tmp_path):
    latin = tmp_path / "latin1.gradal"
    latin.write_bytes("let R = Q[Z]fine; # caf\xe9\n".encode("latin-1"))
    for path in (tmp_path / "missing.gradal", latin, tmp_path):
        rc, out, err = run_main(capsys, "--script", str(path),
                                "classify", "Q[Z]fine")
        assert rc == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "script" and payload["message"]


def test_script_file_is_closed(capsys, tmp_path):
    script = tmp_path / "defs.gradal"
    script.write_text("let R = Q[Z]fine;\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc, _, _ = run_main(capsys, "--script", str(script), "classify", "R")
        gc.collect()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_ring_aliases(capsys):
    rc, out, _ = run_main(capsys, "classify",
                          "let R = Q[Z]fine; let S = R; let R = Z; S")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z] graded by Z"
    rc, out, _ = run_main(capsys, "classify", "let G = Z^1; Q[G]fine")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z] graded by Z"


@pytest.mark.parametrize("ring", [
    "let R = Q[Z]coarse; let R = R; R",
    "let B = Q[Z]coarse; let S = B; let B = Z[Z]coarse; S",
])
def test_divide_through_aliases(ring):
    """A ring alias carries the constructor it was bound to, so divide
    sees Q[Z]coarse however the names were rebound (run in a subprocess
    so that a cycle in the name chase fails instead of hanging)."""
    proc = subprocess.run(
        [sys.executable, "-m", "gradal.cli", "divide", ring, "e(1)", "e(2)"],
        capture_output=True, text=True, timeout=60, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"u": "e(1)", "v": "0"}


def test_divide_reevaluates_the_inner_ring(capsys):
    """divide rebuilds the Laurent structure from the inner ring of the
    constructor, and B there is the ring bound where L was written."""
    rc, out, err = run_main(capsys, "divide",
                            "let B = Q; let L = B[Z]coarse; let B = Z; L",
                            "e(1)", "e(1)")
    assert rc == 0 and err == ""
    assert json.loads(out) == {"u": "e(0)", "v": "0"}


REBOUND = "let G = Z^2;\nlet psi = [[1,1]]: G -> Z;\nlet G = Z^3;\n"


def test_names_resolve_where_written(capsys, tmp_path):
    """psi was written for Z^2, and rebinding G afterwards does not reach
    it, in an argument or in a --script file."""
    rc, out, err = run_main(capsys, "classify",
                            REBOUND + "coarsen(Q[Z^2]fine, psi)")
    assert rc == 0 and err == ""
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z"
    script = tmp_path / "defs.gradal"
    script.write_text(REBOUND, encoding="utf-8")
    rc, out, err = run_main(capsys, "--script", str(script),
                            "classify", "coarsen(Q[Z^2]fine, psi)")
    assert rc == 0 and err == ""
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z"
    rc, out, _ = run_main(capsys, "classify",
                          "let G = Z^2; let H = (G); Q[H]fine")
    assert rc == 0
    assert json.loads(out)["ring"] == "Q[Z^2] graded by Z^2"
    # A use is a copy of the bound node with the use's span, and nothing
    # else changed.
    _, scope = cli._parse("let R = Q[Z/2]coarse;", {})
    node, _ = cli._parse("R", scope, cli._Parser.ring)
    bound = scope["R"][1]
    assert (node.span, bound.span) == ((1, 1, 2), (1, 9, 21))
    assert [getattr(node, f) for f in cli.RingAst.__slots__ if f != "span"] \
        == [getattr(bound, f) for f in cli.RingAst.__slots__ if f != "span"]
    assert node.alg_kind == "coarse" and node.hom is None


def test_name_bound_after_its_use(capsys):
    rc, out, err = run_main(
        capsys, "classify",
        "let psi = [[1,1]]: G -> Z; let G = Z^2; coarsen(Q[Z^2]fine, psi)")
    assert rc == 2 and out == ""
    assert json.loads(err) == {
        "error": "parse-or-type",
        "message": "'G' is not a bound group at [1:20-21]",
        "spans": [[1, 20, 21]]}


@pytest.mark.parametrize("word", ["Z", "Q", "e", "fine", "coarse", "let",
                                  "coarsen", "restrict", "Frac"])
def test_keywords_cannot_be_bound(capsys, word):
    rc, out, err = run_main(capsys, "classify", f"let {word} = Z[Z]fine; Q")
    assert rc == 2 and out == ""
    assert json.loads(err) == {
        "error": "parse-or-type",
        "message": f"1:5: {word!r} is a keyword and cannot be bound",
        "line": 1, "col": 5}


@pytest.mark.parametrize("text,line,col,message", [
    ("let R = Q[Z; Q", 1, 12, "expected ']', found ';'"),
    ("let R = coarsen(Q[Z]fine, [[1]]; Q", 1, 32, "expected ')', found ';'"),
    ("let R = Q[Z]fine;\nlet S = R[Z/2 coarse; S", 2, 15,
     "expected ']', found 'coarse'"),
])
def test_let_error_from_the_furthest_production(capsys, text, line, col,
                                                message):
    """A let value that no production reads reports the syntax error of
    the one that read furthest, here the ring, not the element."""
    rc, out, err = run_main(capsys, "classify", text)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "parse-or-type",
                               "message": f"{line}:{col}: {message}",
                               "line": line, "col": col}


@pytest.mark.parametrize("argv,line,col,message", [
    (("classify", "Q[Z^"), 1, 5, "expected an integer, found 'end'"),
    (("components", "Q[Z]fine", "1/x*e(1)"), 1, 3,
     "expected a denominator, found 'x'"),
    (("classify", "let ; Q"), 1, 5, "expected a name after let, found ';'"),
    (("classify", "Q[Z]fine[Z]"), 1, 12,
     "expected 'fine' or 'coarse', found 'end'"),
    (("classify", "Q[Z]fine extra"), 1, 10, "trailing input, found 'extra'"),
])
def test_syntax_errors_name_the_token_found(capsys, argv, line, col,
                                            message):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "parse-or-type",
                               "message": f"{line}:{col}: {message}",
                               "line": line, "col": col}


def test_coarsen_fraction_ring_along_torsion_kernel_exit_3(capsys):
    rc, out, err = run_main(capsys, "classify",
                            "coarsen(Frac(Q[Z x Z/2]fine), [[1,0]])")
    assert rc == 3 and out == ""
    assert json.loads(err) == {
        "error": "hypothesis",
        "message": "cannot coarsen a fraction ring along a map with "
                   "torsion kernel"}


# --- parse and evaluate ---

PARSED = [
    ("ring", "Q[Z]fine", "Q[Z] graded by Z"),
    ("ring", "Z[Z/4]coarse", "Z[Z/4] graded by 0"),
    ("ring", "Q[Z^2 x Z/2]fine", "Q[Z^2 x Z/2] graded by Z^2 x Z/2"),
    ("ring", "Frac(Q[Z]fine)", "Frac(Q[Z] graded by Z)"),
    ("ring", "coarsen(Q[Z^2]fine, [[1,1]]: Z^2 -> Z)", "Q[Z^2] graded by Z"),
    ("ring", "restrict(Q[Z^2]fine, <(1,0), (0,2)>)", "Q[Z^2] graded by Z^2"),
    ("ring", "Q[Z/2]coarse[Z]fine", "Q[Z x Z/2] graded by Z"),
    ("ring", "Q[G]fine", "Q[Z^2] graded by Z^2"),
    ("group", "Z^3 x Z/2 x Z/4", "Z^3 x Z/2 x Z/4"),
    ("group", "G x Z/2", "Z^2 x Z/2"),
    ("group", "0", "0"),
    ("elem", "e(0)", "e(0)"),
    ("elem", "-e(1)+2*e(-2)", "2*e(-2)-e(1)"),
    ("elem", "1/2*e(0,1)-3/4*e(2,-1)+e(0,0)",
     "e(0,0)+1/2*e(0,1)-3/4*e(2,-1)"),
    ("gens", "<(1,0), (0,2)>", [(1, 0), (0, 2)]),
    ("hom", "[[1,0],[0,2]]: Z^2 -> Z^2", ("Z^2", "Z^2", ((1, 0), (0, 2)))),
    ("hom", "[[1,1]]", ("Z^2", "Z", ((1, 1),))),
]


def _evaluate(expect, text):
    """Parse text with G bound to Z^2 and evaluate it; homs and gens on
    the grading group Z^2, elements in Q[Z^n] for their exponent width."""
    z2 = FgGroup(2, ())
    _, scope = cli._parse("let G = Z^2;", {})
    node, _ = cli._parse(text, scope, getattr(cli._Parser, expect))
    if expect == "ring":
        return cli._eval_ring(node).describe()
    if expect == "group":
        return str(cli._eval_group(node))
    if expect == "elem":
        nf = group_algebra(normalize(BaseQ()),
                           FgGroup(len(node.terms[0][2]), ()), "fine")
        return str(cli._eval_elem(node, nf))
    if expect == "gens":
        return [x.coords for x in cli._eval_gens(node, z2)]
    h = cli._eval_hom(node, z2, node.span)
    return str(h.domain), str(h.codomain), h.matrix


@pytest.mark.parametrize("expect,text,value", PARSED,
                         ids=[f"{kind}-{text}" for kind, text, _ in PARSED])
def test_parse_and_evaluate(expect, text, value):
    assert _evaluate(expect, text) == value


# --- module execution ---

def test_module_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gradal.cli", "classify", "Q[Z]fine"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ring"] == "Q[Z] graded by Z"
    proc = subprocess.run(
        [sys.executable, "-m", "gradal.cli", "classify", "Q[Z"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 2
