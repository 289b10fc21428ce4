"""The CLI contract under fuzzing: any argv and any JSON document give exit 0, 1 or 2.

`cli.run` never raises.  Exit 2 comes with empty stdout and one `error:`
line on stderr; exit 1 only with a JSON report whose verdict is false; exit
0 with nothing on stderr.  A document whose body has the wrong shape (a
table that is not a list, an index key that is not a canonical decimal)
exits 2 from every command that reads that body.  Precisions that would be accepted stay small and
--steps is bounded, so each example runs in milliseconds; the caps
themselves are drawn too (24/25, 1024/1025 and far beyond).  Points in
range stay below 2^72: a Mahler evaluation computes exact binomials of the
point, and their cost has no budget yet (ROADMAP item 4).
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tadic.cli import run

RINGS = ["f2t", "z2"]
BASES = ["vdp", "carlitz", "mahler"]

# precision and depth fields: small values, the caps, and what JSON holds that is not an integer
HEADER = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([25, 1024, 1025, 2**64, 10**40]),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
HEX = st.one_of(st.integers(-2, 2**10).map(hex), st.text(max_size=3), st.integers(-2, 9), st.none(), st.lists(st.integers(), max_size=2))
# other spellings of an index: leading zeros, signs, spaces, non-ASCII digits
RESPELL = st.sampled_from([lambda n: "0" + n, lambda n: "+" + n, lambda n: " " + n, lambda n: n + " ",
                           lambda n: n.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))])
KEYS = st.one_of(st.integers(-2, 70).map(str), st.sampled_from(["x", "1.5", "", "0x1", str(2**70), "03", "+3", "٣", "3 "]))
COEFFS = st.one_of(st.dictionaries(KEYS, HEX, max_size=6), st.lists(HEX, max_size=3), HEX)
TABLE = st.one_of(st.lists(HEX, max_size=16), st.dictionaries(KEYS, HEX, max_size=3), HEX)
BITS = st.one_of(st.text(alphabet="012", max_size=16), st.lists(st.integers(0, 2), max_size=8), HEX)
LEVELS = st.one_of(st.dictionaries(st.one_of(st.integers(0, 6).map(str), st.sampled_from(["01", "+1", "١"])), BITS, max_size=6), HEX)
TAGS = {
    "ring": st.sampled_from(["F2T", "Z2", "Q", None, 2]),
    "basis": st.sampled_from(["vanderput", "carlitz", "mahler", "vdp", None]),
}


def _respelled(draw, body):
    """One key of an index-keyed body in another spelling, one time in eight."""
    if body and draw(st.integers(0, 7)) == 0:
        key = draw(st.sampled_from(sorted(body)))
        body[draw(RESPELL)(key)] = body.pop(key)
    return body


@st.composite
def well_formed(draw):
    """A coefficient, table or steering-bit document that the readers accept, or nearly."""
    k = draw(st.integers(1, 5))
    values = st.integers(0, (1 << k) - 1)
    kind = draw(st.sampled_from(["coeffs", "table", "data"]))
    if kind == "table":
        table = [hex(v) for v in draw(st.lists(values, min_size=1 << k, max_size=1 << k))]
        if draw(st.integers(0, 7)) == 0:  # the same entries as a string or an object
            table = draw(st.sampled_from(["".join(v[2:] for v in table), {str(i): v for i, v in enumerate(table)}]))
        return {"ring": draw(st.sampled_from(["F2T", "Z2"])), "precision": k, "table": table}
    if kind == "data":
        levels = {str(j): draw(st.text(alphabet="01", min_size=1 << j, max_size=1 << j)) for j in range(1, k)}
        return {"n": k - 1, "levels": _respelled(draw, levels)}
    ring, basis = draw(st.sampled_from([("F2T", "vanderput"), ("F2T", "carlitz"), ("Z2", "vanderput"), ("Z2", "mahler")]))
    coeffs = draw(st.dictionaries(st.integers(0, (1 << k) - 1), values, max_size=1 << k))
    if draw(st.booleans()):  # 1-Lipschitz: pi^deg(n) divides the coefficient of index n
        coeffs = {n: v >> max(n.bit_length() - 1, 0) << max(n.bit_length() - 1, 0) for n, v in coeffs.items()}
    coeffs = _respelled(draw, {str(n): hex(v) for n, v in coeffs.items()})
    return {"ring": ring, "basis": basis, "precision": k, "coeffs": coeffs}


def refused_shape(doc, body):
    """Whether `body` ("table", "coeffs" or "levels") has a shape that every reader of it refuses.

    A table must be a JSON list; an index-keyed body, absent or a JSON object
    whose keys are decimal numerals without sign, space or leading zero.
    """
    if not isinstance(doc, dict):
        return True
    if body == "table":
        return not isinstance(doc.get("table"), list)
    keyed = doc.get(body, {})
    return not isinstance(keyed, dict) or not all(re.fullmatch(r"0|[1-9][0-9]*", key) for key in keyed)


# the body each command reads from its file (gen-cycle reads one only with --data)
READS = {"verify": "coeffs", "eval": "coeffs", "convert": "coeffs", "keystream": "coeffs",
         "exhaustive": "table", "expand": "table", "gen-cycle": "levels"}


# two draws in three are well formed, so the commands reach their verdicts too
DOCUMENTS = st.one_of(
    well_formed(),
    well_formed(),
    st.one_of(
        st.fixed_dictionaries({}, optional={**TAGS, "precision": HEADER, "coeffs": COEFFS, "table": TABLE}),
        st.fixed_dictionaries({}, optional={"n": HEADER, "levels": LEVELS}),
        st.lists(st.integers(), max_size=2),
        st.integers(),
    ),
)


@st.composite
def command(draw, path, doc):
    """(name, argv) for one command: mostly fitted to the document's kind and precision, else loose or junk."""
    pick = st.sampled_from
    k = doc.get("precision") if isinstance(doc, dict) else None
    fitted = type(k) is int and 1 <= k <= 6 and draw(pick([True, True, False]))
    if fitted:
        x = draw(st.integers(0, (1 << k) - 1).map(hex))
        small = st.integers(1, k).map(str)
        bit = st.integers(0, k - 1).map(str)
        steps = st.integers(1, 40)
        names = ["verify", "eval", "convert", "keystream"] if "coeffs" in doc else ["exhaustive", "expand"]
    else:
        x = draw(st.one_of(st.integers(0, 31).map(hex), pick(["zz", "-0x1", "", "0x400", hex(2**71), hex(2**1030)])))
        small = bit = st.integers(-2, 6).map(str)
        steps = st.one_of(st.integers(1, 40), st.sampled_from([0, -1]))
        names = ["verify", "exhaustive", "expand", "eval", "convert", "gen-cycle", "keystream", "junk"]
    if isinstance(doc, dict) and "n" in doc and draw(st.booleans()):
        names = ["gen-cycle"]

    def optional(*flag):
        return list(flag) if draw(st.booleans()) else []

    name = draw(pick(names))
    if name == "verify":
        argv = ["verify", "--coeffs", path, "--check", draw(pick(["ergodic", "lipschitz", "mp"]))]
        if fitted:
            argv += ["--ring", {"Z2": "z2"}.get(doc.get("ring"), "f2t")]
            argv += ["--basis", {"carlitz": "carlitz", "mahler": "mahler"}.get(doc.get("basis"), "vdp")]
        else:
            argv += optional("--ring", draw(pick(RINGS))) + optional("--basis", draw(pick(BASES)))
    elif name == "exhaustive":
        argv = ["verify", "--exhaustive", "--table", path]
    elif name == "expand":
        argv = ["expand", "--basis", draw(pick(["vdp", "carlitz"])), "--table", path]
    elif name == "eval":
        argv = ["eval", "--coeffs", path, "--x", x] + optional("--prec", draw(small))
    elif name == "convert":
        source, target = draw(st.permutations(["vdp", "carlitz"])) if fitted else draw(st.lists(pick(["vdp", "carlitz"]), min_size=2, max_size=2))
        argv = ["convert", "--from", source, "--to", target, "--coeffs", path]
    elif name == "gen-cycle":
        argv = ["gen-cycle", "--seed", draw(small)] + optional("--data", path)
        argv += optional("--n", draw(st.one_of(st.integers(-2, 5).map(str), pick(["24", "40", "10000000000"]))))
    elif name == "keystream":
        argv = ["keystream", "--coeffs", path, "--x0", x, "--steps", draw(steps.map(str))]
        argv += optional("--prec", draw(small)) + optional("--bit", draw(bit))
    else:
        words = pick(["verify", "eval", "--coeffs", "--table", "--x", "--n", "--steps", "--prec", path, "-h", "1"])
        argv = draw(st.lists(st.one_of(words, st.text(max_size=4)), max_size=6))
    return name, argv + optional("--quiet")


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=DOCUMENTS, data=st.data())
def test_cli_keeps_its_exit_code_contract(tmp_path_factory, doc, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    name, argv = data.draw(command(str(path), doc), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
    reads = READS.get(name) if name != "gen-cycle" or "--data" in argv else None
    if reads and refused_shape(doc, reads):
        assert code == 2
    if code == 1:
        assert argv[0] == "verify"
        assert "--quiet" in argv or json.loads(out)["verdict"] is False
