import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import sftkit
from sftkit import (
    BiPoint,
    CylinderFunction,
    EvPerPoint,
    full_shift,
    golden_mean,
)
from sftkit.cli import _json_text, main
from sftkit.errors import ParseError
from sftkit import io as sio

GOLDEN = "sft v1\nvertices 2\nedge 0 0\nedge 0 1\nedge 1 0\n"
FULL2 = "sft v1\nvertices 2\nedge 0 0\nedge 0 1\nedge 1 0\nedge 1 1\n"
PE = ("oe v1\ndomain full2.sft\ncodomain full2.sft\n"
      "map 0 -> 10\nmap 10 -> 0\nmap 11 -> 11\n")
# the same exchange after the vertex flip 0 <-> 1: h(u t) = v pi(t)
VM = PE.replace("map 0", "vmap 0 1\nvmap 1 0\nmap 0", 1)


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "golden.sft").write_text(GOLDEN)
    (tmp_path / "full2.sft").write_text(FULL2)
    (tmp_path / "pe.oe").write_text(PE)
    (tmp_path / "vm.oe").write_text(VM)
    (tmp_path / "fn.fn").write_text("fn depth=2\n00 1\n01 -1\n10 2\n11 0\n")
    (tmp_path / "neg.fn").write_text("fn depth=1\n0 -1\n1 3\n")
    return tmp_path


def test_presentation_roundtrip(gm):
    text = sio.format_presentation(gm)
    again = sio.parse_presentation(text)
    assert again == gm
    assert sio.format_presentation(again) == text


def test_presentation_parse_errors():
    with pytest.raises(ParseError):
        sio.parse_presentation("vertices 2\n")
    with pytest.raises(ParseError):
        sio.parse_presentation("sft v1\nvertices 2\nedge 0 5\n")
    with pytest.raises(ParseError):
        sio.parse_presentation("sft v1\nvertices 2\nedge 0 0\nedge 0 1\n")


def test_cylinder_function_roundtrip(full2):
    f = CylinderFunction.from_values(full2, {"00": 1, "01": -1,
                                             "10": 2, "11": 0})
    text = sio.format_cylinder_function(full2, f)
    again = sio.parse_cylinder_function(text, full2)
    assert again == f
    assert sio.format_cylinder_function(full2, again) == text


def test_point_syntax(full2):
    p = sio.parse_point(full2, "1/0")
    assert p == EvPerPoint.make(full2, (1,), (0,))
    assert sio.format_point(full2, p) == "1/0"
    q = sio.parse_point(full2, "-/01")
    assert q == EvPerPoint.make(full2, (), (0, 1))
    b = sio.parse_bipoint(full2, "0|11|01@2")
    assert b == BiPoint.make(full2, (0,), (1, 1), (0, 1), 2)


def test_oe_roundtrip(tree):
    # a file written by format_orbit_equivalence reads back as the same map,
    # and the files here are already in its canonical form
    x = EvPerPoint.make(full_shift(2), (0, 0, 1), (0,))
    for name, text, image in [("pe.oe", PE, "1001/0"), ("vm.oe", VM, "1010/1")]:
        h = sio.read_orbit_equivalence(str(tree / name))
        assert h.domain == full_shift(2)
        assert sio.format_point(h.domain, h(x)) == image
        again = sio.format_orbit_equivalence(h, "full2.sft", "full2.sft")
        assert again == text
        (tree / "again.oe").write_text(again)
        h2 = sio.read_orbit_equivalence(str(tree / "again.oe"))
        for y in (x, EvPerPoint.make(h.domain, (), (0,))):
            assert h(y) == h2(y)


def test_oe_composition_file(tree):
    (tree / "comp.oe").write_text("oe v1\ncompose pe.oe pe.oe\n")
    comp = sio.read_orbit_equivalence(str(tree / "comp.oe"))
    single = sio.read_orbit_equivalence(str(tree / "pe.oe"))
    x = EvPerPoint.make(comp.domain, (1, 0), (0, 1))
    assert comp(x) == single(single(x))


def test_cli_invariants(tree, capsys):
    assert main(["invariants", str(tree / "golden.sft")]) == 0
    assert capsys.readouterr().out.strip() == "snf: 1 1 / det: -1"


def test_cli_language(tree, capsys):
    assert main(["language", str(tree / "golden.sft"), "-m", "2"]) == 0
    assert capsys.readouterr().out.split() == ["00", "01", "10"]


def test_cli_tower(tree, capsys):
    rc = main(["tower", str(tree / "golden.sft"), "--f", "const:2",
               "--check-invariants", "--out", str(tree / "t.sft")])
    assert rc == 0
    assert "det preserved: true" in capsys.readouterr().out
    t = sio.read_presentation(str(tree / "t.sft"))
    assert len(t.labels) == 4


def test_cli_positive_exit_codes(tree, capsys):
    assert main(["positive", str(tree / "full2.sft"),
                 "--f", str(tree / "fn.fn")]) == 0
    out = capsys.readouterr().out
    assert "certificate positive" in out
    assert main(["positive", str(tree / "full2.sft"),
                 "--f", str(tree / "neg.fn")]) == 1
    assert "negative-cycle sum=-1" in capsys.readouterr().out


def test_cli_pipeline_and_claims(tree, capsys):
    assert main(["pipeline", str(tree / "pe.oe")]) == 0
    capsys.readouterr()
    assert main(["verify-claims", str(tree / "pe.oe"), "--samples", "3"]) == 0


def test_cli_parse_error_exit_2(tree, capsys):
    (tree / "broken.sft").write_text("nonsense\n")
    assert main(["invariants", str(tree / "broken.sft")]) == 2
    assert main(["invariants", str(tree / "missing.sft")]) == 2


def test_cli_json_deterministic(tree, capsys):
    outs = []
    for _ in range(2):
        assert main(["pipeline", str(tree / "pe.oe"), "--json",
                     "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["claims_failed"] == 0


@pytest.mark.parametrize("source, argv, digest, code", [
    ("pe.oe", ["pipeline", "--seed", "3", "--samples", "16"],
     "59f913346f8988a8d373f7485f6c6f90595c88460dd8e92b01da1cbae0940633", 0),
    ("pe.oe", ["verify-claims", "--seed", "3", "--samples", "8"],
     "4bc1dfe02fc9e5b3ed8cc2c2937c3496049c04a17cb994b88f6ccfbb0ef9b2e2", 0),
    ("pe.oe", ["verify-claims", "--seed", "5", "--samples", "6",
               "--j-range", "-1", "6", "--t-grid", "-3", "1"],
     "b56e8b5ce9cb917d612b24816056296b0d38a3f2a8a8cb1006b7547ffae29b5d", 0),
    ("pe.oe", ["derive-cocycles"],
     "68f136efdbdcd9a973060fa02b0121a79b385078a0cb3b7d195acb169aa01779", 0),
    ("pe.oe", ["verify-coe"],
     "955cbfae4cff16bc5a30493605f1d1dd2e45d5f162b2f10ac6b767ddc21ef75d", 0),
    ("vm.oe", ["pipeline", "--seed", "3", "--samples", "16"],
     "419763b4a45055519781008effe621220cbdd7cc723e61bb872dbcabe98b5d8c", 0),
    ("vm.oe", ["derive-cocycles"],
     "c504b21edcac2e8b40fd3c8d3fb50027b360cfba85678b9a83fb3f269b8ecf9e", 0),
    ("vm.oe", ["verify-coe"],
     "955cbfae4cff16bc5a30493605f1d1dd2e45d5f162b2f10ac6b767ddc21ef75d", 0),
    ("golden.sft", ["invariants"],
     "bad0574f63b9b91df577644ea5affef60487629f6da766a9c7eba042fe84c068", 0),
    ("golden.sft", ["language", "-m", "3"],
     "47d1f35c46a2ee84f282b08fa2107e2944e5d2409644c16815d56715a3a7cae0", 0),
    ("full2.sft", ["potential", "--f", "fn.fn"],
     "24472eb2fc00b4c356f245545227090190593bdcb3c0b4f77d3932fcade13436", 0),
    ("full2.sft", ["potential", "--f", "neg.fn"],
     "04391e8759bf214fa87e358e87cf28b2aacc92db20d5f5f9e0b9dcfa0590254c", 1),
    ("full2.sft", ["positive", "--f", "fn.fn"],
     "c493f3f8458913df890ec232a6570c01ffa1038d81f401b661a61d334f5b3e5b", 0),
    ("full2.sft", ["positive", "--f", "neg.fn"],
     "6f9d299c7fad52aef3dbb76b0398ef09011cd90874cd83f220c5126d1093c9d1", 1),
    ("golden.sft", ["tower", "--f", "const:2", "--check-invariants"],
     "bb4bc88f6f30db9296184aba6cf690130b76866cb988ae4878a73168b958a9a7", 0),
    ("full2.sft", ["move", "--kind", "out_split", "--vertex", "0",
                   "--parts", "0;1"],
     "8fb1e5bab9afd3435e6bb658bf93182da515c7eb0451deb64ec409eef7173998", 0),
    ("golden.sft", ["groupoid-check", "--samples", "5", "--seed", "2"],
     "2454024a023f5f45f3e457e5004cff130cf92e4ad036368f01ecdf5a1780600e", 0),
], ids=["pipeline", "verify-claims", "verify-claims-ranges",
        "derive-cocycles", "verify-coe", "vm-pipeline", "vm-derive-cocycles",
        "vm-verify-coe", "invariants", "language", "potential",
        "potential-negative-cycle", "positive", "not-positive", "tower",
        "move", "groupoid-check"])
def test_cli_json_digests_are_pinned(tree, capsys, monkeypatch, source, argv,
                                     digest, code):
    # the --json contract: these bytes do not depend on the file's path, so
    # any change to them is a change of the output format or of a result;
    # --f names its file relative to the tree
    monkeypatch.chdir(tree)
    verb, *flags = argv
    assert main([verb, str(tree / source), "--json", *flags]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Tag(str):
    pass


class _Count(int):
    pass


class _Table(dict):
    pass


class _Row(list):
    pass


class _Opaque:
    """An object json cannot encode."""


_TEXT = st.text(st.characters(max_codepoint=0x2FFF, blacklist_categories=(
    "Cs",)))


def _containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(_TEXT, children, max_size=4))


# dicts with str keys, lists and str, int, bool and None leaves: the values
# --json writes, nested and empty, with non-ASCII and control characters
_EXACT_TREES = _containers(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT), _containers,
    max_leaves=24))
# floats (NaN and infinities included), tuples, subclasses of the exact
# types, Fractions and other objects
_INEXACT = st.one_of(
    st.floats(), st.tuples(st.integers()), st.builds(_Tag, _TEXT),
    st.builds(_Count, st.integers()), st.builds(_Table), st.builds(_Row),
    st.fractions(), st.builds(_Opaque))
_INEXACT_KEYS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.builds(_Tag, _TEXT), st.tuples(st.integers()), st.fractions(),
    st.builds(_Opaque))


def _nested(tree):
    """tree and every dict and list inside it."""
    yield tree
    for v in (tree.values() if type(tree) is dict else tree):
        if type(v) is dict or type(v) is list:
            yield from _nested(v)


@settings(max_examples=400, deadline=None)
@given(_EXACT_TREES)
def test_json_writer_matches_json_dumps(payload):
    """--json is written by _json_text, which must return json.dumps's text
    for sort_keys=True, indent=2 on every tree of exact values: nested and
    empty containers, non-ASCII and control characters, every int."""
    assert _json_text(payload) == json.dumps(payload, sort_keys=True,
                                             indent=2)


@settings(max_examples=400, deadline=None)
@given(_EXACT_TREES, st.data())
def test_json_writer_refuses_inexact_values(payload, data):
    """One inexact value or non-str key anywhere in a tree, or an inexact
    payload, raises TypeError naming its type."""
    spots = list(_nested(payload))
    spot = data.draw(st.sampled_from(spots + [None]))
    if spot is None:
        payload = bad = data.draw(_INEXACT)
    elif type(spot) is list:
        bad = data.draw(_INEXACT)
        spot.insert(data.draw(st.integers(0, len(spot))), bad)
    elif data.draw(st.booleans()):
        bad = data.draw(_INEXACT)
        spot[data.draw(_TEXT)] = bad
    else:
        bad = data.draw(_INEXACT_KEYS)
        spot.pop(bad, None)  # a _Tag key must not reuse an equal str key
        spot[bad] = 0
    with pytest.raises(TypeError, match=type(bad).__name__):
        _json_text(payload)


def _claim_counts(verb, payload):
    """(failed, inconclusive) as the --json payload of verb reports them."""
    if verb == "pipeline":
        return payload["claims_failed"], payload["inconclusive"]
    claims = payload["claims"]
    return (sum(not c["pass"] for c in claims),
            sum(c["parameters"].get("found") == "inconclusive"
                for c in claims))


@pytest.mark.parametrize("verb", ["pipeline", "verify-claims"])
def test_cli_inconclusive_round_trips_exit_3(tree, capsys, monkeypatch,
                                             verb):
    """Round trips whose shift search finds nothing are inconclusive: exit 3
    when they are the only failures, exit 1 once another claim fails."""
    from sftkit import WeightProfile, suspension
    monkeypatch.setattr(suspension, "find_round_trip_shift",
                        lambda x, w, bound: None)
    argv = [verb, str(tree / "pe.oe"), "--json", "--samples", "2"]
    assert main(argv) == 3
    assert _claim_counts(verb, json.loads(capsys.readouterr().out)) == (2, 2)
    # r_x skewed by half a step on odd floors of t: the time claims fail
    # outright as well
    r_over = WeightProfile.r_over

    def skewed(self, a, d):
        num, den = r_over(self, a, d)
        return 2 * num + (a // d) % 2, 2 * den

    monkeypatch.setattr(WeightProfile, "r_over", skewed)
    assert main(argv) == 1
    failed, inconclusive = _claim_counts(verb,
                                         json.loads(capsys.readouterr().out))
    assert inconclusive == 2 and failed > inconclusive


def test_cli_move_and_groupoid_check(tree, capsys):
    rc = main(["move", str(tree / "full2.sft"), "--kind", "out_split",
               "--vertex", "0", "--parts", "0;1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vertices 3" in out
    with pytest.raises(SystemExit) as e:
        main(["move", str(tree / "golden.sft"), "--kind", "attach_head",
              "--vertex", "0"])
    assert e.value.code == 2
    capsys.readouterr()
    assert main(["groupoid-check", str(tree / "golden.sft"),
                 "--samples", "5"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--vertex", "0"], "needs parts"),
    (["--vertex", "7", "--parts", "0;1"], "7 is not a vertex index"),
    (["--vertex", "0", "--parts", "0;9"], "9 is not a vertex index"),
    (["--vertex", "-1", "--parts", "0;1"], "-1 is not a vertex index"),
    (["--vertex", "+0", "--parts", "0;1"], "+0 is not a vertex index"),
    (["--vertex", "0", "--parts", "\u0660;\u0661"],
     "\u0660 is not a vertex index"),
], ids=["no-parts", "vertex-out-of-range", "part-out-of-range",
        "negative-vertex", "signed-vertex", "arabic-indic-parts"])
def test_cli_move_rejects_bad_input(tree, capsys, flags, message):
    """Bad move input is an input error (exit 2), not a traceback."""
    rc = main(["move", str(tree / "full2.sft"), "--kind", "out_split"]
              + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("verb, spec", [
    ("tower", "const:x"),
    ("positive", "const:"),
    ("potential", "const:1.5"),
])
def test_cli_bad_const_spec_is_an_input_error(tree, capsys, verb, spec):
    """A const: spec that is not an integer exits 2 naming the spec, not 1
    (the code for "verified false") with a traceback."""
    rc = main([verb, str(tree / "full2.sft"), "--f", spec])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(spec) in err


@pytest.mark.parametrize("argv, message", [
    (["verify-claims", "pe.oe", "--t-grid", "2", "-2"], "--t-grid 2 -2"),
    (["verify-claims", "pe.oe", "--j-range", "3", "-3"], "--j-range 3 -3"),
    (["pipeline", "pe.oe", "--samples", "-1"], "--samples"),
    (["pipeline", "pe.oe", "--samples", "0"], "--samples"),
    (["verify-claims", "pe.oe", "--samples", "0"], "--samples"),
    (["groupoid-check", "full2.sft", "--samples", "-2"], "--samples"),
    (["language", "full2.sft", "-m", "0"], "-m"),
], ids=["reversed-t-grid", "reversed-j-range", "negative-samples",
        "no-samples", "no-claim-samples", "negative-groupoid-samples",
        "empty-words"])
def test_cli_rejects_vacuous_or_crashing_arguments(tree, capsys, argv,
                                                   message):
    """Arguments that would check nothing, or crash the command, are input
    errors (exit 2), never a pass or a traceback."""
    verb, path, *flags = argv
    rc = main([verb, str(tree / path), *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("verb", ["derive-cocycles", "verify-coe",
                                  "pipeline", "verify-claims"])
def test_cli_has_no_depth_option(tree, capsys, verb):
    """Cocycles are derived as deep as the map's stages prove, so no verb
    takes --depth: argparse rejects it with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main([verb, str(tree / "pe.oe"), "--depth", "13"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --depth 13" in captured.err


def _write_there_and_back(tree, L):
    """E.oe, its inverse and their composition: E is the prefix exchange on
    the code {0^i 1 : i < L} + {0^L} of the full 2-shift that swaps 1 with
    0^(L-1) 1, so back.oe is the identity read through two stages of
    reach L."""
    code = ["0" * i + "1" for i in range(L)] + ["0" * L]
    image = dict(zip(code, code))
    image["1"], image[code[L - 1]] = code[L - 1], "1"
    head = "oe v1\ndomain full2.sft\ncodomain full2.sft\n"
    (tree / "e.oe").write_text(head + "".join(
        f"map {u} -> {v}\n" for u, v in image.items()))
    (tree / "e_inv.oe").write_text(head + "".join(
        f"map {v} -> {u}\n" for u, v in image.items()))
    (tree / "back.oe").write_text("oe v1\ncompose e.oe e_inv.oe\n")
    return tree / "back.oe"


@pytest.mark.parametrize("verb", ["derive-cocycles", "verify-coe",
                                  "pipeline", "verify-claims"])
def test_cli_derives_as_deep_as_the_map_needs(tree, capsys, verb):
    """The composed L = 12 identity needs cylinders of length 13; every
    verb settles it (exit 0) instead of stopping at a depth cap."""
    rc = main([verb, str(_write_there_and_back(tree, 12)), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    if verb == "derive-cocycles":
        assert out["depth"] == 13
        assert set(out["k"].values()) == {0}
        assert set(out["l"].values()) == {1}
    elif verb == "verify-coe":
        assert out["verified"] and out["least_period_preserving"]
    elif verb == "pipeline":
        assert out["cocycle_depth"] == 13 and out["claims_failed"] == 0
    else:
        assert out["claims"] and all(r["pass"] for r in out["claims"])


@pytest.mark.parametrize("files, argv, message", [
    ({"self.oe": "oe v1\ncompose self.oe self.oe\n"},
     ["verify-coe", "self.oe"], "self.oe:2: compose cycle: "),
    ({"a.oe": "oe v1\ncompose pe.oe b.oe\n",
      "b.oe": "oe v1\ncompose a.oe pe.oe\n"},
     ["pipeline", "a.oe"], "b.oe:2: compose cycle: "),
    ({"twice.oe": PE + "map 0 -> 10\n"},
     ["verify-coe", "twice.oe"], "twice.oe:7: map '0' given twice"),
    ({"vtwice.oe": PE + "vmap 0 1\nvmap 1 1\nvmap 0 0\n"},
     ["verify-coe", "vtwice.oe"], "vtwice.oe:9: vmap 0 given twice"),
    ({"twice.fn": "fn depth=1\n0 1\n1 2\n0 5\n"},
     ["positive", "full2.sft", "--f", "twice.fn"],
     "twice.fn:4: word '0' given twice"),
    ({"dtwice.oe": "oe v1\ndomain golden.sft\n" + PE[6:]},
     ["verify-coe", "dtwice.oe"], "dtwice.oe:3: domain given twice"),
    ({"ctwice.oe": PE.replace("codomain full2.sft\n",
                              "codomain golden.sft\ncodomain full2.sft\n")},
     ["verify-coe", "ctwice.oe"], "ctwice.oe:4: codomain given twice"),
    ({"nov.oe": PE.replace("map 0", "vmap 0 1\nmap 0", 1)},
     ["verify-coe", "nov.oe"],
     "nov.oe:4: invalid orbit equivalence: vertex map gives vertex 1 no "
     "image"),
    ({"twov.oe": PE.replace("map 0", "vmap 0 1\nvmap 1 1\nmap 0", 1)},
     ["pipeline", "twov.oe"],
     "twov.oe:4: invalid orbit equivalence: vertex map must biject"),
    ({"code.oe": PE.replace("map 11 ", "map 1 ")},
     ["derive-cocycles", "code.oe"],
     "code.oe:4: invalid orbit equivalence: cylinders do not partition"),
    ({"mixed.oe": "oe v1\ndomain golden.sft\ncodomain full2.sft\n"
                  "map 0 -> 0\nmap 1 -> 1\n"},
     ["verify-coe", "mixed.oe"],
     "mixed.oe:3: invalid orbit equivalence: vertex map is not a graph "
     "isomorphism; with no vmap lines, the vertices were matched index by "
     "index"),
    ({"full3.sft": "sft v1\nvertices 3\n" + "".join(
        f"edge {a} {b}\n" for a in range(3) for b in range(3)),
      "uneven.oe": "oe v1\ndomain full3.sft\n# two vertices\n"
                   "codomain full2.sft\nmap 0 -> 0\nmap 1 -> 1\n"},
     ["pipeline", "uneven.oe"],
     "uneven.oe:4: invalid orbit equivalence: vertex map gives vertex 2 no "
     "image; with no vmap lines, the vertices were matched index by index"),
], ids=["self-composition", "mutual-composition", "repeated-map",
        "repeated-vmap", "repeated-fn-word", "repeated-domain",
        "repeated-codomain", "vertex-without-image", "vmap-not-bijective",
        "code-not-a-partition", "index-matching-not-an-isomorphism",
        "index-matching-uneven-vertex-counts"])
def test_cli_malformed_input_files_are_input_errors(tree, capsys, monkeypatch,
                                                    files, argv, message):
    """A compose cycle, a word given twice, a bad vertex map or a bad code
    is a parse error (exit 2) naming the line, never a traceback or a
    silently kept last line.  Vertex-map faults name the first vmap line,
    or the codomain line when there is none and the vertices were matched
    index by index; code faults name the first map line."""
    monkeypatch.chdir(tree)
    for name, text in files.items():
        (tree / name).write_text(text)
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


_READERS = {
    "sft": sio.read_presentation,
    "fn": lambda path: sio.read_cylinder_function(
        path, sio.read_presentation("full2.sft")),
    "oe": sio.read_orbit_equivalence,
}
_VERBS = {"sft": ["invariants"], "fn": ["positive", "full2.sft", "--f"],
          "oe": ["verify-coe"]}
GMID = ("oe v1\ndomain golden.sft\ncodomain golden.sft\n"
        "map 0 -> 0\nmap 1 -> 1\n")
LOOP = "sft v1\nvertices 1\nedge 0 0\n"


# spellings that int() takes and no writer writes, by name
BAD_INTEGERS = {"plus": "+1", "underscore": "1_0",
                "arabic-indic-one": "\u0661", "arabic-indic-three": "\u0663",
                "fullwidth-one": "\uff11"}
VMAP = PE.replace("map 0", "vmap {} {}\nvmap 1 0\nmap 0", 1)


def _bad_integer_cases():
    """(id, files, line, message) for each integer field of the file
    formats and each spelling it must refuse."""
    for name, bad in BAD_INTEGERS.items():
        yield (f"vertex-count-{name}", {"a.sft": f"sft v1\nvertices {bad}\n"},
               2, "bad vertex count")
        for side, edge in (("source", f"{bad} 0"), ("target", f"0 {bad}")):
            yield (f"edge-{side}-{name}",
                   {"a.sft": f"sft v1\nvertices 2\nedge {edge}\n"}, 3,
                   "edge endpoints must be integers")
        yield (f"depth-{name}", {"a.fn": f"fn depth={bad}\n0 1\n1 2\n"}, 1,
               "bad depth")
        yield (f"fn-value-{name}", {"a.fn": f"fn depth=1\n0 {bad}\n1 2\n"},
               2, f"bad integer {bad!r}")
        yield (f"fn-word-{name}", {"a.fn": f"fn depth=1\n0 1\n{bad} 2\n"},
               3, f"bad word {bad!r}")
        yield (f"vmap-source-{name}", {"a.oe": VMAP.format(bad, 1)}, 4,
               f"bad vmap entry {bad} 1")
        yield (f"vmap-target-{name}", {"a.oe": VMAP.format(0, bad)}, 4,
               f"bad vmap entry 0 {bad}")
    # fields that take no sign
    for side, edge in (("source", "-1 0"), ("target", "0 -0")):
        yield (f"edge-{side}-minus",
               {"a.sft": f"sft v1\nvertices 2\nedge {edge}\n"}, 3,
               "edge endpoints must be integers")
    yield ("depth-minus", {"a.fn": "fn depth=-1\n0 1\n1 2\n"}, 1, "bad depth")
    # int() read -2 as the last of full2's two vertices
    yield ("vmap-source-minus", {"a.oe": VMAP.format(-2, 1)}, 4,
           "bad vmap entry -2 1")
    yield ("vmap-target-minus", {"a.oe": VMAP.format(0, -1)}, 4,
           "bad vmap entry 0 -1")
    yield ("vmap-out-of-range", {"a.oe": VMAP.format(2, 1)}, 4,
           "bad vmap entry 2 1")


BAD_INTEGER_CASES = list(_bad_integer_cases())


@pytest.mark.parametrize("files, line, message", [
    ({"a.sft": "sft v1\nedges 2\n"}, 2, "expected 'vertices N'"),
    ({"a.sft": "sft v1\n"}, 1, "expected 'vertices N'"),
    ({"a.sft": "sft v1\nvertices x\n"}, 2, "bad vertex count"),
    ({"a.sft": "sft v1\nvertices 2\nedge 0\n"}, 3,
     "expected 'edge u v', got 'edge 0'"),
    ({"a.sft": "sft v1\nvertices 2\nedge 0 a\n"}, 3,
     "edge endpoints must be integers"),
    ({"a.fn": "fn depth=1\n0 1\nx 2\n"}, 3, "bad word 'x'"),
    ({"a.fn": "fn depth=1\n0 1\n5 2\n"}, 3, "symbol out of range in '5'"),
    ({"a.fn": "fn dep=1\n"}, 1, "expected header 'fn depth=d'"),
    ({"a.fn": "fn depth=x\n"}, 1, "bad depth"),
    ({"a.fn": "fn depth=1\n0 1 2\n"}, 2,
     "expected '<word> <int>', got '0 1 2'"),
    ({"a.fn": "fn depth=1\n0 x\n"}, 2, "bad integer 'x'"),
    ({"a.fn": "fn depth=1\n0 1\n"}, 1,
     "table must cover exactly the admissible 1-words (missing [(1,)], "
     "extra [])"),
    ({"a.oe": "oe v2\n"}, 1, "expected header 'oe v1'"),
    ({"a.oe": "oe v1\ncompose pe.oe\n"}, 2, "compose needs two files"),
    ({"a.oe": "oe v1\ncompose pe.oe gmid.oe\n", "gmid.oe": GMID}, 2,
     "the codomain of pe.oe is not the domain of gmid.oe"),
    ({"a.oe": PE + "map 0 1\n"}, 7, "map syntax is 'map u -> v'"),
    ({"a.oe": PE + "vmap 0\n"}, 7, "vmap syntax is 'vmap i j'"),
    ({"a.oe": PE + "bogus\n"}, 7, "unknown directive 'bogus'"),
    ({"a.oe": "oe v1\ndomain full2.sft\nmap 0 -> 0\n"}, 1,
     "need domain and codomain"),
    ({"a.oe": PE.replace("map 0", "vmap 0 x\nvmap 1 0\nmap 0", 1)}, 4,
     "bad vmap entry 0 x"),
    ({"a.oe": "oe v1\ndomain full2.sft\ncodomain full2.sft\nmap 0 -> 0\n"
              "map 10 -> 1\nmap 11 -> 1\n"}, 4,
     "invalid orbit equivalence: pairing must be a bijection"),
    ({"a.oe": "oe v1\ndomain loop.sft\ncodomain loop.sft\nmap - -> 0\n",
      "loop.sft": LOOP}, 4,
     "invalid orbit equivalence: empty word can only pair with empty word"),
    ({"a.oe": "oe v1\ndomain full2.sft\ncodomain full2.sft\n"}, 1,
     "invalid orbit equivalence: empty code"),
    ({"a.oe": PE.replace("map 0 -> 10", "map - -> -\nmap 0 -> 10")}, 4,
     "invalid orbit equivalence: the empty word must be the only code word"),
    ({"a.oe": PE.replace("full2", "golden")}, 4,
     "invalid orbit equivalence: code word (1, 1) not admissible"),
] + [case[1:] for case in BAD_INTEGER_CASES],
   ids=["no-vertices-line", "header-only", "bad-vertex-count",
        "short-edge-line", "non-integer-endpoint", "bad-word",
        "symbol-out-of-range", "bad-fn-header", "bad-depth",
        "long-fn-line", "bad-integer", "incomplete-table", "bad-oe-header",
        "compose-one-file", "compose-endpoints-differ", "map-without-arrow",
        "short-vmap-line", "unknown-directive", "no-codomain",
        "bad-vmap-entry", "pairing-not-bijective", "empty-word-paired",
        "empty-code", "empty-word-not-alone", "inadmissible-code-word"]
   + [case[0] for case in BAD_INTEGER_CASES])
def test_each_input_file_check_names_its_line(tree, capsys, monkeypatch,
                                              files, line, message):
    """Every check a file reader makes raises ParseError at the line it
    names, and the CLI prints that path:line and exits 2.  An integer
    field reads ASCII digits, with a "-" only where the value may be
    negative: any other spelling that int() takes is refused."""
    monkeypatch.chdir(tree)
    for name, text in files.items():
        (tree / name).write_text(text, encoding="utf-8")
    name = next(iter(files))
    kind = name.rsplit(".", 1)[1]
    with pytest.raises(ParseError) as exc:
        _READERS[kind](name)
    assert (exc.value.source, exc.value.line) == (name, line)
    assert str(exc.value) == f"{name}:{line}: {message}"
    assert main([*_VERBS[kind], name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name}:{line}: {message}\n"


@pytest.mark.parametrize("parse, text, message", [
    (sio.parse_point, "01", "<point>:1: point syntax is prefix/cycle"),
    (sio.parse_bipoint, "0|1", "<bipoint>:1: two-sided syntax is "
                               "leftcycle|middle|rightcycle@phase"),
    (sio.parse_bipoint, "0||1@x", "<bipoint>:1: bad phase 'x'"),
] + [(sio.parse_bipoint, f"0||1@{bad}", f"<bipoint>:1: bad phase {bad!r}")
     for bad in [*BAD_INTEGERS.values(), "--1", "-"]],
   ids=["point-without-slash", "bipoint-without-three-parts",
        "bipoint-bad-phase"]
   + [f"bipoint-phase-{name}"
      for name in [*BAD_INTEGERS, "two-minus", "minus-alone"]])
def test_point_syntax_errors(full2, parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(full2, text)
    assert str(exc.value) == message


@pytest.mark.parametrize("parse, name, text", [
    (sio.parse_presentation, "Presentation", FULL2),
    (lambda text: sio.parse_cylinder_function(text, full_shift(2)),
     "CylinderFunction", "fn depth=1\n0 1\n1 2\n"),
], ids=["presentation", "cylinder-function"])
def test_a_programming_error_in_a_parse_is_not_a_parse_error(monkeypatch,
                                                             parse, name,
                                                             text):
    """Only the faults the constructors report for bad input (SftError,
    ValueError) become a ParseError; anything else stays itself."""
    def broken(*args):
        raise RuntimeError("broken constructor")
    monkeypatch.setattr(sio, name, broken)
    with pytest.raises(RuntimeError, match="broken constructor"):
        parse(text)


@pytest.mark.parametrize("text, message", [
    ("sft v1\nvertices 0\n", "v.sft:2: a presentation needs at least one"),
    ("sft v1\nvertices -2\n", "v.sft:2: a presentation needs at least one"),
    ("sft v1\nvertices 1\nedge 0 0\nedge 0 0\n",
     "v.sft:4: edge 0 0 given twice"),
    ("sft v1\nvertices 2 9\nedge 0 0\nedge 0 1\nedge 1 0\n",
     "v.sft:2: expected 'vertices N', got 'vertices 2 9'"),
], ids=["no-vertices", "negative-vertices", "repeated-edge",
        "trailing-vertex-token"])
@pytest.mark.parametrize("argv", [
    ["invariants"], ["tower", "--f", "const:1"], ["positive", "--f", "const:1"],
    ["groupoid-check"],
], ids=["invariants", "tower", "positive", "groupoid-check"])
def test_cli_malformed_presentations_are_input_errors(tmp_path, capsys, text,
                                                      message, argv):
    """A presentation with no vertices, with a token after the vertex count,
    or with an edge given twice (vertex shifts have 0/1 adjacency), is a
    parse error (exit 2) naming the line, never a vacuous answer or a
    traceback."""
    (tmp_path / "v.sft").write_text(text)
    rc = main([argv[0], str(tmp_path / "v.sft"), *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("verb, flags", [
    ("move", ["--kind", "out_split", "--vertex", "0", "--parts", "0;1"]),
    ("tower", ["--f", "const:2"]),
])
def test_cli_out_to_a_directory_is_an_input_error(tree, capsys, verb, flags):
    rc = main([verb, str(tree / "full2.sft")] + flags + ["--out", str(tree)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_cli_potential_checks_kappa_before_printing(tree, capsys,
                                                   monkeypatch):
    """A potential with a negative slack is a verification failure (exit 1)
    with nothing on stdout, not a printed kappa."""
    from sftkit import cli
    from sftkit.cohomology import Potential
    monkeypatch.setattr(cli, "find_potential",
                        lambda W: Potential(dict.fromkeys(W.nodes, 0)))
    rc = main(["potential", str(tree / "full2.sft"), "--f", "const:-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verified false: potential check failed\n"


def test_groupoid_check_fails_under_optimize(tree):
    """A broken cocycle law exits 1 even under python -O, which strips
    assert statements."""
    code = ("import sys; from sftkit import cli; "
            "cli.groupoid_cocycle_eval = lambda g, eta: 1; "
            f"sys.exit(cli.main(['groupoid-check', {str(tree / 'golden.sft')!r}, "
            "'--samples', '5']))")
    src = os.path.dirname(os.path.dirname(sftkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "verified false: additivity failed" in proc.stderr


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "sftkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sftkit" in proc.stdout


def _rings(*sizes):
    """The sft text of one cycle of each size, each joined to the next by
    one arc."""
    edges, start = [], 0
    for n in sizes:
        if start:
            edges.append((start - 1, start))
        edges += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return f"sft v1\nvertices {start}\n" + "".join(
        f"edge {a} {b}\n" for a, b in edges)


@pytest.mark.parametrize("sft", [_rings(5), _rings(5, 6)],
                         ids=["5-cycle", "reducible-5-and-6-cycles"])
@pytest.mark.parametrize("verb", ["pipeline", "verify-claims"])
def test_cli_claims_on_a_shift_with_no_short_cycle(tmp_path, capsys,
                                                   monkeypatch, sft, verb):
    """The sample points need cycles of the least length the graph has,
    not of a length the sampler fixes: the identity on a shift whose
    shortest cycle has length 5 is checked, and passes."""
    monkeypatch.chdir(tmp_path)
    n = int(sft.split()[3])
    (tmp_path / "c.sft").write_text(sft)
    (tmp_path / "id.oe").write_text(
        "oe v1\ndomain c.sft\ncodomain c.sft\n"
        + "".join(f"map {i}{'.' * (i >= 10)} -> {i}{'.' * (i >= 10)}\n"
                  for i in range(n)))
    assert main([verb, "id.oe", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert _claim_counts(verb, payload) == (0, 0)
    if verb == "pipeline":
        assert payload["claims_checked"] > 0
        if n == 5:
            assert payload["claims_checked"] == 152
    else:
        assert payload["claims"]


def test_words_of_vertices_ten_and_up_round_trip():
    """A one-symbol word of index >= 10 ends in a dot, so (10,) and (1, 0)
    print apart; every other word prints as before."""
    P = full_shift(12)
    assert sio.format_word(P, (10,)) == "10."
    assert sio.format_word(P, (1, 0)) == "10"
    assert sio.format_word(P, (1, 10)) == "1.10"
    assert sio.format_word(P, (9,)) == "9"
    assert sio.format_word(P, ()) == "-"
    assert sio.parse_word(P, "10.") == (10,)
    assert sio.parse_word(P, "10") == (1, 0)
    assert sio.parse_word(P, "-") == ()
    for m in (1, 2, 3):
        for w in P.words(m):
            assert sio.parse_word(P, sio.format_word(P, w)) == w


@pytest.mark.parametrize("text", ["+1.-0", "\u0661\u0662", "1. 2", "1_0."],
                         ids=["signs", "arabic-indic", "inner-space",
                              "underscore"])
def test_words_take_ascii_digits_only(text):
    """parse_word reads what format_word writes; int() would also take
    each of these, which format_word never writes."""
    with pytest.raises(ParseError) as exc:
        sio.parse_word(full_shift(12), text, "w.txt", 4)
    assert (exc.value.source, exc.value.line) == ("w.txt", 4)


def test_lines_end_at_newline_only():
    """A form feed, or any other break of str.splitlines, inside a line
    does not start a new one, so line numbers count "\n" as _read_text
    does; "\r\n" files still read."""
    edges = "edge 0 0\nedge 0 1\nedge 1 0\n"
    for brk in ("\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029"):
        with pytest.raises(ParseError) as exc:
            sio.parse_presentation(f"sft v1\nvertices 2{brk}edge 0 0\n"
                                   + edges)
        assert exc.value.line == 2, repr(brk)
        # what follows the break is still part of the comment
        commented = f"sft v1\nvertices 2\n{edges}# note{brk}edge 1 1\n"
        assert sio.parse_presentation(commented) == golden_mean(), repr(brk)
    crlf = ("sft v1\nvertices 2\n" + edges).replace("\n", "\r\n")
    assert sio.parse_presentation(crlf) == golden_mean()


@pytest.mark.parametrize("depth", [1, 2])
def test_fn_files_round_trip_on_twelve_vertices(tmp_path, capsys,
                                                monkeypatch, depth):
    P = full_shift(12)
    f = CylinderFunction.on_words(
        P, depth, [1 + len(w) + sum(w) % 3 for w in P.words(depth)])
    text = sio.format_cylinder_function(P, f)
    assert sio.parse_cylinder_function(text, P) == f
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f12.sft").write_text(sio.format_presentation(P))
    (tmp_path / "g.fn").write_text(text)
    assert main(["positive", "f12.sft", "--f", "g.fn"]) == 0
    assert "certificate positive" in capsys.readouterr().out


def test_oe_files_map_vertices_ten_and_up(tmp_path):
    """An exchange of the one-symbol code words 10 and 11 on the full
    12-shift is written and read back."""
    P = full_shift(12)
    pairing = {(i,): (i,) for i in range(10)}
    pairing.update({(10,): (11,), (11,): (10,)})
    h = sftkit.OrbitEquivalence(sftkit.prefix_exchange(P, pairing))
    (tmp_path / "f12.sft").write_text(sio.format_presentation(P))
    text = sio.format_orbit_equivalence(h, "f12.sft", "f12.sft")
    assert "map 10. -> 11.\n" in text
    (tmp_path / "x.oe").write_text(text)
    again = sio.read_orbit_equivalence(str(tmp_path / "x.oe"))
    x = EvPerPoint.make(P, (10, 3), (11,))
    assert again(x) == h(x) == EvPerPoint.make(P, (11, 3), (11,))


@pytest.mark.parametrize("files, name, line", [
    ({"a.sft": b"sft v1\nvertices 2\nedge 0 0 \xff\n"}, "a.sft", 3),
    ({"a.fn": b"fn depth=1\n\xff 1\n1 2\n"}, "a.fn", 2),
    ({"a.oe": b"oe v1\ndomain full2.sft\n# caf\xe9\n"}, "a.oe", 3),
    ({"a.oe": b"oe v1\ndomain bad.sft\ncodomain full2.sft\nmap 0 -> 0\n"
              b"map 1 -> 1\n",
      "bad.sft": b"sft v1\xff\nvertices 2\n"}, "bad.sft", 1),
], ids=["sft", "fn", "oe", "oe-domain"])
def test_input_files_that_are_not_utf8_are_parse_errors(
        tree, capsys, monkeypatch, files, name, line):
    """A byte that does not decode as UTF-8 is a ParseError at the file and
    line that hold it, and the CLI exits 2, not with a traceback."""
    monkeypatch.chdir(tree)
    for path, data in files.items():
        (tree / path).write_bytes(data)
    first = next(iter(files))
    kind = first.rsplit(".", 1)[1]
    with pytest.raises(ParseError) as exc:
        _READERS[kind](first)
    # a domain file is named by its path relative to the .oe file
    assert (os.path.basename(exc.value.source), exc.value.line) == (name, line)
    assert main([*_VERBS[kind], first]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{name}:{line}: not UTF-8: byte 0x" in captured.err



def test_signed_integer_fields_read_a_minus(full2):
    b = sio.parse_bipoint(full2, "0||1@-3")
    assert b == BiPoint.make(full2, (0,), (), (1,), -3)
    f = sio.parse_cylinder_function("fn depth=1\n0 -12\n1 0\n", full2)
    assert f == CylinderFunction.from_values(full2, {"0": -12, "1": 0})


def test_files_the_writers_write_read_back_on_twelve_vertices(tmp_path):
    """Presentations, functions with negative values and relabelled
    exchanges on the full 12-shift read back as the same text."""
    P = full_shift(12)
    text = sio.format_presentation(P)
    assert "edge 11 10\n" in text
    assert sio.parse_presentation(text) == P
    f = CylinderFunction.on_words(
        P, 1, [(-1) ** i * 10 * i for i in range(12)])
    fn = sio.format_cylinder_function(P, f)
    assert "11. -110\n" in fn
    assert sio.parse_cylinder_function(fn, P) == f
    (tmp_path / "f12.sft").write_text(text)
    oe = ("oe v1\ndomain f12.sft\ncodomain f12.sft\n"
          + "".join(f"vmap {i} {11 - i}\n" for i in range(12))
          + "".join(f"map {w} -> {w}\n" for w in (
              *map(str, range(10)), "10.", "11.")))
    (tmp_path / "x.oe").write_text(oe)
    h = sio.read_orbit_equivalence(str(tmp_path / "x.oe"))
    assert sio.format_orbit_equivalence(h, "f12.sft", "f12.sft") == oe


def test_a_vertex_count_the_edges_cannot_cover_builds_no_shift(monkeypatch):
    """At most len(edges) vertices have an out-edge, so a larger count is
    refused before Presentation builds an entry per vertex."""
    def refuse(*args):
        raise AssertionError("Presentation constructed")
    monkeypatch.setattr(sio, "Presentation", refuse)
    for text, row in [("sft v1\nvertices 1000000000\n", 0),
                      ("sft v1\nvertices 10000000000\nedge 0 1\n"
                       "edge 1 0\n", 2),
                      ("sft v1\nvertices 3\nedge 0 0\nedge 2 2\n", 1)]:
        with pytest.raises(ParseError) as exc:
            sio.parse_presentation(text, "v.sft")
        last = text.count("\n")
        assert str(exc.value) == (f"v.sft:{last}: row {row} of the adjacency "
                                  "matrix is zero")
