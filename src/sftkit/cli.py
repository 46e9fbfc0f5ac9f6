"""Command line front end.

Exit codes: 0 success / verified, 1 verified false (counterexamples in the
output), 2 input error, 3 inconclusive round trip (pipeline and
verify-claims).  Cocycles are derived as deep as the map's stages prove,
with no depth option.  All output is deterministic for fixed inputs and
flags; --json emits json.dumps's sorted, two-space-indented text of exact
values only: dicts, lists, str, int, bool and None (_json_text).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from . import io as sio
from .cohomology import (
    NegativeCycleWitness,
    class_is_positive,
    find_potential,
    groupoid_cocycle_eval,
    transition_graph,
)
from .cylinders import CylinderFunction
from .errors import (
    InvalidPartition,
    LeastPeriodViolation,
    NotPositiveClass,
    SftError,
    VerificationFailed,
)
from .flow import Tower, TowerSpec, bowen_franks, graph_move
from .groupoid import compose, invert, make_element, unit
from .orbit import coe_to_flow_pipeline, derive_cocycle_pair, verify_coe
from .samples import random_bipoints, random_point
from .suspension import quarter_grid, verify_flow_claims

OK, FALSIFIED, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3


class _BadArgument(SftError):
    """A command-line value the command cannot use."""


def _json_text(payload) -> str:
    """Exactly json.dumps(payload, sort_keys=True, indent=2) for a dict or
    list of exact values: dicts with str keys, lists, and str, int, bool and
    None leaves, written inline in one pass over the tree.  Anything else (a
    float, a tuple, a subclass, a Fraction, any other object or key) raises
    TypeError naming its type, so no inexact value reaches --json.
    """
    out = []
    put = out.append
    quote = json.encoder.encode_basestring_ascii

    def write(o, nl):
        """Append the dict or list o; nl is its line's newline and indent."""
        t = type(o)
        if t is not dict and t is not list:
            raise TypeError(f"--json cannot write a {t.__name__}")
        if not o:
            return put("{}" if t is dict else "[]")
        inner = nl + "  "
        if t is dict:
            sep = "{" + inner
            for k, v in sorted(o.items()):
                if type(k) is not str:
                    raise TypeError(f"--json cannot write a "
                                    f"{type(k).__name__} key")
                tv = type(v)
                if tv is str:
                    put(sep + quote(k) + ": " + quote(v))
                else:
                    put(sep + quote(k) + ": ")
                    if tv is int:
                        put(int.__repr__(v))
                    elif tv is bool:
                        put("true" if v else "false")
                    elif v is None:
                        put("null")
                    else:
                        write(v, inner)
                sep = "," + inner
            put(nl + "}")
        else:
            sep = "[" + inner
            for v in o:
                tv = type(v)
                if tv is str:
                    put(sep + quote(v))
                else:
                    put(sep)
                    if tv is int:
                        put(int.__repr__(v))
                    elif tv is bool:
                        put("true" if v else "false")
                    elif v is None:
                        put("null")
                    else:
                        write(v, inner)
                sep = "," + inner
            put(nl + "]")

    write(payload, "\n")
    return "".join(out)


def _emit(args, payload, text_lines):
    if args.json:
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _require(ok: bool, what: str):
    if not ok:
        raise VerificationFailed(f"{what} failed")


def _load_fn(spec: str, P):
    if spec.startswith("const:"):
        try:
            value = int(spec.split(":", 1)[1])
        except ValueError:
            raise _BadArgument(
                f"--f {spec!r}: const: needs an integer") from None
        return CylinderFunction.constant(P, value)
    if spec.startswith("file:"):
        spec = spec.split(":", 1)[1]
    return sio.read_cylinder_function(spec, P)


def cmd_invariants(args):
    P = sio.read_presentation(args.sft)
    rep = bowen_franks(P)
    _emit(args, {"snf": list(rep.snf_diagonal), "det": rep.det}, [str(rep)])
    return OK


def cmd_language(args):
    P = sio.read_presentation(args.sft)
    words = P.words(args.m)
    _emit(args, {"m": args.m, "words": [sio.format_word(P, w) for w in words]},
          [sio.format_word(P, w) for w in words])
    return OK


def cmd_tower(args):
    P = sio.read_presentation(args.sft)
    f = _load_fn(args.f, P)
    tower = Tower(TowerSpec(P, f))
    text = sio.format_presentation(tower.presentation)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    lines = [] if args.out else [text.rstrip()]
    payload = {"vertices": len(tower.presentation.labels),
               "file": args.out or None}
    preserved = True
    if args.check_invariants:
        before, after = bowen_franks(P), bowen_franks(tower.presentation)
        preserved = before == after
        payload.update({"det_before": before.det, "det_after": after.det,
                        "preserved": preserved})
        lines.append(f"det preserved: {str(preserved).lower()}")
    _emit(args, payload, lines)
    return OK if preserved else FALSIFIED


def _vertex_label(P, index):
    """The label of the vertex with this index, as --vertex and --parts
    give it."""
    text = index.strip()
    # ASCII digits only, as sftkit.io reads vertex indices in files
    if not (text.isascii() and text.isdigit() and int(text) < len(P.labels)):
        raise InvalidPartition(
            f"{index} is not a vertex index (0..{len(P.labels) - 1})")
    return P.labels[int(text)]


def _parse_parts(P, text):
    return [[_vertex_label(P, i) for i in part.split(",") if i != ""]
            for part in text.split(";")]


def cmd_move(args):
    P = sio.read_presentation(args.sft)
    vertex = _vertex_label(P, args.vertex)
    parts = _parse_parts(P, args.parts) if args.parts is not None else None
    Q = graph_move(P, args.kind, vertex, parts)
    text = sio.format_presentation(Q)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(args, {"file": args.out, "vertices": len(Q.labels)},
              [f"wrote {args.out}"])
    else:
        _emit(args, {"vertices": len(Q.labels), "sft": text},
              [text.rstrip()])
    return OK


def cmd_potential(args):
    P = sio.read_presentation(args.sft)
    f = _load_fn(args.f, P)
    W = transition_graph(P, f)
    res = find_potential(W)
    if isinstance(res, NegativeCycleWitness):
        _emit(args, {"result": "negative-cycle", "sum": res.total,
                     "arcs": [sio.format_word(P, a.tag) for a in res.cycle]},
              [sio.format_negative_cycle(P, res).rstrip()])
        return FALSIFIED
    _require(res.is_valid_for(W), "potential check")
    lines = [f"{sio.format_word(P, v)} {res.kappa[v]}"
             for v in P.sorted_words(res.kappa)]
    _emit(args, {"result": "potential",
                 "kappa": {sio.format_word(P, v): res.kappa[v]
                           for v in res.kappa}},
          ["potential"] + lines)
    return OK


def cmd_positive(args):
    P = sio.read_presentation(args.sft)
    f = _load_fn(args.f, P)
    res = class_is_positive(P, f)
    if isinstance(res, NegativeCycleWitness):
        _emit(args, {"result": "not-positive", "sum": res.total,
                     "arcs": [sio.format_word(P, a.tag) for a in res.cycle]},
              [sio.format_negative_cycle(P, res).rstrip()])
        return FALSIFIED
    _require(res.verify(f), "certificate check")
    _emit(args, {"result": "positive",
                 "b": {sio.format_word(P, w): v
                       for w, v in res.witness_b.table.items()},
                 "n": {sio.format_word(P, w): v
                       for w, v in res.nonneg.table.items()}},
          [sio.format_certificate(P, res).rstrip()])
    return OK


def cmd_derive_cocycles(args):
    h = sio.read_orbit_equivalence(args.oe)
    pair = derive_cocycle_pair(h)
    P = h.domain
    lines = [f"depth {pair.depth}"]
    for w in P.sorted_words(pair.k.table):
        lines.append(f"{sio.format_word(P, w)} k={pair.k.table[w]} "
                     f"l={pair.l.table[w]}")
    _emit(args, {"depth": pair.depth,
                 "k": {sio.format_word(P, w): v for w, v in pair.k.table.items()},
                 "l": {sio.format_word(P, w): v for w, v in pair.l.table.items()}},
          lines)
    return OK


def cmd_verify_coe(args):
    h = sio.read_orbit_equivalence(args.oe)
    pair = derive_cocycle_pair(h)
    pair_prime = derive_cocycle_pair(h.inverse())
    rep = verify_coe(h, pair, pair_prime)
    lines = [f"verified: {str(rep.verified).lower()}",
             f"least-period preserving: "
             f"{str(rep.least_period_preserving).lower()} (all periods; "
             f"{rep.lp_checked_cycles} poor orbits checked directly)"]
    for x, want, got in rep.lp_witnesses[:10]:
        lines.append(f"period violated at {x}: lp(h(x))={want}, sum={got}")
    _emit(args, rep.as_dict(), lines)
    return OK if rep.least_period_preserving else FALSIFIED


def _claims_exit(rep):
    """FALSIFIED if a claim fails outright; INCONCLUSIVE if every failed
    claim is a round trip whose shift search found nothing within its
    bound; OK otherwise."""
    if any(r.parameters.get("found") != "inconclusive" for r in rep.failures):
        return FALSIFIED
    return INCONCLUSIVE if rep.failures else OK


def cmd_pipeline(args):
    h = sio.read_orbit_equivalence(args.oe)
    D = coe_to_flow_pipeline(h, scoe=args.scoe)
    sample = random_bipoints(random.Random(args.seed), h.domain, args.samples)
    rep = verify_flow_claims(D, sample)
    summary = {
        "cocycle_depth": D.k.depth,
        "n_max": D.n.max_value(),
        "b_shift_constants": list(D.shift_constants),
        "claims_checked": len(rep.results),
        "claims_failed": len(rep.failures),
        "inconclusive": len(rep.inconclusive),
        "results": rep.as_list() if args.json else None,
    }
    lines = [f"cocycle depth: {D.k.depth}",
             f"claims checked: {len(rep.results)}",
             f"claims failed: {len(rep.failures)}"]
    for r in rep.failures[:10]:
        lines.append(f"FAIL {r.claim} at {r.point} {r.parameters}: "
                     f"{r.lhs} != {r.rhs}")
    _emit(args, summary, lines)
    return _claims_exit(rep)


def cmd_verify_claims(args):
    h = sio.read_orbit_equivalence(args.oe)
    D = coe_to_flow_pipeline(h)
    sample = random_bipoints(random.Random(args.seed), h.domain, args.samples)
    grid = quarter_grid(args.t_grid[0], args.t_grid[1])
    rep = verify_flow_claims(D, sample, j_range=tuple(args.j_range),
                             t_grid=grid)
    total = Counter(r.claim for r in rep.results)
    passed = Counter(r.claim for r in rep.results if r.passed)
    lines = [f"{c}: {passed[c]}/{total[c]} pass" for c in sorted(total)]
    _emit(args, {"claims": rep.as_list()}, lines)
    return _claims_exit(rep)


def cmd_groupoid_check(args):
    P = sio.read_presentation(args.sft)
    rng = random.Random(args.seed)
    checks = {"axioms": 0, "cocycle": 0}
    for _ in range(args.samples):
        x = random_point(rng, P)
        # a composable triple through shifted tails of one orbit
        a = make_element(x, 1, x.shift(1))
        b = make_element(x.shift(1), 2, x.shift(3))
        c = make_element(x.shift(3), -3, x)
        ab_c = compose(compose(a, b), c)
        a_bc = compose(a, compose(b, c))
        _require(ab_c == a_bc, "associativity")
        _require(compose(a, invert(a)) == unit(x), "inverse law")
        _require(compose(unit(x), a) == a, "left unit")
        checks["axioms"] += 1
        g = CylinderFunction(P, 1, {w: rng.randint(-2, 2)
                                    for w in P.words(1)})
        val = groupoid_cocycle_eval(g, compose(a, b))
        _require(val == (groupoid_cocycle_eval(g, a)
                         + groupoid_cocycle_eval(g, b)), "additivity")
        _require(groupoid_cocycle_eval(g, invert(a))
                 == -groupoid_cocycle_eval(g, a), "inversion")
        _require(groupoid_cocycle_eval(g.coboundary(), a)
                 == g(a.range_pt) - g(a.source_pt), "coboundary law")
        checks["cocycle"] += 1
    _emit(args, {"samples": args.samples, "checks": checks},
          [f"groupoid axioms: {checks['axioms']} samples ok",
           f"cocycle laws: {checks['cocycle']} samples ok"])
    return OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sftkit",
        description="exact toolkit for shifts of finite type: cohomology "
                    "positivity, orbit-equivalence cocycles, and the "
                    "orbit-to-flow pipeline")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("invariants", help="Smith form and det of I - A")
    p.add_argument("sft")
    common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("language", help="admissible words of a length")
    p.add_argument("sft")
    p.add_argument("-m", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_language)

    p = sub.add_parser("tower", help="build the discrete tower over a shift")
    p.add_argument("sft")
    p.add_argument("--f", required=True,
                   help="floor function: const:N or a fn file")
    p.add_argument("--check-invariants", action="store_true")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("move", help="graph moves (out- and in-splits)")
    p.add_argument("sft")
    p.add_argument("--kind", required=True, choices=["out_split", "in_split"])
    p.add_argument("--vertex", required=True)
    p.add_argument("--parts", help="e.g. '0,1;2' (vertex indices)")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("potential", help="node potential or negative cycle")
    p.add_argument("sft")
    p.add_argument("--f", required=True)
    common(p)
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("positive", help="positivity certificate for a class")
    p.add_argument("sft")
    p.add_argument("--f", required=True)
    common(p)
    p.set_defaults(fn=cmd_positive)

    p = sub.add_parser("derive-cocycles", help="minimal cocycle pair of an OE")
    p.add_argument("oe")
    common(p)
    p.set_defaults(fn=cmd_derive_cocycles)

    p = sub.add_parser("verify-coe",
                       help="verify the cocycle identities and least periods")
    p.add_argument("oe")
    common(p)
    p.set_defaults(fn=cmd_verify_coe)

    p = sub.add_parser("pipeline", help="orbit equivalence to flow data")
    p.add_argument("oe")
    p.add_argument("--scoe", action="store_true",
                   help="prefer the strong-equivalence decomposition")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("verify-claims", help="flow-claim report for an OE")
    p.add_argument("oe")
    p.add_argument("--j-range", type=int, nargs=2, default=[-4, 4])
    p.add_argument("--t-grid", type=int, nargs=2, default=[-2, 2],
                   help="quarter-step grid endpoints")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify_claims)

    p = sub.add_parser("groupoid-check", help="groupoid axiom spot checks")
    p.add_argument("sft")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_groupoid_check)

    return ap


def _check_args(args):
    """Reject counts and ranges that would leave a command nothing to check
    or crash it."""
    for name, flag in (("m", "-m"), ("samples", "--samples")):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise _BadArgument(f"{flag} must be at least 1, got {value}")
    for name, flag in (("j_range", "--j-range"), ("t_grid", "--t-grid")):
        lo, hi = getattr(args, name, (0, 0))
        if lo > hi:
            raise _BadArgument(f"{flag} {lo} {hi} is empty: {lo} > {hi}")


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except (LeastPeriodViolation, NotPositiveClass, VerificationFailed) as e:
        print(f"verified false: {e}", file=sys.stderr)
        return FALSIFIED
    except (OSError, SftError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
