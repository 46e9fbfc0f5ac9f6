"""Text formats: presentations, cylinder functions, certificates, orbit
equivalences, and the point syntax used on the command line.

Presentation files::

    sft v1
    vertices 3
    edge 0 1
    # comments allowed

A presentation needs at least one vertex, and each edge is given once:
vertex shifts have 0/1 adjacency.

Cylinder functions::

    fn depth=2
    01 3

Words are vertex indices, written as plain digit strings when every index
is below ten and dot-separated otherwise; a word of one index of ten or
more ends in a dot, so that "10." is (10,) and "10" is (1, 0).  The empty
word is "-".  Points read  prefix/cycle ; two-sided points
leftcycle|middle|rightcycle@phase .

Every integer is read as the writers write it, in ASCII digits.  Vertex
indices (in words, edge and vmap lines) and the depth take no sign;
function values and the phase may start with "-", and so may the vertex
count, which is then an error for having no vertex.  No other spelling
is read: no "+", no "_", no inner or surrounding space, no other decimal
digits.

Files are read as UTF-8; a byte that does not decode is a ParseError at
its line.
"""

from __future__ import annotations

import os

from .cylinders import CylinderFunction
from .cohomology import NegativeCycleWitness, PositivityCertificate
from .errors import InvalidVertexMap, ParseError, SftError, ZeroRowOrColumn
from .maps import BlockStage, PrefixExchangeStage, prefix_exchange
from .orbit import OrbitEquivalence
from .points import BiPoint, EvPerPoint
from .presentation import Presentation, Word


def _lines(text, source):
    """(line number, content) of each line that is not blank or a comment.
    Lines end at "\n" only, as _read_text counts them; a "\r" before it
    is stripped with the other surrounding whitespace."""
    for ln, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _integer(text: str, source, ln, message, signed=False) -> int:
    """The int that text spells in ASCII digits, after one leading "-" when
    signed; any other spelling is a ParseError at line ln."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(source, ln, message)
    return int(text)


def parse_presentation(text: str, source="<sft>") -> Presentation:
    lines = list(_lines(text, source))
    if not lines or lines[0][1] != "sft v1":
        raise ParseError(source, 1, "expected header 'sft v1'")
    if len(lines) < 2 or not lines[1][1].startswith("vertices "):
        # the second line, or the header when the file ends there
        raise ParseError(source, lines[:2][-1][0], "expected 'vertices N'")
    parts = lines[1][1].split()
    if len(parts) != 2:
        raise ParseError(source, lines[1][0],
                         f"expected 'vertices N', got {lines[1][1]!r}")
    # signed: a negative count is reported as a presentation with no vertex
    n = _integer(parts[1], source, lines[1][0], "bad vertex count",
                 signed=True)
    edges = set()
    for ln, line in lines[2:]:
        parts = line.split()
        if parts[0] != "edge" or len(parts) != 3:
            raise ParseError(source, ln, f"expected 'edge u v', got {line!r}")
        u, v = (_integer(p, source, ln, "edge endpoints must be integers")
                for p in parts[1:])
        if u >= n or v >= n:
            raise ParseError(source, ln, "edge endpoint out of range")
        if (u, v) in edges:
            # vertex shifts have 0/1 adjacency: a second u -> v is no edge
            raise ParseError(source, ln, f"edge {u} {v} given twice")
        edges.add((u, v))
    # Presentation builds an entry per vertex before it finds a zero row,
    # so a count the edges cannot cover fails here: at most len(edges)
    # vertices have an out-edge
    sources = {u for u, _ in edges}
    for i in range(min(n, len(edges) + 1)):
        if i not in sources:
            raise ParseError(source, lines[-1][0],
                             str(ZeroRowOrColumn("row", i)))
    try:
        return Presentation(range(n), edges)
    except (SftError, ValueError) as e:
        raise ParseError(source, lines[-1][0] if lines else 1, str(e))


def format_presentation(P: Presentation) -> str:
    idx = {v: i for i, v in enumerate(P.labels)}
    out = ["sft v1", f"vertices {len(P.labels)}"]
    for a, b in sorted((idx[a], idx[b]) for a, b in P.edges):
        out.append(f"edge {a} {b}")
    return "\n".join(out) + "\n"


def format_word(P: Presentation, w: Word) -> str:
    idx = [str(P.index(s)) for s in w]
    if all(len(i) == 1 for i in idx):
        return "".join(idx) or "-"
    return ".".join(idx) + ("." if len(idx) == 1 else "")


def parse_word(P: Presentation, text: str, source="<word>", ln=1) -> Word:
    text = text.strip()
    if text in ("", "-"):
        return ()
    if "." in text:
        parts = text.removesuffix(".").split(".")
    else:
        parts = list(text)
    idx = [_integer(p, source, ln, f"bad word {text!r}") for p in parts]
    if any(not (0 <= i < len(P.labels)) for i in idx):
        raise ParseError(source, ln, f"symbol out of range in {text!r}")
    return tuple(P.labels[i] for i in idx)


def parse_cylinder_function(text: str, P: Presentation,
                            source="<fn>") -> CylinderFunction:
    lines = list(_lines(text, source))
    if not lines or not lines[0][1].startswith("fn depth="):
        raise ParseError(source, 1, "expected header 'fn depth=d'")
    depth = _integer(lines[0][1].split("=", 1)[1], source, lines[0][0],
                     "bad depth")
    table = {}
    for ln, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(source, ln, f"expected '<word> <int>', got {line!r}")
        w = parse_word(P, parts[0], source, ln)
        if w in table:
            raise ParseError(source, ln, f"word {parts[0]!r} given twice")
        table[w] = _integer(parts[1], source, ln, f"bad integer {parts[1]!r}",
                            signed=True)
    try:
        return CylinderFunction(P, depth, table)
    except (SftError, ValueError) as e:
        raise ParseError(source, lines[0][0], str(e))


def format_cylinder_function(P: Presentation, f: CylinderFunction) -> str:
    out = [f"fn depth={f.depth}"]
    for w in P.sorted_words(f.table):
        out.append(f"{format_word(P, w)} {f.table[w]}")
    return "\n".join(out) + "\n"


def format_certificate(P: Presentation, cert: PositivityCertificate) -> str:
    return ("certificate positive\n"
            + "b:\n" + format_cylinder_function(P, cert.witness_b)
            + "n:\n" + format_cylinder_function(P, cert.nonneg))


def format_negative_cycle(P: Presentation, w: NegativeCycleWitness) -> str:
    arcs = " ".join(format_word(P, a.tag) if isinstance(a.tag, tuple)
                    else f"{a.source}->{a.target}" for a in w.cycle)
    return f"negative-cycle sum={w.total}\narcs {arcs}\n"


def parse_point(P: Presentation, text: str, source="<point>") -> EvPerPoint:
    if "/" not in text:
        raise ParseError(source, 1, "point syntax is prefix/cycle")
    pre, cyc = text.split("/", 1)
    return EvPerPoint.make(P, parse_word(P, pre, source),
                           parse_word(P, cyc, source))


def format_point(P: Presentation, p: EvPerPoint) -> str:
    return f"{format_word(P, p.prefix)}/{format_word(P, p.cycle)}"


def parse_bipoint(P: Presentation, text: str, source="<bipoint>") -> BiPoint:
    body, _, phase = text.partition("@")
    parts = body.split("|")
    if len(parts) != 3:
        raise ParseError(source, 1,
                         "two-sided syntax is leftcycle|middle|rightcycle@phase")
    lc, mid, rc = (parse_word(P, p, source) for p in parts)
    ph = _integer(phase, source, 1, f"bad phase {phase!r}",
                  signed=True) if phase else 0
    return BiPoint.make(P, lc, mid, rc, ph)


def _read_text(path: str) -> str:
    """The file's text as UTF-8; a byte that does not decode is a
    ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(path, data.count(b"\n", 0, e.start) + 1,
                         f"not UTF-8: byte 0x{data[e.start]:02x}")


def read_presentation(path: str) -> Presentation:
    return parse_presentation(_read_text(path), path)


def read_cylinder_function(path: str, P: Presentation) -> CylinderFunction:
    return parse_cylinder_function(_read_text(path), P, path)


def read_orbit_equivalence(path: str) -> OrbitEquivalence:
    """Orbit-equivalence files.

    ::

        oe v1
        domain golden.sft
        codomain golden.sft
        map 0 -> 10
        map 10 -> 0
        map 11 -> 11

    or a composition of two files::

        oe v1
        compose first.oe second.oe

    Optional ``vmap i j`` lines, one per domain vertex, give a vertex map
    pi (a graph isomorphism, or an automorphism when domain and codomain
    are equal); then ``map u -> v`` means h(u t) = v pi(t), with u in
    domain indices and v in codomain indices.  Without vmap lines it
    means h(u t) = v t, and differing domain and codomain files have
    their vertices matched index by index.

    Paths are resolved relative to the file.  A file that composes itself,
    directly or through others, is a ParseError, and so is a composition
    whose first file's codomain is not the second's domain (compose line),
    a bad vertex map (first vmap line, else codomain line) or a bad code
    (first map line).
    """
    return _read_orbit_equivalence(path, ())


def _read_orbit_equivalence(path: str, opening) -> OrbitEquivalence:
    """read_orbit_equivalence with the real paths of the files whose
    compose lines are being read, outermost first."""
    text = _read_text(path)
    base = os.path.dirname(os.path.abspath(path))
    lines = list(_lines(text, path))
    if not lines or lines[0][1] != "oe v1":
        raise ParseError(path, 1, "expected header 'oe v1'")
    body = lines[1:]
    if body and body[0][1].startswith("compose "):
        parts = body[0][1].split()
        if len(parts) != 3:
            raise ParseError(path, body[0][0], "compose needs two files")
        opening += (os.path.realpath(path),)
        first, second = (os.path.join(base, p) for p in parts[1:])
        for real in map(os.path.realpath, (first, second)):
            if real in opening:
                cycle = opening[opening.index(real):] + (real,)
                raise ParseError(path, body[0][0],
                                 "compose cycle: " + " -> ".join(cycle))
        h, g = (_read_orbit_equivalence(p, opening) for p in (first, second))
        if h.codomain != g.domain:
            raise ParseError(path, body[0][0], f"the codomain of {parts[1]} "
                             f"is not the domain of {parts[2]}")
        return h.compose(g)
    sides = {}
    pairs = []
    vmap_rows = []
    for ln, line in body:
        if line.startswith(("domain ", "codomain ")):
            key, name = line.split(None, 1)
            if key in sides:
                raise ParseError(path, ln, f"{key} given twice")
            sides[key] = ln, read_presentation(os.path.join(base, name))
        elif line.startswith("map "):
            rest = line[4:]
            if "->" not in rest:
                raise ParseError(path, ln, "map syntax is 'map u -> v'")
            u, v = (s.strip() for s in rest.split("->", 1))
            pairs.append((ln, u, v))
        elif line.startswith("vmap "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(path, ln, "vmap syntax is 'vmap i j'")
            vmap_rows.append((ln, parts[1], parts[2]))
        else:
            raise ParseError(path, ln, f"unknown directive {line!r}")
    if len(sides) != 2:
        raise ParseError(path, 1, "need domain and codomain")
    (_, domain), (codomain_ln, codomain) = sides["domain"], sides["codomain"]
    pairing = {}
    for ln, u, v in pairs:
        w = parse_word(domain, u, path, ln)
        if w in pairing:
            raise ParseError(path, ln, f"map {u!r} given twice")
        pairing[w] = parse_word(codomain, v, path, ln)
    vertex_map = None
    if vmap_rows:
        vertex_map = {}
        for ln, i, j in vmap_rows:
            bad = f"bad vmap entry {i} {j}"
            a, b = (_integer(x, path, ln, bad) for x in (i, j))
            if a >= len(domain.labels) or b >= len(codomain.labels):
                raise ParseError(path, ln, bad)
            v, image = domain.labels[a], codomain.labels[b]
            if v in vertex_map:
                raise ParseError(path, ln, f"vmap {i} given twice")
            vertex_map[v] = image
    elif domain != codomain:
        vertex_map = dict(zip(domain.labels, codomain.labels))
    try:
        return OrbitEquivalence(
            prefix_exchange(domain, pairing, codomain, vertex_map))
    except InvalidVertexMap as e:
        implicit = "" if vmap_rows else (
            "; with no vmap lines, the vertices were matched index by index")
        raise ParseError(path, vmap_rows[0][0] if vmap_rows else codomain_ln,
                         f"invalid orbit equivalence: {e}{implicit}")
    except SftError as e:
        raise ParseError(path, pairs[0][0] if pairs else 1,
                         f"invalid orbit equivalence: {e}")


def format_orbit_equivalence(h: OrbitEquivalence, domain_file: str,
                             codomain_file: str) -> str:
    """The oe v1 text of a prefix exchange, relabelled first or not; a
    relabelling is written as one vmap line per domain vertex."""
    *relabel, exchange = h.forward.stages or (None,)
    if not isinstance(exchange, PrefixExchangeStage) or len(relabel) > 1 or \
            any(not isinstance(st, BlockStage) or st.window != 1
                or st.inverse.window != 1 for st in relabel):
        raise ValueError("only prefix exchanges, relabelled or not, "
                         "serialize to oe files")
    P, Q = h.domain, h.codomain
    out = ["oe v1", f"domain {domain_file}", f"codomain {codomain_file}"]
    pairing = exchange.pairing
    for st in relabel:
        out += [f"vmap {i} {Q.index(st.table[(a,)])}"
                for i, a in enumerate(P.labels)]
        pairing = {st.inverse.apply_word(u): v for u, v in pairing.items()}
    for u in P.sorted_words(pairing):
        out.append(f"map {format_word(P, u)} -> {format_word(Q, pairing[u])}")
    return "\n".join(out) + "\n"
