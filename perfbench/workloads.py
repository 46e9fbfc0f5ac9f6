"""The three benchmark workloads.

A workload is built from a seed and a loaded ``sftkit`` package (``sk``).
It holds a fixed pool of generated inputs (``items``) and answers two
questions about each of them:

* ``run(item)`` is the timed operation, the only call that counts as a
  verdict's latency;
* ``digest(item, result)`` is a sha256 of the canonical output; repeats of
  one input must agree on it;
* ``check(item, result)`` is the correctness gate, run outside the timed
  region on the first output of each input.  It returns
  ``(problems, claims)``: the reasons the verdict is wrong (empty when it
  is right) and the number of exact claims the verdict settled.

Every sftkit function is looked up on its module at call time, so the
wrappers the traced run installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table(fn) -> list:
    return sorted((repr(w), v) for w, v in fn.table.items())


class CliPipeline:
    """``sftkit pipeline <file>.oe --json --samples 16 --seed <s>``, called
    in process with stdout captured."""

    name = "cli-pipeline"
    SAMPLES = 16
    DRAWS = 4          # random exchanges per shift
    SAMPLE_SEEDS = 4   # claim samples per file

    def __init__(self, sk, seed: int, workdir: str):
        self.sk = sk
        rng = random.Random(seed)
        sio, full_shift = sk.io, sk.presentation.full_shift
        draw = sk.samples.random_prefix_exchange
        os.makedirs(workdir, exist_ok=True)

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        f2, f3 = full_shift(2), full_shift(3)
        write("full2.sft", sio.format_presentation(f2))
        write("full3.sft", sio.format_presentation(f3))
        files = [write("std.oe", "oe v1\ndomain full2.sft\n"
                                 "codomain full2.sft\nmap 0 -> 10\n"
                                 "map 10 -> 0\nmap 11 -> 11\n")]
        for i in range(self.DRAWS):
            h = draw(rng, f2, expansions=2)
            files.append(write(f"full2_{i}.oe", sio.format_orbit_equivalence(
                h, "full2.sft", "full2.sft")))
            h = draw(rng, f3, expansions=1)
            files.append(write(f"full3_{i}.oe", sio.format_orbit_equivalence(
                h, "full3.sft", "full3.sft")))
        files.append(write("compose.oe", "oe v1\ncompose std.oe full2_0.oe\n"))
        self.items = [(path, rng.randrange(2**31))
                      for _ in range(self.SAMPLE_SEEDS) for path in files]

    def run(self, item):
        path, sample_seed = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.sk.cli.main(["pipeline", path, "--json",
                                   "--samples", str(self.SAMPLES),
                                   "--seed", str(sample_seed)])
        return rc, out.getvalue()

    def digest(self, item, result):
        return _sha(result[1])

    def check(self, item, result):
        rc, text = result
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        try:
            payload = json.loads(text)
        except ValueError:
            return problems + ["output is not JSON"], 0
        if payload.get("claims_failed") != 0:
            problems.append(f"claims_failed={payload.get('claims_failed')}")
        if payload.get("inconclusive") != 0:
            problems.append(f"inconclusive={payload.get('inconclusive')}")
        claims = payload.get("claims_checked") or 0
        if claims < 1:
            problems.append("no claims checked")
        return problems, claims


class Certify:
    """``coe_to_flow_pipeline(OrbitEquivalence(map), scoe=True)`` on maps
    generated in setup; no claim sample is drawn.

    Full-4-shift exchanges, the longest verdicts, are more than half of the
    pool.  The median verdict is then one of them, and it spans the
    sub-second slow spells of a shared host that make the median of short
    verdicts jump between runs.
    """

    name = "certify"
    COUNTS = {"exchange-full4": 50, "exchange-full3": 10,
              "composed-full2": 10, "split-full3": 10, "split-golden": 10}

    def __init__(self, sk, seed: int, workdir: str):
        self.sk = sk
        rng = random.Random(seed)
        full_shift = sk.presentation.full_shift
        draw = sk.samples.random_prefix_exchange
        split = sk.samples.random_split_conjugacy
        word = sk.presentation.word
        std = sk.maps.prefix_exchange(full_shift(2), {
            word("0"): word("10"), word("10"): word("0"),
            word("11"): word("11")})
        make = {
            "exchange-full3": lambda: draw(rng, full_shift(3), 3).forward,
            "exchange-full4": lambda: draw(rng, full_shift(4), 2).forward,
            "composed-full2": lambda: draw(rng, full_shift(2), 2).compose(
                draw(rng, full_shift(2), 2)).forward,
            "split-full3": lambda: split(rng, full_shift(3), 3).forward,
            "split-golden": lambda: split(
                rng, sk.presentation.golden_mean(), 3).forward,
        }
        # kinds interleaved, so that a pass mixes them from its start
        self.items = [("standard", std)] + [
            (kind, make[kind]()) for i in range(max(self.COUNTS.values()))
            for kind, count in self.COUNTS.items() if i < count]

    def run(self, item):
        orbit = self.sk.orbit
        return orbit.coe_to_flow_pipeline(orbit.OrbitEquivalence(item[1]),
                                          scoe=True)

    def digest(self, item, D):
        tables = [_table(fn) for fn in (D.k, D.l, D.n, D.b, D.k_prime,
                                       D.l_prime, D.n_prime, D.b_prime)]
        return _sha(json.dumps([tables, list(D.shift_constants)]))

    def check(self, item, D):
        kind = item[0]
        problems = []
        if not D.validated:
            problems.append("flow data was built unvalidated")
        try:
            self.sk.suspension.FlowMapData(
                D.h, D.k, D.l, D.k_prime, D.l_prime, D.b, D.b_prime,
                D.n, D.n_prime, D.shift_constants, validate=True)
        except ValueError as e:
            problems.append(f"flow data fails validation: {e}")
        if kind == "standard":
            problems += self._standard_answers(D)
        if kind.startswith("split"):
            for name, fn in (("n", D.n), ("n'", D.n_prime)):
                if set(fn.table.values()) != {1}:
                    problems.append(f"split conjugacy with {name} != 1")
        return problems, 1

    def _standard_answers(self, D):
        """Known cocycles of 0 -> 10, 10 -> 0, 11 -> 11."""
        word = self.sk.presentation.word
        orbit_sum = self.sk.cylinders.orbit_sum
        problems = []
        for w, want in (("000", (1, 2)), ("010", (0, 3))):
            got = (D.k.value_on(word(w)), D.l.value_on(word(w)))
            if got != want:
                problems.append(f"(k, l) on {w} is {got}, expected {want}")
        diff = D.l - D.k
        sums = [orbit_sum(diff, word(c)) for c in ("0", "1", "01")]
        if sums != [1, 1, 2]:
            problems.append(f"orbit sums of l - k are {sums}, "
                            "expected [1, 1, 2]")
        return problems


class Positivity:
    """``class_is_positive(P, f)``; every fourth operation is instead
    ``solve_coboundary(P, g.coboundary(), 5)``.

    ``P`` has 4 to 6 vertices and ``f`` depth 2 to 5.  Every instance is
    redrawn until its transition graph has ARCS[0] to ARCS[1] arcs, so that
    the cost of one verdict stays within one order of magnitude.  One class
    in four is built positive as ``n + b - b o sigma`` with ``n >= 0``; the
    others take values in [-2, 2] and are almost always not positive.
    """

    name = "positivity"
    POOL = 400
    ARCS = (150, 600)
    MAX_DEPTH = 5

    def __init__(self, sk, seed: int, workdir: str):
        self.sk = sk
        rng = random.Random(seed)
        self.items = []
        classes = 0
        for i in range(self.POOL):
            if i % 4 == 3:
                P, d = self._shape(rng)
                g = self._function(rng, P, d - 1, -2, 2)
                self.items.append(("coboundary", P, g.coboundary()))
                continue
            P, d = self._shape(rng)
            if classes % 4 == 0:
                n = self._function(rng, P, d, 0, 2)
                b = self._function(rng, P, rng.randint(0, d - 1), -2, 2)
                self.items.append(("positive", P, n + b.coboundary()))
            else:
                f = self._function(rng, P, d, -2, 2)
                self.items.append(("random", P, f))
            classes += 1

    def _shape(self, rng):
        """A presentation and a depth whose transition graph is in range."""
        while True:
            P = self.sk.samples.random_presentation(rng, 6, 4)
            d = rng.randint(2, self.MAX_DEPTH)
            if self.ARCS[0] <= len(P.language(d)) <= self.ARCS[1]:
                return P, d

    def _function(self, rng, P, depth, lo, hi):
        words = P.sorted_words(P.language(max(depth, 1)))
        if depth == 0:
            return self.sk.cylinders.CylinderFunction.constant(
                P, rng.randint(lo, hi))
        return self.sk.cylinders.CylinderFunction(
            P, depth, {w: rng.randint(lo, hi) for w in words})

    def run(self, item):
        kind, P, f = item
        coh = self.sk.cohomology
        if kind == "coboundary":
            return coh.solve_coboundary(P, f, self.MAX_DEPTH)
        return coh.class_is_positive(P, f)

    def digest(self, item, res):
        coh = self.sk.cohomology
        if isinstance(res, coh.NegativeCycleWitness):
            body = ["negative", res.total, [repr(a.tag) for a in res.cycle]]
        elif isinstance(res, coh.PositivityCertificate):
            body = ["positive", _table(res.witness_b), _table(res.nonneg)]
        elif isinstance(res, self.sk.cylinders.CylinderFunction):
            body = ["solution", _table(res)]
        else:
            body = [repr(res)]
        return _sha(json.dumps(body))

    def check(self, item, res):
        kind, P, f = item
        coh = self.sk.cohomology
        if kind == "coboundary":
            if res is None:
                return ["no solution for a coboundary"], 1
            ok = res.coboundary() == f
            return [] if ok else ["g'.coboundary() != target"], 1
        if isinstance(res, coh.NegativeCycleWitness):
            problems = [] if res.verify() else ["negative-cycle witness fails"]
            if kind == "positive":
                problems.append("positive class reported not positive")
            return problems, 1
        if isinstance(res, coh.PositivityCertificate):
            return [] if res.verify(f) else ["certificate fails"], 1
        return [f"unexpected verdict {res!r}"], 1


WORKLOADS = {w.name: w for w in (CliPipeline, Certify, Positivity)}
