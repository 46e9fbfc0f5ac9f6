"""Self-test of the benchmark's correctness gate: injected faults must count
as failed operations, and the benchmark must refuse ``python -O``.

    python3 perfbench/selftest.py

Exits 0 when every fault is caught, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import SRC, WORK, Tally, load_sftkit
from workloads import CliPipeline, Certify, Positivity


def failures(workload, fake_run, passes=1):
    """(failed, attempted) when ``fake_run`` replaces the operation."""
    workload.run = fake_run
    tally = Tally(workload)
    for _ in range(passes):
        tally.run_pass()
    return tally.failed, len(tally.times)


def off_by_one_n(sk):
    """Acceptance criterion 8's fault: n off by one on a single word, in
    flow data built with validate=False."""
    wl = Certify(sk, 0, "")
    wl.items = wl.items[:1]                      # the standard exchange
    D = wl.run(wl.items[0])
    n = D.n.refine(max(D.n.depth, 1))
    table = dict(n.table)
    table[sorted(table)[0]] += 1
    bad_n = sk.cylinders.CylinderFunction(D.domain, n.depth, table)
    bad = sk.suspension.FlowMapData(D.h, D.k, D.l, D.k_prime, D.l_prime,
                                    D.b, D.b_prime, bad_n, D.n_prime,
                                    validate=False)
    return failures(wl, lambda item: bad)


def tampered_certificate(sk):
    """A positivity certificate whose n is raised by one."""
    wl = Positivity(sk, 0, "")
    wl.items = [it for it in wl.items if it[0] == "positive"][:3]
    certs = [wl.run(it) for it in wl.items]
    bad = {id(it): type(c)(c.witness_b, c.nonneg + 1)
           for it, c in zip(wl.items, certs)}
    return failures(wl, lambda item: bad[id(item)])


def changed_answer(sk):
    """A valid but different answer on the repeat of an input: g + 1 solves
    the same coboundary equation, so only the digest can catch it."""
    wl = Positivity(sk, 0, "")
    wl.items = [it for it in wl.items if it[0] == "coboundary"][:3]
    seen = set()

    def run(item):
        g = Positivity.run(wl, item)
        if id(item) in seen:
            return g + 1
        seen.add(id(item))
        return g
    return failures(wl, run, passes=2)


def failed_claims(sk):
    """``pipeline --json`` output that reports failed claims."""
    workdir = WORK / f"selftest-{os.getpid()}"
    try:
        wl = CliPipeline(sk, 0, str(workdir))
        wl.items = wl.items[:1]
        rc, text = wl.run(wl.items[0])
        payload = json.loads(text)
        payload["claims_failed"] = 1
        return failures(wl, lambda item: (rc, json.dumps(payload)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def refuses_optimize(_sk):
    proc = subprocess.run(
        [sys.executable, "-O", os.path.join(os.path.dirname(__file__),
                                            "run.py"),
         "--workload", "certify", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    return int(refused), 1


def main() -> int:
    sys.path.insert(0, str(SRC))
    sk = load_sftkit()
    ok = True
    for test in (off_by_one_n, tampered_certificate, changed_answer,
                 failed_claims, refuses_optimize):
        failed, attempted = test(sk)
        caught = failed > 0
        ok &= caught
        print(f"{'ok' if caught else 'MISSED'}  {test.__name__}: "
              f"{failed} of {attempted} counted as failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
