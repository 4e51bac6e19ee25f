"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload object is built in a fresh process (that is the set-up: the
qschur imports and, for ``queries``, the request stream made from the
seed).  ``run(clock)`` performs one round of timed operations, timed with
``clock`` (see :mod:`hostspeed`), and returns a ``Round``; outputs are
checked against :mod:`oracle`, never against stored qschur output.  With
a calibrated clock the round's times are in reference seconds; with the
wall clock (the traced round) they are wall seconds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import resource
import sys

import oracle
from hostspeed import WallClock
from layers import SUITES


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    """What one round measured and found."""

    def __init__(self):
        self.wall_s = 0.0          # the clock's seconds, once calibrated
        self.raw_wall_s = 0.0      # wall seconds
        self.scale = 1.0           # the clock's seconds per wall second
        self.ops = 0               # operations attempted
        self.failed = 0            # operations without the right outcome
        self.latencies_ms = []     # per operation; see each workload
        self.rss_mib = 0.0
        self.errors = []           # wrong outputs of operations that passed
        self.failures = []         # why well-formed operations failed
        self._wall = []            # clock.since() laps of the timed part
        self._latency = []         # clock.since() laps, one per operation

    def add(self, lap, wall=True, latency=True):
        """Record a lap in the timed part and/or as an operation."""
        if wall:
            self._wall.append(lap)
        if latency:
            self._latency.append(lap)

    def calibrate(self, clock):
        """Turn the recorded laps into the clock's seconds; each lap is
        scaled by the host's speed while it ran."""
        self.raw_wall_s = sum(s for s, _, _ in self._wall)
        self.wall_s = sum(s * clock.scale(lo, hi) for s, lo, hi in self._wall)
        self.latencies_ms = [s * 1e3 * clock.scale(lo, hi)
                             for s, lo, hi in self._latency]
        self.scale = clock.scale()

    def as_dict(self):
        return {"wall_s": self.wall_s, "raw_wall_s": self.raw_wall_s,
                "scale": self.scale, "ops": self.ops, "failed": self.failed,
                "latencies_ms": self.latencies_ms, "rss_mib": self.rss_mib,
                "errors": self.errors[:20], "failures": self.failures[:20]}


# -- verify-all ------------------------------------------------------------

SUITE_GRID = [(n, r, s) for n in (2, 3) for r in range(3) for s in range(3)]
SCHUR_WEYL_SUITE_POINTS = {(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1),
                           (2, 1, 0), (2, 2, 0)}
DIM_FIELDS = ("commutant_dim", "image_dim", "rational_bitableaux",
              "coeff_quotient_dim")


def check_verify_report(report):
    """Every suite ok, and every dimension the report gives is the oracle's."""
    errors = []
    suites = {s["suite"]: s for s in report.get("suites", [])}
    if sorted(suites) != sorted(SUITES):
        errors.append(f"suites reported: {sorted(suites)}")
    if not report.get("ok"):
        errors.append("report not ok")
    for name, suite in suites.items():
        if not suite["ok"] or not all(c["ok"] for c in suite["cases"]):
            errors.append(f"suite {name} not ok")

    def cases(name, keys):
        return {tuple(c[k] for k in keys): c
                for c in suites.get(name, {}).get("cases", [])
                if not c.get("anchor")}

    def expect(name, got, want):
        if got != want:
            errors.append(f"{name}: {got} != oracle {want}")

    mixed_grid = {p for p in SUITE_GRID if p[1] + p[2]}
    for name, fields in (("kernel-Y", ("quotient_dim", "image_rank")),
                         ("rational-basis", ("basis_size",)),
                         ("phi-iota", ("basis_elements",))):
        got = cases(name, ("n", "r", "s"))
        expect(f"{name} points", set(got), mixed_grid)
        for p, case in got.items():
            for f in fields:
                expect(f"{name}{p}.{f}", case[f], oracle.mixed_space_dim(*p))
    got = cases("bijection", ("n", "r", "s"))
    expect("bijection points", set(got), set(SUITE_GRID))
    for p, case in got.items():
        expect(f"bijection{p}.tableaux", case["tableaux"],
               oracle.rational_tableaux_count(*p))
    if not any(c.get("anchor") for c in
               suites.get("bijection", {}).get("cases", [])):
        errors.append("bijection anchor case missing")
    got = cases("schur-weyl", ("n", "r", "s"))
    expect("schur-weyl points", set(got), SCHUR_WEYL_SUITE_POINTS)
    for p, case in got.items():
        for f in DIM_FIELDS:
            expect(f"schur-weyl{p}.{f}", case[f], oracle.mixed_space_dim(*p))
    got = cases("weight-projectors", ("n", "m"))
    expect("weight-projectors points", set(got),
           {(n, m) for n in (2, 3) for m in (1, 2, 3)})
    for (n, m), case in got.items():
        for f in ("image_dim", "enlarged_image_dim"):
            expect(f"weight-projectors{(n, m)}.{f}", case[f],
                   oracle.schur_algebra_dim(n, m))
    return errors


class VerifyAll:
    """``qschur verify all`` through the CLI entry point; one op per case.

    A case is one checked fact of the report.  Every suite builds each case
    with ``cli._case`` once its computation is done, so a case's latency
    runs from the suite's start or the previous case to that call.  A suite
    that raises ends the round process, so no case counts as failed; a case
    that reports a failed check makes the run incorrect.
    """

    def __init__(self, seed):
        # the command has no random input: the seed changes nothing here
        from qschur import cli
        self.cli = cli

    def run(self, clock=WallClock()):
        rnd = Round()
        cli = self.cli
        make_case = cli._case
        since = [None]   # the lap at which the current case began

        def timed(fn):
            @functools.wraps(fn)
            def suite(*args, **kwargs):
                since[0] = clock.lap()
                return fn(*args, **kwargs)
            return suite

        @functools.wraps(make_case)
        def case(ok, **info):
            rnd.add(clock.since(since[0]), wall=False)
            rnd.ops += 1
            since[0] = clock.lap()
            return make_case(ok, **info)

        for name in list(cli.SUITES):
            cli.SUITES[name] = timed(cli.SUITES[name])
        cli._case = case
        out = io.StringIO()
        lap = clock.lap()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "all"])
        rnd.add(clock.since(lap), latency=False)
        rnd.rss_mib = peak_rss_mib()
        rnd.calibrate(clock)
        if code != 0:
            rnd.errors.append(f"verify all exited {code}")
        rnd.errors += check_verify_report(json.loads(out.getvalue()))
        return rnd


# -- schur-weyl --------------------------------------------------------------

class SchurWeyl:
    """tensor.verify_schur_weyl at the largest points that take seconds."""

    POINTS = ((3, 2, 1), (3, 1, 2), (4, 1, 1), (2, 2, 2))

    def __init__(self, seed):
        # fixed points: the seed changes nothing here
        from qschur import tensor
        self.tensor = tensor

    def run(self, clock=WallClock()):
        rnd = Round()
        reports = []
        for point in self.POINTS:
            lap = clock.lap()
            reports.append(self.tensor.verify_schur_weyl(*point))
            rnd.add(clock.since(lap))
        rnd.rss_mib = peak_rss_mib()
        rnd.ops = len(self.POINTS)
        rnd.calibrate(clock)
        for point, rep in zip(self.POINTS, reports):
            want = oracle.mixed_space_dim(*point)
            if not rep["ok"]:
                rnd.errors.append(f"verify_schur_weyl{point} not ok")
            for f in DIM_FIELDS:
                if rep[f] != want:
                    rnd.errors.append(f"{point}.{f} = {rep[f]} != {want}")
        return rnd


# -- queries -----------------------------------------------------------------

BIDEGREES = [(r, s) for r in range(3) for s in range(3) if r + s]
ORD_DEGREES = (3, 4, 5)
ORD_REQUESTS, ORD_POOL = 42, 14     # per degree; distinct content blocks
MIXED_REQUESTS, MIXED_POOL = 8, 4   # per (kind, n, bidegree)
TERMS = 4                           # words per element
MALFORMED_EVERY = 20                # every 20th request is malformed
CHECK_POINTS = 2                    # matrices X per q = 1 check

# Fixed inputs that fail today through faults in cli/qmatrix/mixed; the
# right outcome for each is exit code 2 with a single "error:" line.
_BAD_PAIR = [{"plain": [[1, 2]], "starred": [[2, 1]], "coeff": {"0": "1"}}]
MALFORMED = (
    # a letter outside 1..n: IndexError traceback
    (["straighten", "ord", "--n", "2"],
     [{"word": [[1, 3], [1, 1]], "coeff": {"0": "1"}}]),
    # an object where the element list belongs: TypeError, exit 1
    (["straighten", "ord", "--n", "3"],
     {"word": [[1, 1]], "coeff": {"0": "1"}}),
    # a bidegree-(1,1) element straightened as (2,1): AssertionError, exit 1
    (["straighten", "mixed", "--n", "2", "--r", "2", "--s", "1"], _BAD_PAIR),
    # iota told --r 2 --s 1 for a (1,1) element: accepted, exit 0
    (["iota", "--n", "2", "--r", "2", "--s", "1"], _BAD_PAIR),
)


def compositions(m, n):
    """Content vectors: n-tuples of nonnegative integers summing to m."""
    if n == 1:
        return [(m,)]
    return [(a,) + rest for a in range(m, -1, -1)
            for rest in compositions(m - a, n - 1)]


@functools.lru_cache(maxsize=None)
def block_size(rows, cols):
    """Normal words with these row and column contents: the nonnegative
    integer matrices with row sums rows and column sums cols."""
    if not rows:
        return int(not any(cols))

    def spread(j, left, rest):
        # put `left` of the first row into columns j.., then the other rows
        if j == len(cols):
            return block_size(rows[1:], rest) if left == 0 else 0
        return sum(spread(j + 1, left - v, rest + (cols[j] - v,))
                   for v in range(min(left, cols[j]) + 1))

    return spread(0, rows[0], ())


def stratified_pool(rng, blocks, size, count):
    """count blocks, one from each of count equal strata by size, so that
    every seed's pool spans small to large blocks alike."""
    blocks = sorted(blocks, key=lambda b: (size(b), b))
    edges = [len(blocks) * k // count for k in range(count + 1)]
    return [rng.choice(blocks[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def random_word(rng, rows, cols):
    """A word with the given row and column contents, in random order."""
    rows = [i for i, c in enumerate(rows, 1) for _ in range(c)]
    cols = [j for j, c in enumerate(cols, 1) for _ in range(c)]
    rng.shuffle(cols)
    letters = [[i, j] for i, j in zip(rows, cols)]
    rng.shuffle(letters)
    return letters


def distinct_words(rng, draw, tries=3 * TERMS):
    """Up to TERMS distinct draws (a block may hold fewer distinct words).

    qschur reads an element as a dict keyed by word, so a repeated word
    would keep only its last coefficient.
    """
    words = []
    for _ in range(tries):
        w = draw()
        if w not in words:
            words.append(w)
            if len(words) == TERMS:
                break
    return words


def random_coeff(rng):
    exps = rng.sample(range(-3, 4), rng.randint(1, 3))
    return {str(e): str(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
            for e in exps}


class Request:
    __slots__ = ("kind", "n", "r", "s", "argv", "elem", "payload")

    def __init__(self, kind, n, r, s, argv, elem):
        self.kind, self.n, self.r, self.s = kind, n, r, s
        self.argv = argv + ["--input", "-"]
        self.elem = elem
        self.payload = json.dumps(elem)


def make_stream(seed):
    """The seeded request stream; malformed requests sit at fixed places."""
    rng = random.Random(seed)
    good = []
    for m in ORD_DEGREES:
        blocks = [(a, b) for a in compositions(m, 3)
                  for b in compositions(m, 3)]
        pool = stratified_pool(rng, blocks, lambda b: block_size(*b),
                               ORD_POOL)
        for t in range(ORD_REQUESTS):
            a, b = pool[t % ORD_POOL]
            elem = [{"word": w, "coeff": random_coeff(rng)}
                    for w in distinct_words(
                        rng, lambda: random_word(rng, a, b))]
            good.append(Request("ord", 3, m, 0,
                                ["straighten", "ord", "--n", "3"], elem))
    for kind, cmd in (("iota", ["iota"]),
                      ("mixed", ["straighten", "mixed"])):
        for n in (2, 3):
            for r, s in BIDEGREES:
                blocks = [(a, b, c, d)
                          for a in compositions(r, n)
                          for b in compositions(r, n)
                          for c in compositions(s, n)
                          for d in compositions(s, n)]
                pool = stratified_pool(
                    rng, blocks, lambda b: block_size(b[0], b[1])
                    * block_size(b[2], b[3]), min(MIXED_POOL, len(blocks)))
                argv = cmd + ["--n", str(n), "--r", str(r), "--s", str(s)]
                for t in range(MIXED_REQUESTS):
                    a, b, c, d = pool[t % len(pool)]
                    elem = [{"plain": p, "starred": q,
                             "coeff": random_coeff(rng)}
                            for p, q in distinct_words(rng, lambda: [
                                random_word(rng, a, b),
                                random_word(rng, c, d)])]
                    good.append(Request(kind, n, r, s, argv, elem))
    rng.shuffle(good)
    bad = [Request("malformed", 0, 0, 0, argv, elem)
           for argv, elem in MALFORMED]
    stream = []
    for req in good:
        t = len(stream)
        if t % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            stream.append(bad[(t // MALFORMED_EVERY) % len(bad)])
        stream.append(req)
    return stream


def check_request(req, report, rng):
    """Errors in one well-formed request's output (empty if it is right)."""
    terms = report.get("terms", [])
    if req.kind == "mixed":
        ok = all(oracle.rational_term_ok(t, req.n, req.r, req.s)
                 for t in terms)
    else:
        degree = req.r if req.kind == "ord" else req.r + (req.n - 1) * req.s
        ok = all(oracle.ordinary_term_ok(t, req.n, degree) for t in terms)
    if not ok or not oracle.distinct_terms(terms):
        return [f"{req.argv}: a term is not a same-shape standard pair "
                f"with a Laurent coefficient"]
    for _ in range(CHECK_POINTS):
        pt = oracle.Point(oracle.random_invertible(rng, req.n))
        if req.kind == "ord":
            got = oracle.ordinary_expansion_value(terms, pt)
            want = oracle.plain_value(req.elem, pt)
        elif req.kind == "iota":
            got = oracle.ordinary_expansion_value(terms, pt)
            want = pt.det ** req.s * oracle.mixed_value(req.elem, pt)
        else:
            got = oracle.rational_expansion_value(terms, pt)
            want = oracle.mixed_value(req.elem, pt)
        if got != want:
            return [f"{req.argv} {req.payload}: q=1 value {got} != {want}"]
    return []


class Queries:
    """A closed-loop stream of CLI requests sent through qschur.cli.main."""

    def __init__(self, seed):
        from qschur import cli
        self.cli = cli
        self.seed = seed
        self.stream = make_stream(seed)

    def call(self, req, clock):
        """One request as the CLI would serve it: (exit code, out, err,
        lap)."""
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(req.payload)
        lap = clock.lap()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the real CLI would print a traceback
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            lap = clock.since(lap)
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue(), lap

    def run(self, clock=WallClock()):
        rnd = Round()
        for t, req in enumerate(self.stream):
            code, out, err, lap = self.call(req, clock)
            rnd.ops += 1
            rnd.add(lap, latency=req.kind != "malformed")
            if req.kind == "malformed":
                lines = err.splitlines()
                if not (code == 2 and not out and len(lines) == 1
                        and lines[0].startswith("error:")):
                    rnd.failed += 1
                continue
            if code != 0:
                rnd.failed += 1
                rnd.failures.append(f"{req.argv} exited {code}: {err!r}")
                continue
            rng = random.Random(f"check:{self.seed}:{t}")
            rnd.errors += check_request(req, json.loads(out), rng)
        rnd.rss_mib = peak_rss_mib()
        rnd.calibrate(clock)
        return rnd


WORKLOADS = {"verify-all": VerifyAll, "schur-weyl": SchurWeyl,
             "queries": Queries}
