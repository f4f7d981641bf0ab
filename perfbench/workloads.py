"""The four benchmark workloads: input generation, one request, and its check.

A workload produces its inputs in cycles.  Cycle c is generated from a
`random.Random` seeded with the workload name, the run seed and c, so a seed
always yields the same request stream however far a run gets, and every cycle
holds the workload's whole input mix in fixed proportions.

`run(req)` is the timed request.  `check(req, out)` runs outside the timed
section and returns (ok, digest); it calls no library function that touches
the canonical-form cache, so checking one request cannot warm the next.
"""
from __future__ import annotations

import itertools
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import troprat as T
from troprat import TropPoly, geom

import checks

XY = ("x", "y")

# paper fixtures (tests/conftest.py)
UNI_1 = ("x + 0", "x + 1")
UNI_2 = ("(-2)*x^2 + x + 0", "(-2)*x^2 + x + 1")
ALT_MIN_1 = ("x*y + (-1)*y^2 + x + y + 0", "(-1)*x*y^2 + x*y + (-1)*y^2 + x + y")
ALT_MIN_2 = ("x^2 + x*y + (-1)*y^2 + x + (-1)*y", "(-1)*x^2*y + (-1)*x*y^2 + x^2 + x*y + (-1)*y^2")
UNIQUE_MIN = ("x^2 + x*y + y^2 + x + y", "x*y + x + y")
FOUR_LINES = "x^2*y^3 + x*y^4 + x^2*y^2 + x*y^3 + x^2*y + x*y^2 + y^3 + x*y + y^2 + x + y"
FOUR_LINES_FACTORS = ("x*y^2 + x*y + x + y", "x*y + y^2 + y + 0")


def _rng(name, seed, cycle):
    return random.Random(f"{name}:{seed}:{cycle}")


def _coeff_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator) if c >= 0 else f"({c.numerator})"
    return f"({c.numerator}/{c.denominator})"


def _poly_text(terms: dict) -> str:
    """Text the parser accepts, written without the library's printer."""
    parts = []
    for (i, j), c in sorted(terms.items()):
        factors = [_coeff_text(c)]
        factors += [f"x^{i}"] if i else []
        factors += [f"y^{j}"] if j else []
        parts.append("*".join(factors))
    return " + ".join(parts)


def _rand_q(rng, span, max_den):
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * d, span * d), d)


def _dense_terms(rng, degree):
    return {
        (i, j): _rand_q(rng, 8, 12)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    }


def _times(f: dict, g: dict) -> dict:
    """Max-plus product of term maps (the generator's own, not the library's)."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if e not in out or c1 + c2 > out[e]:
                out[e] = c1 + c2
    return out


def _props(polys):
    """Input properties: terms, Newton lattice points, max denominator."""
    return {
        "terms": sum(len(p) for p in polys),
        "lattice_points": sum(checks.lattice_count(p.support) for p in polys if len(p)),
        "max_den": max((c.denominator for p in polys for _, c in p.items()), default=1),
    }


class Workload:
    name = ""
    cycles_per_s = 1.0  # nominal rate at the seed commit; sizes a run of --seconds
    trace_cycles = 1

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> tuple[bool, str]:
        raise NotImplementedError

    def props(self, req, out) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Dense2d(Workload):
    """Few large hulls, no reuse: every input is a fresh dense polynomial."""

    name = "dense2d"
    cycles_per_s = 0.23
    trace_cycles = 2
    # (degree of f, factored?) per request of a cycle: every degree twice and a
    # quarter in factored text.  Both degree-16 inputs are factored, so the
    # slowest sixth of the requests, where p90 lies, is one kind of request.
    SLOTS = [(4, False), (6, False), (8, False), (10, False), (12, False), (16, True),
             (4, False), (6, False), (8, False), (10, False), (12, True), (16, True)]
    # degree -> (k, deg A) for the factored text (A)^k*(B), deg B = degree - k*deg A
    FACTORED = {12: (3, 3), 16: (4, 3)}

    def cycle(self, c):
        rng = _rng(self.name, self.seed, c)
        out = []
        for d, factored in self.SLOTS:
            g = _dense_terms(rng, d // 2)
            if factored:
                k, a = self.FACTORED[d]
                A, B = _dense_terms(rng, a), _dense_terms(rng, d - k * a)
                f_text = f"({_poly_text(A)})^{k}*({_poly_text(B)})"
            else:
                f_text = _poly_text(_dense_terms(rng, d))
            out.append((d, f_text, _poly_text(g)))
        return out

    def run(self, req):
        _, f_text, g_text = req
        f = T.parse_poly(f_text, XY)
        g = T.parse_poly(g_text, XY)
        fc = T.canonicalize(f)
        sub = T.dual_subdivision(f)
        m = T.mcomp(f)
        curve = T.plane_curve(f)
        balanced = T.balancing_check(curve)
        divisor = T.curve_to_divisor(curve)
        commutes = T.func_eq(f * g, g * f)
        vol = T.vol_pair(f, g)
        return f, g, fc, sub, m, curve, balanced, divisor, commutes, vol

    def check(self, req, out):
        d = req[0]
        f, g, fc, sub, m, curve, balanced, divisor, commutes, vol = out
        h = d // 2
        ok = commutes is True and balanced is True
        # Simpson volume of conv(dD x 0, hD x 1) for the standard triangle D
        ok = ok and vol == Fraction(d * d + d * h + h * h, 6)
        bottom, top = (geom.Polygon(((0, 0), (n, 0), (0, n))) for n in (d, h))
        ok = ok and vol == geom.volume_oracle(geom.StackedHull(bottom, top))
        # regions = bounded edges + rays - vertices + 1 (Euler, connected curve)
        ok = ok and m == len(curve.edges) + len(curve.rays) - len(curve.vertices) + 1
        # every curve vertex is a point where at least three terms tie
        ok = ok and all(checks.max_ties(f, v) >= 3 for v in curve.vertices)
        if len(f) <= 15:  # the brute-force envelope is O(terms^4)
            ok = ok and m == checks.vertex_count(f)
            ok = ok and all(
                c == checks.envelope_value(f, e) for e, c in fc.items()[::5]
            )
        return ok, checks.digest((fc, sub.cells, m, curve.vertices, curve.edges,
                                  curve.rays, curve.lines, balanced, divisor,
                                  commutes, vol))

    def props(self, req, out):
        return _props(out[:2])


# ---------------------------------------------------------------------------


class Duality(Workload):
    """Exact evaluation dominates; the hull layer is almost idle."""

    name = "duality"
    cycles_per_s = 0.9
    trace_cycles = 3
    SAMPLES = 250

    def __init__(self, seed):
        super().__init__(seed)
        x, xy = ("x",), XY
        self.fixtures = [
            (T.parse_poly(UNI_1[0], x), T.parse_poly(UNI_1[1], x)),
            (T.parse_poly(UNI_2[0], x), T.parse_poly(UNI_2[1], x)),
            (TropPoly.zero(1), T.parse_poly(UNI_1[0], x)),
            (T.parse_poly(ALT_MIN_1[0], xy), T.parse_poly(ALT_MIN_1[1], xy)),
            (T.parse_poly(ALT_MIN_2[0], xy), T.parse_poly(ALT_MIN_2[1], xy)),
        ]

    @staticmethod
    def _sparse(rng, arity, rational):
        """Three terms with exponents in [0, 3]; a fixed term count keeps the
        cost of a pair, and so the latency mix, the same from seed to seed."""
        exps = rng.sample([e for e in itertools.product(range(4), repeat=arity)], 3)
        return TropPoly(arity, {
            e: _rand_q(rng, 4, 4) if rational else Fraction(rng.randint(-4, 4)) for e in exps
        })

    def cycle(self, c):
        rng = _rng(self.name, self.seed, c)
        # 5 integer fixtures (3 univariate) + 7 random pairs: 1 univariate
        # rational, 5 bivariate rational, 1 bivariate integer
        kinds = [(1, True)] + [(2, True)] * 5 + [(2, False)]
        pairs = list(self.fixtures)
        pairs += [(self._sparse(rng, a, q), self._sparse(rng, a, q)) for a, q in kinds]
        return [(f, g, rng.randrange(2**31)) for f, g in pairs]

    def run(self, req):
        f, g, sample_seed = req
        samples = T.duality_samples(f, g, self.SAMPLES, sample_seed)
        return T.graph_duality_check(f, g, samples)

    def check(self, req, report):
        ok = report.ok and report.total == self.SAMPLES
        return ok, checks.digest(report)

    def props(self, req, out):
        return _props(req[:2])


# ---------------------------------------------------------------------------


class Factor(Workload):
    """Many small hulls with heavy reuse of canonical forms.

    The factor supports come from a fixed pool, drawn once, so that every run
    does the same geometric search (its cost varies by four orders of
    magnitude between random supports, which would swamp any change under
    test).  The seed draws the
    coefficients, a lattice symmetry and a translation of each product.
    """

    name = "factor"
    cycles_per_s = 1.4
    trace_cycles = 4
    SLOTS = [(True, 3), (False, 2), (False, 2)] * 6  # (all-zero coefficients, factors)
    EDGE_SUM_LIMIT = 14  # lattice-length sum of Newt(product); the library refuses above 24
    # Minkowski summand choices of Newt(product), by number of factors; the
    # narrow band for 2 factors keeps the median latency inside one cluster
    SUMMAND_RANGE = {2: (5, 9), 3: (1, 21)}

    def __init__(self, seed):
        super().__init__(seed)
        self._verdicts = {}
        rng = random.Random("factor:supports")
        self.supports = [self._supports(rng, k) for _, k in self.SLOTS]

    def _supports(self, rng, k):
        while True:
            factors = []
            while len(factors) < k:
                exps = {(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(2, 4))}
                if len(exps) >= 2:
                    factors.append(sorted(exps))
            product = {(0, 0): 0}
            for exps in factors:
                product = _times(product, dict.fromkeys(exps, 0))
            if sum(n for _, n in checks.edge_multiset(product)) > self.EDGE_SUM_LIMIT:
                continue
            lo, hi = self.SUMMAND_RANGE[k]
            if lo <= len(checks.summand_choices(product)[1]) <= hi:
                return factors

    @staticmethod
    def _uni(rng):
        def root():
            return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))

        shared = [root() for _ in range(rng.randint(1, 3))]
        num = shared + [root() for _ in range(rng.randint(0, 3))]
        den = shared + [root() for _ in range(rng.randint(1, 3))]
        polys = []
        for roots in (num, den):
            terms = {(rng.randint(0, 2),): Fraction(rng.randint(-4, 4))}
            for r in roots:
                terms = _times(terms, {(1,): Fraction(0), (0,): r})
            polys.append(TropPoly(1, terms))
        return ("minrep", polys[0], polys[1], num, den)

    def cycle(self, c):
        rng = _rng(self.name, self.seed, c)
        out = []
        # 24 requests: 18 factorization searches (6 with all-zero
        # coefficients) and 6 univariate minreps
        for (zero, _), supports in zip(self.SLOTS, self.supports):
            swap = rng.random() < 0.5
            shift = (rng.randint(0, 2), rng.randint(0, 2))
            factors = []
            for i, exps in enumerate(supports):
                terms = {}
                for a, b in exps:
                    e = (b, a) if swap else (a, b)
                    if i == 0:
                        e = (e[0] + shift[0], e[1] + shift[1])
                    terms[e] = Fraction(0 if zero else rng.randint(-4, 4))
                factors.append(terms)
            f = factors[0]
            for h in factors[1:]:
                f = _times(f, h)
            out.append(("factor", TropPoly(2, f), [TropPoly(2, h) for h in factors], zero))
        for i in range(3, 24, 4):
            out.insert(i, self._uni(rng))
        return out

    def run(self, req):
        if req[0] == "minrep":
            return T.minrep_uni(T.TropRational(req[1], req[2]))
        f, factors = req[1], req[2]
        found = T.enumerate_factorizations(f)
        quotient = T.try_divide(f, factors[0])
        return found, quotient, T.fcomp([factors[0], quotient])

    def check(self, req, out):
        if req[0] == "minrep":
            _, f, g, num, den = req
            pair = out
            expect = Fraction(
                checks.multiset_difference(num, den) + checks.multiset_difference(den, num), 2
            )
            _, (vf, vg, vn, vd) = checks.grid_values([f, g, pair.num, pair.den], 1)
            ok = pair.volume == expect and all(
                a - b == c - d for a, b, c, d in zip(vf, vg, vn, vd)
            )
            return ok, checks.digest((pair.num, pair.den, pair.volume))
        _, f, factors, zero = req
        found, quotient, fc = out
        d = checks.digest((found, quotient, fc))
        # products recur across cycles; the verdict is a function of (input, output)
        key = (tuple(h.items() for h in factors), d)
        if key not in self._verdicts:
            self._verdicts[key] = self._verify(f, factors, zero, found, quotient, fc)
        return self._verdicts[key], d

    @staticmethod
    def _verify(f, factors, zero, found, quotient, fc):
        ok = all(checks.affine_integer_difference(f, fs) for fs in found)
        if zero:
            ok = ok and len(found) == checks.factorization_count(f.support)
        if quotient is None:
            return False
        _, (vf, va, vq) = checks.grid_values([f, factors[0], quotient], 2)
        ok = ok and all(a + q == v for v, a, q in zip(vf, va, vq))
        rest = factors[1]
        for h in factors[2:]:
            rest = TropPoly(2, _times(dict(rest.items()), dict(h.items())))
        return ok and fc == checks.region_count(factors[0]) + checks.vertex_count(rest) - 1

    def props(self, req, out):
        return _props(req[1:3] if req[0] == "minrep" else [req[1]])


# ---------------------------------------------------------------------------

CLI_MALFORMED = [
    ("eval", "--poly", "x + + 0", "--at", "1"),
    ("curve", "--poly", "x*y + (1/0) + y"),
]

CLI_VALID = [
    ("eval", "--poly", UNI_2[0], "--at", "3"),
    ("eval", "--poly", "x + y + 0", "--at", "1/2,3", "--member"),
    ("newt", "--poly", "x^2*y^3 + x*y^4 + y^3 + x + y"),
    ("newt", "--poly", UNIQUE_MIN[0]),
    ("subdiv", "--poly", "x*y + x + y + 0"),
    ("subdiv", "--poly", FOUR_LINES, "--svg"),
    ("curve", "--poly", "x + y + 0"),
    ("curve", "--poly", ALT_MIN_1[0], "--svg"),
    ("vol", "--num", UNI_1[0], "--den", UNI_1[1]),
    ("vol", "--num", ALT_MIN_1[0], "--den", ALT_MIN_1[1]),
    ("minrep", "--num", UNI_2[0], "--den", UNI_2[1]),
    ("minrep", "--num", UNI_1[0], "--den", UNI_1[1]),
    ("comp", "--poly", "x + 0", "--poly", "y + 0"),
    ("comp", "--poly", FOUR_LINES_FACTORS[0], "--poly", FOUR_LINES_FACTORS[1]),
    ("divide", "--num", "x^2 + x + 0", "--den", "x + 0"),
    ("divide", "--num", UNIQUE_MIN[0], "--den", "x + y + 0"),
    ("factor", "--poly", UNIQUE_MIN[0]),
    ("factor", "--poly", FOUR_LINES),
    ("divisor", "--num", UNIQUE_MIN[0], "--den", UNIQUE_MIN[1]),
    ("divisor", "--num", ALT_MIN_2[0], "--den", ALT_MIN_2[1], "--svg"),
    ("check-duality", "--num", UNI_1[0], "--den", UNI_1[1], "--count", "200", "--seed", "7"),
    ("render", "--kind", "curve", "--poly", "x + y + 0"),
]

def child_env():
    """The fixed environment of a cli child: the package is not installed."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": "src",
            "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def cli_key(argv) -> str:
    return shlex.join(argv)


class Cli(Workload):
    """A fresh interpreter per request: start-up and import dominate."""

    name = "cli"
    cycles_per_s = 0.25
    trace_cycles = 1

    def __init__(self, seed, golden=None):
        super().__init__(seed)
        self.golden = golden or {}

    def cycle(self, c):
        reqs = CLI_VALID + CLI_MALFORMED
        _rng(self.name, self.seed, c).shuffle(reqs)
        return reqs

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "troprat.cli", *argv],
            env=child_env(), capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, argv, out):
        code, stdout, stderr = out
        if argv in CLI_MALFORMED:
            ok = code == 2 and stdout == b"" and stderr.startswith(b"error: ")
        else:
            ok = code == 0 and stderr == b""
        text = b"%d\n" % code + stdout + b"\x00" + stderr
        d = checks.digest(text)
        want = self.golden.get(cli_key(argv))
        return ok and want in (None, d), d

    def props(self, argv, out):
        return {"terms": 0, "lattice_points": 0, "max_den": 1}


WORKLOADS = {w.name: w for w in (Dense2d, Duality, Factor, Cli)}
