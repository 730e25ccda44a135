"""The benchmark's three workloads: inputs made from a seed, the timed
operation, and correctness oracles that run outside the timed region.

certify  the prover's loop (approximate, serialize, parse, check) on
         distinct targets; chain building and search dominate.
verify   `unitprod verify` run in-process over a cycled corpus of faithful
         point and search-mode poly certificates, a tenth of them tampered;
         no chain building or search happens.
lab      a fixed, cycled list of lab kernel calls; only lab and arith work.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy
import sympy

import unitprod.arith as arith
import unitprod.certio as certio
import unitprod.chain as chain
import unitprod.cli as cli
import unitprod.errors as errors
import unitprod.lab as lab
import unitprod.lift as lift
import unitprod.poly as poly

EPS_SET = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
EDGE_SHARE = 0.1  # share of certify point targets with a coordinate at 0 or 1


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    cycle_end: bool = True  # a run may stop after this op


class Failure(Exception):
    """An output that an oracle rejected."""


def target(rng: random.Random, n: int, edge_share: float = 0.0) -> chain.TargetPoint:
    """Coordinates k/1000 with 0 < k < 1000; with probability edge_share one
    coordinate sits exactly at 0 or 1 instead."""
    coords = [Fraction(rng.randint(1, 999), 1000) for _ in range(n)]
    if rng.random() < edge_share:
        coords[rng.randrange(n)] = Fraction(rng.randint(0, 1))
    return chain.TargetPoint(tuple(coords))


def chain_prime_bits(target_point, eps) -> float:
    """Estimated bits of the prime a search-mode chain for this target needs.
    Term a[i-1] is about a[i] times coordinate i-1, so a[1] is about the
    prime times the middle coordinates (all but the first and the last).
    Finding a[1] needs a numerator window eps*a[2]/2 at least 1 wide and a
    numerator of at least 2; a[1] >= 2/eps gives both. A coordinate below
    eps/2 counts as eps/2, the smallest ratio a chain step takes."""
    middle = target_point.coords[1:-1]
    return math.log2(2 / (eps * math.prod(max(c, eps / 2) for c in middle)))


def monic(rng: random.Random, degree: int) -> poly.MonicPolynomial:
    return poly.MonicPolynomial(degree, tuple(rng.randint(-5, 5) for _ in range(degree)))


# ---------------------------------------------------------------- oracles

def check_point(cert, target_point, eps) -> None:
    """Independent re-check of a point certificate (no check_certificate)."""
    if cert.target != target_point or cert.eps != eps:
        raise Failure("certificate does not echo its target and eps")
    a = cert.chain.a
    if any(a[i] >= a[i + 1] or math.gcd(a[i], a[i + 1]) != 1 for i in range(len(a) - 1)):
        raise Failure("chain not increasing and consecutively coprime")
    if math.gcd(a[1], math.prod(a[2:])) != 1:
        raise Failure("a1 shares a factor with a2*...*an")
    p, xs = cert.witness.p, cert.witness.x
    if not sympy.isprime(p):
        raise Failure(f"p={p} is not prime")
    if len(xs) != target_point.n or any(not 1 <= x < p for x in xs):
        raise Failure("residue count or range wrong")
    if math.prod(xs) % p != 1:
        raise Failure("residue product is not 1 mod p")
    errs = [abs(t - Fraction(x, p)) for t, x in zip(target_point.coords, xs)]
    if errs != list(cert.errors) or max(errs) != cert.max_error or max(errs) >= eps:
        raise Failure("errors do not recompute below eps")


def check_poly(cert, f, alphas, eps) -> None:
    if cert.f != f or cert.alphas != alphas or cert.eps != eps:
        raise Failure("poly certificate does not echo its inputs")
    inner = cert.inner
    check_point(inner, inner.target, inner.eps)
    p, d = inner.witness.p, f.degree
    values = [Fraction(x**d + sum(c * x**i for i, c in enumerate(f.coeffs)), p**d)
              for x in inner.witness.x]
    if values != list(cert.values):
        raise Failure("polynomial values do not recompute")
    errs = [abs(v - a) for v, a in zip(values, alphas.coords)]
    if errs != list(cert.errors) or max(errs) >= eps:
        raise Failure("polynomial errors do not recompute below eps")


def check_round_trip(text: str) -> None:
    document = certio.parse_document(text)
    again = (certio.serialize_certificate(document)
             if isinstance(document, lift.Certificate)
             else certio.serialize_poly_certificate(document))
    if again != text:
        raise Failure("serialize -> parse -> serialize changed the bytes")


def p_of(document) -> int:
    return (document.inner if isinstance(document, poly.PolyCertificate) else document).witness.p


# ---------------------------------------------------------------- certify

class Certify:
    """Search mode over n in {2,3,5,8} x eps in EPS_SET with equal counts per
    cell; every fifth op is a poly target (n=3), its eps cycling over EPS_SET
    and its degree sweeping down from POLY_DEGREE_MAX[eps] to 1 and round
    again, so every degree gets an equal count and the stream's composition
    does not depend on the seed. No input repeats."""

    name = "certify"
    tail = 99
    POOL = 2000  # certificates whose p and size the quality figures describe
    DIMS = (2, 3, 5, 8)
    # Search mode raises EscalationExhausted when the inner eps of a poly
    # target is too small for 40 doublings of the prime floor. Over random
    # targets the share that fails climbs from a few percent at degree 35
    # (eps 1/10), 32 (1/100) and 28 (1/1000) to all of them by degree 39, 36
    # and 32; none of 1500 failed at each cap below, nor at any of the four
    # degrees under it. It also fails from degree ~9 when a middle alpha is
    # 0, and for point targets whose chain needs a prime above the cap (see
    # chain_prime_bits). The timed stream takes every degree up to the caps
    # and every point target needing at most POINT_PRIME_BITS_MAX bits; the
    # probe keeps the failing inputs visible in every run.
    POLY_DEGREE_MAX = {EPS_SET[0]: 33, EPS_SET[1]: 30, EPS_SET[2]: 27}
    # The cap sits at log2(3 * 2^40) = 41.6 bits. Of 30 n=8 targets per band
    # at eps 1/1000, none failed below 42 bits, 17 in [42, 44), 25 above 44.
    POINT_PRIME_BITS_MAX = 40

    def setup(self, seed: int | str) -> None:
        self.rng = random.Random(f"certify:{seed}")
        self.seed = seed
        self.seen: set = set()
        self.count = 0
        self.set_aside = 0  # point targets drawn but beyond POINT_PRIME_BITS_MAX
        self.quality: list = []

    def _draw(self) -> Op:
        rng, i = self.rng, self.count
        while True:
            if i % 5 == 4:
                eps = EPS_SET[(i // 5) % 3]
                cap = self.POLY_DEGREE_MAX[eps]
                degree = cap - (i // 15) % cap
                op = Op("poly", (monic(rng, degree), target(rng, 3), eps))
            else:
                cell = (i - i // 5) % 12
                point, eps = target(rng, self.DIMS[cell // 3], EDGE_SHARE), EPS_SET[cell % 3]
                if chain_prime_bits(point, eps) > self.POINT_PRIME_BITS_MAX:
                    self.set_aside += 1
                    continue
                op = Op("point", (point, eps))
            if op.args not in self.seen:
                self.seen.add(op.args)
                self.count += 1
                return op

    def ops(self):
        while True:
            yield self._draw()

    def run(self, op: Op):
        if op.kind == "point":
            cert = lift.approximate(*op.args)
            text = certio.serialize_certificate(cert)
            reason = lift.check_certificate(certio.parse_certificate(text))
        else:
            cert = poly.approximate_polynomial(*op.args)
            text = certio.serialize_poly_certificate(cert)
            reason = poly.check_poly_certificate(certio.parse_certificate(text))
        return cert, text, reason

    def check(self, op: Op, out) -> None:
        cert, text, reason = out
        if reason is not None:
            raise Failure(f"own certificate rejected: {reason}")
        if op.kind == "point":
            check_point(cert, *op.args)
        else:
            check_poly(cert, *op.args)
        check_round_trip(text)

    @staticmethod
    def digest(op: Op, out) -> str:
        return out[1]

    def note(self, op: Op, out) -> None:
        if len(self.quality) < self.POOL:
            self.quality.append((p_of(out[0]), len(out[1].encode())))

    def documents(self):
        """(p, serialized bytes) of the first POOL certificates, so the
        figures do not depend on how many ops a run completes."""
        return self.quality

    def probe_targets(self):
        """(group, op) for inputs that hit the search-mode escalation cap."""
        rng = random.Random(f"certify-probe:{self.seed}")
        for eps in EPS_SET:
            for degree in range(self.POLY_DEGREE_MAX[eps] + 1, 41):
                yield "degree above the cap, to 40", Op("poly", (monic(rng, degree),
                                                               target(rng, 3), eps))
            for degree in (8, 12, 16, 20, 24):
                a, _, b = target(rng, 3).coords
                alphas = chain.TargetPoint((a, Fraction(0), b))
                yield "poly middle alpha 0", Op("poly", (monic(rng, degree), alphas, eps))
            coords = list(target(rng, 8).coords)
            coords[1:4] = [Fraction(0)] * 3
            yield "n=8, three zero coordinates", Op("point", (chain.TargetPoint(tuple(coords)), eps))

    def probe(self):
        """Run the probe untimed: {group: [attempted, EscalationExhausted]}.
        Inputs that do certify must pass the oracles."""
        counts: dict = {}
        for group, op in self.probe_targets():
            tally = counts.setdefault(group, [0, 0])
            tally[0] += 1
            try:
                out = self.run(op)
            except errors.EscalationExhausted:
                tally[1] += 1
                continue
            self.check(op, out)
        return counts


# ---------------------------------------------------------------- verify

def _replace_line(text: str, key: str, value: str) -> str:
    lines = text.splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(key + ": ")]
    if len(hits) != 1:
        raise ValueError(f"no unique {key!r} line to tamper")
    lines[hits[0]] = f"{key}: {value}"
    return "\n".join(lines) + "\n"


# Each tamper returns the altered document and the p it states.

def tamper_residue(cert, text: str) -> tuple[str, int]:
    p, xs = cert.witness.p, list(cert.witness.x)
    xs[0] = xs[0] + 1 if xs[0] + 1 < p else xs[0] - 1
    return _replace_line(text, "witness", ",".join(map(str, xs))), p


def tamper_prime(cert, text: str) -> tuple[str, int]:
    p = sympy.nextprime(cert.witness.p)
    while p % cert.congruence.modulus == cert.congruence.residue:
        p = sympy.nextprime(p)
    return _replace_line(text, "p", str(p)), p


def tamper_max_error(cert, text: str) -> tuple[str, int]:
    q = cert.max_error / 2
    return _replace_line(text, "max-error", f"{q.numerator}/{q.denominator}"), cert.witness.p


def tamper_degree(cert, text: str) -> tuple[str, int]:
    """Claim degree 128, consistently enough that the checker reaches the
    d-th root recomputation."""
    degree = 128
    coeffs = list(cert.f.coeffs) + [0] * (degree - cert.f.degree)
    precision = cert.eps / 2 ** (degree + 2)
    text = _replace_line(text, "degree", str(degree))
    text = _replace_line(text, "coeffs", ",".join(map(str, coeffs)))
    text = _replace_line(text, "root-precision",
                         f"{precision.numerator}/{precision.denominator}")
    return text, cert.inner.witness.p


class Verify:
    """Faithful point certificates over n in {2,3,4,5} x EPS_SET (PER_CELL per
    cell), search-mode poly certificates of degree 2..32, and tampered copies
    of fixed cells, about a tenth of the corpus. The composition is the same
    for every seed (only the targets and coefficients change), so medians
    over the corpus do not jump between cells from seed to seed. Each cycle
    visits the corpus in a new seeded order."""

    name = "verify"
    tail = 99
    DIMS = (2, 3, 4, 5)
    PER_CELL = 4
    POLY_DEGREES = tuple(range(2, 33, 2))
    POLY_EPS = Fraction(1, 10)  # search mode reaches degree 32 only at this eps
    # (n, eps index) of the point certificate each tamper is applied to
    TAMPERS = (((2, 0), tamper_residue), ((4, 1), tamper_residue),
               ((3, 1), tamper_prime), ((5, 0), tamper_prime),
               ((3, 2), tamper_max_error), ((5, 2), tamper_max_error))
    DEGREE_TAMPER = 16  # degree of the poly certificate rewritten to claim 128

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int | str) -> None:
        rng = random.Random(f"verify:{seed}")
        self.rng = rng
        faithful = chain.BuilderConfig(mode="faithful")
        points, polys = {}, {}
        for n in self.DIMS:
            for e, eps in enumerate(EPS_SET):
                for i in range(self.PER_CELL):
                    cert = lift.approximate(target(rng, n), eps, faithful)
                    points[n, e, i] = (cert, certio.serialize_certificate(cert))
        for degree in self.POLY_DEGREES:
            cert = poly.approximate_polynomial(monic(rng, degree), target(rng, 3), self.POLY_EPS)
            polys[degree] = (cert, certio.serialize_poly_certificate(cert))
        corpus = [(text, p_of(cert), True) for cert, text in [*points.values(), *polys.values()]]
        for cell, tamper in self.TAMPERS:
            corpus.append((*tamper(*points[(*cell, rng.randrange(self.PER_CELL))]), False))
        corpus.append((*tamper_degree(*polys[self.DEGREE_TAMPER]), False))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.corpus = []
        for i, (text, p, valid) in enumerate(corpus):
            path = self.workdir / f"{i:03d}.cert"
            path.write_text(text, encoding="utf-8")
            self.corpus.append((str(path), text, p, valid))

    def ops(self):
        while True:
            order = list(range(len(self.corpus)))
            self.rng.shuffle(order)
            for j, i in enumerate(order):
                yield Op("verify", (i,), cycle_end=j == len(order) - 1)

    def run(self, op: Op):
        path = self.corpus[op.args[0]][0]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["verify", "--cert", path])
        return code, buffer.getvalue()

    def check(self, op: Op, out) -> None:
        code, stdout = out
        if self.corpus[op.args[0]][3]:
            if (code, stdout) != (0, "valid\n"):
                raise Failure(f"valid certificate got exit {code}: {stdout.strip()!r}")
        elif code != 1 or not stdout.startswith("invalid certificate: "):
            raise Failure(f"tampered certificate got exit {code}: {stdout.strip()!r}")

    @staticmethod
    def digest(op: Op, out) -> str:
        return f"{out[0]}|{out[1]}"

    def check_corpus(self) -> None:
        """The valid part of the corpus passes the independent oracles."""
        for _, text, _, valid in self.corpus:
            if not valid:
                continue
            document = certio.parse_document(text)
            if isinstance(document, lift.Certificate):
                check_point(document, document.target, document.eps)
            else:
                check_poly(document, document.f, document.alphas, document.eps)
            check_round_trip(text)

    def note(self, op: Op, out) -> None:
        pass

    def documents(self):
        """(p, bytes) per corpus document; recorded at set-up, so a tampered
        document the parser rejects still counts."""
        return [(p, len(text.encode())) for _, text, p, _ in self.corpus]


# ---------------------------------------------------------------- lab

def nearest_oracle(p: int, target_point) -> Fraction:
    """Brute-force minimum over all points of max_i |t_i - x_i/p|, on
    integers: coordinates are k/1000, so the distance is |k*p - 1000*x|/(1000p)."""
    inverse = numpy.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=numpy.int64)
    x1, x2 = numpy.meshgrid(numpy.arange(1, p), numpy.arange(1, p), indexing="ij")
    x3 = inverse[(x1 * x2) % p]
    scale = [int(t * 1000) for t in target_point.coords]
    gaps = [numpy.abs(k * p - 1000 * x) for k, x in zip(scale, (x1, x2, x3))]
    return Fraction(int(numpy.maximum(numpy.maximum(gaps[0], gaps[1]), gaps[2]).min()),
                    1000 * p)


def jacobsthal_oracle(b: int) -> int:
    """Largest gap between consecutive integers coprime to b, by scanning
    one period plus one."""
    values = numpy.arange(1, b + 2, dtype=numpy.int64)
    coprime = numpy.flatnonzero(numpy.gcd(values, b) == 1)
    return int(numpy.diff(coprime).max()) if len(coprime) > 1 else 1


class Lab:
    """box_discrepancy at (n, p, k) below, nearest_point_distance at n=3
    against one seeded target per prime, jacobsthal at two primorials; each
    cycle runs the list in a new seeded order."""

    name = "lab"
    tail = 90
    BOXES = ((2, 1009, 4), (2, 1009, 8), (2, 10007, 4), (2, 10007, 8),
             (3, 101, 4), (3, 211, 4), (4, 31, 3))
    NEAREST_PRIMES = (53, 101)
    JACOBSTHAL = (30030, 510510)

    def setup(self, seed: int | str) -> None:
        rng = random.Random(f"lab:{seed}")
        self.rng = rng
        calls = [Op("box", (p, n, k)) for n, p, k in self.BOXES]
        calls += [Op("nearest", (p, 3, target(rng, 3))) for p in self.NEAREST_PRIMES]
        calls += [Op("jacobsthal", (b,)) for b in self.JACOBSTHAL]
        self.calls = calls
        self.expected: dict = {}
        self.report_bytes: dict = {}

    def ops(self):
        while True:
            order = list(self.calls)
            self.rng.shuffle(order)
            for j, op in enumerate(order):
                yield Op(op.kind, op.args, cycle_end=j == len(order) - 1)

    def run(self, op: Op):
        if op.kind == "box":
            return lab.box_discrepancy(*op.args)
        if op.kind == "nearest":
            return lab.nearest_point_distance(*op.args)
        return arith.jacobsthal(*op.args)

    def check(self, op: Op, out) -> None:
        if op.kind == "box":
            p, n, k = op.args
            if out.total != (p - 1) ** (n - 1) or sum(out.counts) != out.total:
                raise Failure("box counts do not add up to (p-1)^(n-1)")
            if len(out.counts) != k**n:
                raise Failure("wrong number of boxes")
            text = certio.serialize_report(out)
            if certio.parse_document(text) != out:
                raise Failure("report does not survive serialize/parse")
            self.report_bytes[op.args] = len(text.encode())
            return
        if op.args not in self.expected:
            self.expected[op.args] = (nearest_oracle(op.args[0], op.args[2])
                                      if op.kind == "nearest"
                                      else jacobsthal_oracle(op.args[0]))
        if out != self.expected[op.args]:
            raise Failure(f"{op.kind}{op.args[:2]} = {out}, brute force says "
                          f"{self.expected[op.args]}")

    @staticmethod
    def digest(op: Op, out) -> str:
        return repr(out)

    def note(self, op: Op, out) -> None:
        pass

    def documents(self):
        """(p, report bytes) per box call; jacobsthal has no p, and
        nearest_point_distance yields no document."""
        return [(args[0], size) for args, size in self.report_bytes.items()]
