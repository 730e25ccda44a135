"""Spans around the package's public functions, one layer per module.

The tracer rebinds every module attribute of the `unitprod` package that
refers to a traced function, so calls between modules pass through a
wrapper; the package's source is not touched. Spans are aggregated as they
close (count, outermost inclusive time, self time, exception types), which
keeps memory flat however long a run is. A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span key); the key's first component is the layer.
TRACED = (
    ("unitprod.chain", "build_chain", "chain.build_chain"),
    ("unitprod.search", "find_coprime_numerator", "search.find_coprime_numerator"),
    ("unitprod.search", "find_denominator_for_prime", "search.find_denominator_for_prime"),
    ("unitprod.arith", "is_prime", "arith.is_prime"),
    ("unitprod.arith", "next_prime_in_ap", "arith.next_prime_in_ap"),
    ("unitprod.arith", "crt", "arith.crt"),
    ("unitprod.arith", "mod_inverse", "arith.mod_inverse"),
    ("unitprod.arith", "jacobsthal", "arith.jacobsthal"),
    ("unitprod.lift", "approximate", "lift.approximate"),
    ("unitprod.lift", "check_certificate", "lift.check_certificate"),
    ("unitprod.lift", "lift_chain", "lift.lift_chain"),
    ("unitprod.lift", "dirichlet_residue", "lift.dirichlet_residue"),
    ("unitprod.lift", "min_prime_for_error", "lift.min_prime_for_error"),
    ("unitprod.poly", "approximate_polynomial", "poly.approximate_polynomial"),
    ("unitprod.poly", "check_poly_certificate", "poly.check_poly_certificate"),
    ("unitprod.poly", "rational_root", "poly.rational_root"),
    ("unitprod.certio", "serialize_certificate", "certio.serialize"),
    ("unitprod.certio", "serialize_poly_certificate", "certio.serialize"),
    ("unitprod.certio", "serialize_report", "certio.serialize"),
    ("unitprod.certio", "parse_certificate", "certio.parse"),
    ("unitprod.certio", "parse_document", "certio.parse"),
    ("unitprod.lab", "box_discrepancy", "lab.box_discrepancy"),
    ("unitprod.lab", "nearest_point_distance", "lab.nearest_point_distance"),
    ("unitprod.cli", "main", "cli.main"),
    # rebound before each main() call builds its parser, so the wrapper is used
    ("unitprod.cli", "_cmd_verify", "cli.verify"),
)

LAYERS = ("chain", "search", "arith", "lift", "poly", "certio", "lab", "cli")


class _Frame:
    __slots__ = ("key", "child_s", "children", "attempt_calls")

    def __init__(self, key: str) -> None:
        self.key = key
        self.child_s = 0.0
        self.children: Counter = Counter()
        self.attempt_calls = 0


class KeyStats:
    __slots__ = ("calls", "total_s", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0  # outermost calls only
        self.total_s = 0.0  # inclusive time of outermost calls
        self.self_s = 0.0
        self.errors: Counter = Counter()


class Tracer:
    """Install with install(), record while `active`, remove with uninstall()."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, KeyStats] = defaultdict(KeyStats)
        self.attempts: list[int] = []  # per build_chain: find_denominator_for_prime calls
        self.attempt_mismatches = 0  # build_chain calls where _attempt_chain disagrees
        self.ap_terms: list[int] = []  # per lift-issued next_prime_in_ap: is_prime calls
        self.modulus_bits: list[int] = []
        self.p_over_floor_bits: list[int] = []
        self.parse_bytes = 0
        self.lab_points = 0
        self._stack: list[_Frame] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "unitprod" or name.startswith("unitprod.")]
        replaced = {}
        for module_name, attr, key in TRACED:
            original = getattr(sys.modules[module_name], attr)
            replaced[id(original)] = (original, self._wrap(key, original))
        chain_module = sys.modules["unitprod.chain"]
        # independent attempt count: one _attempt_chain call per attempt
        attempt = chain_module._attempt_chain
        replaced[id(attempt)] = (attempt, self._count_attempts(attempt))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()
        self.active = False

    # ------------------------------------------------------------ recording

    def _wrap(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(key)
            stack.append(frame)
            tracer._depth[key] += 1
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer._depth[key] -= 1
                tracer._close(frame, parent, elapsed, error, args)

        return traced

    def _count_attempts(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and tracer._stack:
                tracer._stack[-1].attempt_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _close(self, frame, parent, elapsed, error, args) -> None:
        key = frame.key
        stats = self.stats[key]
        stats.self_s += elapsed - frame.child_s
        if not self._depth[key]:
            stats.calls += 1
            stats.total_s += elapsed
            if key == "certio.parse":
                self.parse_bytes += len(args[0].encode())
        if error is not None:
            stats.errors[error] += 1
        if parent is not None:
            parent.child_s += elapsed
            parent.children[key] += 1
        if key == "chain.build_chain":
            attempts = frame.children["search.find_denominator_for_prime"]
            self.attempts.append(attempts)
            if attempts != frame.attempt_calls:
                self.attempt_mismatches += 1
        elif key == "arith.next_prime_in_ap":
            if parent is not None and parent.key.startswith("lift."):
                self.ap_terms.append(frame.children["arith.is_prime"])
        elif key == "lift.check_certificate":
            cert = args[0]
            self.modulus_bits.append(cert.congruence.modulus.bit_length())
            self.p_over_floor_bits.append(
                cert.witness.p.bit_length() - cert.prime_floor.bit_length()
            )
        elif key in ("lab.box_discrepancy", "lab.nearest_point_distance"):
            p, n = args[0], args[1]
            self.lab_points += (p - 1) ** (n - 1)

    # ------------------------------------------------------------ summaries

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def calls(self, key: str) -> int:
        return self.stats[key].calls if key in self.stats else 0

    def total_s(self, key: str) -> float:
        return self.stats[key].total_s if key in self.stats else 0.0

    def errors(self, key: str, name: str) -> int:
        return self.stats[key].errors[name] if key in self.stats else 0
