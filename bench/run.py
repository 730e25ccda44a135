"""unitprod benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload certify|verify|lab --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs the same workload with spans around every module boundary,
then replays the identical ops untraced, checks that both passes give the
same outputs, and reports the per-layer metrics and the tracing overhead.
A readable report goes to stdout; its last line is one JSON object.
Exit 0 once a report is printed (its "correct" field carries the verdict),
1 when the package cannot be imported from ./src, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"certify": 15, "verify": 5, "lab": 15}
# ops in the heap pass: at least this many, ending with a complete corpus cycle
HEAP_OPS = {"certify": 60, "verify": 1, "lab": 1}
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import unitprod; print(time.perf_counter() - t)")


def import_package():
    if not (SRC / "unitprod" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}/unitprod")
    sys.path.insert(0, str(SRC))
    import unitprod

    if Path(unitprod.__file__).resolve().parent != SRC / "unitprod":
        sys.exit(f"error: imported unitprod from {unitprod.__file__}, not {SRC}")


def import_seconds() -> float:
    """Package import time in a fresh interpreter, the cold start a user pays."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class Pass:
    """One closed-loop pass: a single client issues the next op when the
    previous one returns, until `seconds` of op time have accrued and the
    current corpus cycle is complete."""

    def __init__(self) -> None:
        self.ops: list = []
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs and unexpected errors

    def run(self, workload, ops, seconds: float, tracer=None, check=True, between=None) -> None:
        """`between(elapsed)`, if given, is called before each op, outside
        the op's time."""
        elapsed = 0.0
        for op in ops:
            if between is not None:
                between(elapsed)
            if tracer is not None:
                tracer.active = True
            start = perf_counter()
            try:
                out, error = workload.run(op), None
            except Exception as exc:  # one failed op must not end the run
                out, error = None, exc
            took = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            self.ops.append(op)
            self.latencies.append(took)
            self._settle(workload, op, out, error, check)
            elapsed += took
            if elapsed >= seconds and op.cycle_end:
                break

    def _settle(self, workload, op, out, error, check: bool) -> None:
        """Digest and, unless replaying, check the output of one op."""
        from unitprod.errors import EscalationExhausted
        from workloads import Failure

        if error is not None:
            self.failed += 1
            self.digests.append(f"exception {type(error).__name__}")
            if not isinstance(error, EscalationExhausted):
                self.problems.append("".join(
                    traceback.format_exception_only(type(error), error)).strip())
            return
        self.digests.append(hashlib.sha256(workload.digest(op, out).encode()).hexdigest())
        if check:
            try:
                workload.check(op, out)
                workload.note(op, out)
            except Failure as exc:
                self.failed += 1
                self.problems.append(f"{op.kind}{op.args}: {exc}")

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def tail_stats(latencies, pct):
    """(value at pct, samples strictly above it) in seconds."""
    value = statistics.quantiles(latencies, n=100)[pct - 1]
    return value, sum(1 for t in latencies if t > value)


def median_latency(timed: Pass) -> tuple[float, str]:
    """Median op latency in seconds, and how it was taken: the median over
    the distinct inputs of each input's own median latency. On `certify`,
    where no input repeats, that is the plain median. On `lab` the eleven
    calls' costs form clusters and the plain median sits on the edge between
    two of them, so it jumps with the host's speed; the median over inputs
    does not. `verify` is treated alike because it cycles its corpus too."""
    by_input: dict = {}
    for op, took in zip(timed.ops, timed.latencies):
        by_input.setdefault((op.kind, op.args), []).append(took)
    counts = [len(ts) for ts in by_input.values()]
    return (statistics.median(statistics.median(ts) for ts in by_input.values()),
            f"median over {len(by_input)} inputs of each one's median, "
            f"{min(counts)}-{max(counts)} samples per input, n={len(timed.latencies)}")


def heap_pass(name: str, seed: int, workdir: Path) -> tuple[float, int]:
    """Largest Python heap one step of the workload needs: the tracemalloc
    peak above the memory in use when the step starts, over the set-up and
    each of the first ops of a fresh instance. It runs after the timed pass,
    untimed and without oracles; each op is drawn before its step starts, so
    the benchmark's own bookkeeping stays out. Returns MB and the op count."""
    workload = make_workload(name, workdir / "heap")
    tracemalloc.start()
    try:
        peaks = [step_peak(workload.setup, seed)]
        count = 0
        for op in workload.ops():
            try:
                peaks.append(step_peak(workload.run, op))
            except Exception:  # the timed pass ran the same op and counted it
                pass
            count += 1
            if count >= HEAP_OPS[name] and op.cycle_end:
                break
    finally:
        tracemalloc.stop()
        shutil.rmtree(workdir / "heap", ignore_errors=True)
    return max(peaks) / 2**20, count


def step_peak(fn, arg) -> int:
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn(arg)
    return tracemalloc.get_traced_memory()[1] - start


def end_to_end(workload, timed: Pass, setup_s: float, heap: tuple[float, int]) -> list:
    lat = timed.latencies
    tail, beyond = tail_stats(lat, workload.tail)
    docs = workload.documents() or [(0, 0)]  # empty only if every op failed
    bits = [p.bit_length() for p, _ in docs]
    sizes = [size for _, size in docs]
    n = len(lat)
    p50, p50_detail = median_latency(timed)
    rows = [
        ("ops_per_s", n / timed.seconds, "1/s", f"{n} ops in {timed.seconds:.2f} s of op time"),
        ("op_ms_p50", 1e3 * p50, "ms", p50_detail),
        ("op_ms_tail", 1e3 * tail, "ms",
         f"= op_ms_p{workload.tail}, n={n}, {beyond} samples beyond"),
        ("p_bits_p50", statistics.median(bits), "bits", f"over {len(bits)} documents"),
        ("p_bits_max", max(bits), "bits", f"over {len(bits)} documents"),
        ("cert_bytes_p50", statistics.median(sizes), "bytes", f"over {len(sizes)} documents"),
        ("setup_s", setup_s, "s",
         f"median of {SETUP_REPEATS[workload.name]} set-ups spread over the timed pass"),
        ("peak_heap_mb", heap[0], "MB",
         f"largest step of set-up and the first {heap[1]} ops, untimed"),
    ]
    return rows


def per_layer(tr, traced: Pass, untraced: Pass, probe_ratio: float) -> list:
    ops = len(traced.ops)

    def per_op_ms(seconds):
        return 1e3 * seconds / ops

    def ratio(a, b):
        return a / b if b else 0.0

    search_keys = ("search.find_coprime_numerator", "search.find_denominator_for_prime")
    search_calls = sum(tr.calls(k) for k in search_keys)
    nocandidate = sum(tr.errors(k, "NoCandidate") for k in search_keys)
    lab_s = tr.total_s("lab.box_discrepancy") + tr.total_s("lab.nearest_point_distance")
    layer_self = {layer: tr.layer_self_s(layer) for layer in LAYERS}
    unattributed = traced.seconds - sum(layer_self.values())
    rows = [
        ("chain.build_chain.calls", ratio(tr.calls("chain.build_chain"), ops), "calls/op"),
        ("chain.attempts_mean", statistics.fmean(tr.attempts) if tr.attempts else 0.0,
         "attempts/call"),
        ("chain.attempts_max", max(tr.attempts, default=0), "attempts"),
        ("chain.build_share", ratio(tr.total_s("chain.build_chain"),
                                    tr.total_s("lift.approximate")), "ratio"),
        ("chain.probe_exhausted_ratio", probe_ratio, "ratio"),
        ("search.calls", ratio(search_calls, ops), "calls/op"),
        ("search.ms", per_op_ms(sum(tr.total_s(k) for k in search_keys)), "ms/op"),
        ("search.nocandidate_ratio", ratio(nocandidate, search_calls), "ratio"),
        ("arith.is_prime.calls", ratio(tr.calls("arith.is_prime"), ops), "calls/op"),
        ("arith.is_prime.ms", per_op_ms(tr.total_s("arith.is_prime")), "ms/op"),
        ("arith.next_prime_in_ap.ms", per_op_ms(tr.total_s("arith.next_prime_in_ap")), "ms/op"),
        ("arith.ap_terms_per_scan",
         statistics.fmean(tr.ap_terms) if tr.ap_terms else 0.0, "terms/scan"),
        ("arith.jacobsthal.ms", per_op_ms(tr.total_s("arith.jacobsthal")), "ms/op"),
        ("lift.check_certificate.ms", per_op_ms(tr.total_s("lift.check_certificate")), "ms/op"),
        ("lift.modulus_bits_p50",
         statistics.median(tr.modulus_bits) if tr.modulus_bits else 0.0, "bits"),
        ("lift.p_over_floor_bits_p50",
         statistics.median(tr.p_over_floor_bits) if tr.p_over_floor_bits else 0.0, "bits"),
        ("poly.rational_root.calls", ratio(tr.calls("poly.rational_root"), ops), "calls/op"),
        ("poly.rational_root.ms", per_op_ms(tr.total_s("poly.rational_root")), "ms/op"),
        ("certio.serialize.ms", per_op_ms(tr.total_s("certio.serialize")), "ms/op"),
        ("certio.parse.ms", per_op_ms(tr.total_s("certio.parse")), "ms/op"),
        ("certio.parse_bytes_per_s", ratio(tr.parse_bytes, tr.total_s("certio.parse")),
         "bytes/s"),
        ("cli.verify.ms", per_op_ms(tr.total_s("cli.verify")), "ms/op"),
        ("lab.box_discrepancy.ms", per_op_ms(tr.total_s("lab.box_discrepancy")), "ms/op"),
        ("lab.nearest_point_distance.ms",
         per_op_ms(tr.total_s("lab.nearest_point_distance")), "ms/op"),
        ("lab.points_per_s", ratio(tr.lab_points, lab_s), "points/s"),
    ]
    rows += [(f"{layer}.self_ms", per_op_ms(layer_self[layer]), "ms/op") for layer in LAYERS]
    rows += [
        ("trace.unattributed_ms", per_op_ms(unattributed), "ms/op"),
        ("trace_overhead_ratio",
         (ops / traced.seconds) / (len(untraced.ops) / untraced.seconds), "ratio"),
    ]
    return rows


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "verify":
        return workloads.Verify(workdir)
    return {"certify": workloads.Certify, "lab": workloads.Lab}[name]()


class SetupSampler:
    """Times the set-up a user pays, the package import in a fresh
    interpreter plus building the workload's inputs, on fresh workload
    instances. Sample i builds the inputs of seed "<seed>/i": how long the
    `verify` corpus takes to prove depends on its targets, and a median over
    several corpora depends less on the one seed. The samples are spread
    evenly over the timed pass's op time, so they meet the same host
    conditions as the ops; the host alternates between faster and slower
    phases lasting seconds to minutes, and samples taken back to back would
    all land in one of them."""

    def __init__(self, name: str, seed: int, workdir: Path, seconds: float) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.repeats = SETUP_REPEATS[name]
        self.every = seconds / self.repeats
        self.samples: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while len(self.samples) < self.repeats and elapsed >= len(self.samples) * self.every:
            self.sample()

    def sample(self) -> None:
        workdir = self.workdir / f"setup-{len(self.samples)}"
        cold = import_seconds()
        workload = make_workload(self.name, workdir)
        start = perf_counter()
        workload.setup(f"{self.seed}/{len(self.samples)}")
        self.samples.append(cold + perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)

    def median(self) -> float:
        while len(self.samples) < self.repeats:
            self.sample()
        return statistics.median(self.samples)


def after_pass(workload, timed: Pass) -> tuple[float, list[str]]:
    """Untimed follow-up checks: the probe's EscalationExhausted share
    (certify) and the independent check of the verify corpus."""
    notes, ratio = [], 0.0
    try:
        if workload.name == "certify":
            counts = workload.probe()
            attempted = sum(a for a, _ in counts.values())
            exhausted = sum(e for _, e in counts.values())
            ratio = exhausted / attempted
            groups = "; ".join(f"{g}: {e}/{a}" for g, (a, e) in counts.items())
            notes.append(f"known defect probe (untimed): {exhausted}/{attempted} targets raise "
                         f"EscalationExhausted ({groups})")
            notes.append(f"{workload.set_aside} point targets drawn for the timed stream needed "
                         f"a prime above {workload.POINT_PRIME_BITS_MAX} bits and were set aside")
        elif workload.name == "verify":
            workload.check_corpus()
    except Exception as exc:  # a wrong output or a crash both fail the run
        timed.problems.append(f"after the timed pass: {type(exc).__name__}: {exc}")
    return ratio, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, workdir)
        if args.trace:
            return traced_run(workload, args)
        return untraced_run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no concurrent run still uses it
        except OSError:
            pass


def untraced_run(workload, args, workdir: Path) -> int:
    workload.setup(args.seed)
    gc.collect()
    sampler = SetupSampler(workload.name, args.seed, workdir, args.seconds)
    timed = Pass()
    timed.run(workload, workload.ops(), args.seconds, between=sampler)
    setup_s = sampler.median()
    _, notes = after_pass(workload, timed)
    heap = heap_pass(workload.name, args.seed, workdir)
    rows = end_to_end(workload, timed, setup_s, heap)
    header(workload, args, timed)
    for name, value, unit, detail in rows:
        print(f"  {name:<16} {value:>14.4f} {unit:<6} {detail}")
    return finish(timed, notes, {name: (value, unit) for name, value, unit, _ in rows})


def traced_run(workload, args) -> int:
    workload.setup(args.seed)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    traced = Pass()
    try:
        traced.run(workload, workload.ops(), args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    gc.collect()
    untraced = Pass()
    untraced.run(workload, traced.ops, float("inf"), check=False)
    mismatches = sum(a != b for a, b in zip(traced.digests, untraced.digests))
    if mismatches or len(untraced.ops) != len(traced.ops):
        traced.problems.append(f"traced and untraced outputs differ on {mismatches} ops")
    if workload.name != "certify":
        idle = sum(s.calls for key, s in tracer.stats.items()
                   if key.startswith(("chain.", "search.")))
        if idle:
            traced.problems.append(f"{idle} chain or search calls on {workload.name}, "
                                   f"which must do no chain building or search")
    if tracer.attempt_mismatches:
        traced.problems.append(f"chain attempts disagree with the _attempt_chain count "
                               f"on {tracer.attempt_mismatches} build_chain calls")
    probe_ratio, notes = after_pass(workload, traced)
    rows = per_layer(tracer, traced, untraced, probe_ratio)
    values = {name: value for name, value, _ in rows}
    layer_sum = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
    op_ms = 1e3 * traced.seconds / len(traced.ops)
    overhead_ms = op_ms - 1e3 * untraced.seconds / len(untraced.ops)
    allowed_ms = max(overhead_ms, 0.01 * op_ms)
    notes.append(f"layer self times add to {layer_sum:.4f} of {op_ms:.4f} ms/op traced; the "
                 f"{op_ms - layer_sum:.4f} ms/op outside every span is within "
                 f"{allowed_ms:.4f} ms/op (tracing overhead {overhead_ms:.4f} ms/op, "
                 f"floor 1% of the op)")
    if not 0 <= op_ms - layer_sum <= allowed_ms:
        traced.problems.append("layer self times do not add up to the op time")
    header(workload, args, traced)
    for name, value, unit in rows:
        print(f"  {name:<30} {value:>16.4f} {unit}")
    return finish(traced, notes, {name: (value, unit) for name, value, unit in rows})


def header(workload, args, timed: Pass) -> None:
    ops = len(timed.ops)
    distinct = len({op.args for op in timed.ops})
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ops {ops}  "
          f"distinct {distinct}  repeat share {1 - distinct / ops:.3f}  "
          f"fail_ratio {timed.failed / ops:.4f} ({timed.failed}/{ops})")


def finish(timed: Pass, notes: list[str], metrics: dict) -> int:
    for note in notes:
        print(f"  note: {note}")
    for problem in timed.problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not timed.problems,
        "attempted": len(timed.ops),
        "failed": timed.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
