"""Seeded, single-process, closed-loop benchmark of the certifying pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-color --seed 1 --seconds 30 --trace 0

One operation is one instance, run on one thread, the next starting only
after the previous one ends. Its timed span starts from the digraph text and
covers ``parse_digraph``, the certifying call and ``to_json_dict()``; for
``ham-peel`` the certifying call is ``color_hamiltonian`` followed by
``check_chord_neighbor_bound`` on the supplied cycle. Every workload passes
an explicit budget, so ``FOURBLOCKS_BUDGET`` cannot change what is measured.

A run first completes one pass over the seed's pool of distinct instances,
then keeps cycling through it until ``--seconds`` have passed. Outcome
shares, search-node counts and certificate hashes come from that first pass,
so they repeat exactly for a seed; times come from every operation.

The host this runs on changes speed by up to half within seconds, and CPU
time follows wall time, so raw seconds spread more between runs than any
useful regression bound. Each operation is therefore bracketed by a fixed
pure-Python reference loop (``reference_seconds``), and the end-to-end
times are reported in units of it (``ref``): operation seconds divided by
the mean of the two reference timings around it. A program change moves
these figures exactly as it moves seconds; a host slowdown moves both the
operation and the reference and cancels. Raw seconds are printed beside
them and kept in the report.
Set-up (building the pool plus one warm-up operation) is timed once before
measuring and eight more times spread over the run; ``setup_s`` is the
import time plus the median of the nine.

Every certificate is re-checked by the gate in ``gate.py``; a failed check
or an exception counts as a failed operation and the run goes on. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every instance runs once untraced and once traced (order
alternating), the two certificates must be byte-identical, and the last line
carries the per-layer metrics and the tracing overhead. Earlier stdout lines
give a readable report; the full report, with spans, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9
REFERENCE_ITERATIONS = 20_000
WARMUP_N = 60

# per-layer span name -> metric name; the value is mean self seconds per op
LAYER_TIMES = {
    "outtree.finalize": "outtree.finalize_s",
    "outtree.bfs": "outtree.bfs_s",
    "decomposition.arc_partition": "decomposition.arc_partition_s",
    "decomposition.color_d1": "decomposition.color_d1_s",
    "decomposition.color_d2": "decomposition.color_d2_s",
    "decomposition.color_d3": "decomposition.color_d3_s",
    "decomposition.level_classes": "decomposition.level_classes_s",
    "digraph.parse": "digraph.parse_s",
    "digraph.strong": "digraph.strong_s",
    "digraph.product": "digraph.product_s",
    "witness.search": "witness.search_s",
    "witness.verify": "witness.verify_s",
    "hamiltonian.peel": "hamiltonian.peel_s",
    "hamiltonian.chord": "hamiltonian.chord_s",
}
# counters summed over the first pass of the pool
LAYER_COUNTS = (
    "decomposition.stage_failures.d1",
    "decomposition.stage_failures.d2",
    "decomposition.stage_failures.d3",
    "witness.search_calls",
    "witness.search_nodes",
    "hamiltonian.chord_violations",
)


def _load_program():
    """Import fourblocks from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import fourblocks
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fourblocks from {SRC}: {exc}")
    import_s = time.perf_counter() - start
    origin = Path(fourblocks.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: fourblocks came from {origin}, not from {SRC}")
    return import_s


def certify(w, inst):
    """One operation: digraph text -> certificate JSON (plus chord violations)."""
    from fourblocks import decomposition, digraph, hamiltonian

    d = digraph.parse_digraph(inst.text)
    if w.ham:
        cycle = hamiltonian.HamiltonianCycle(inst.cycle)
        cert = hamiltonian.color_hamiltonian(d, cycle, inst.k, inst.k, w.budget)
        out = cert.to_json_dict()
        return out, hamiltonian.check_chord_neighbor_bound(d, cycle, inst.k)
    cert = decomposition.color_strong_digraph(d, inst.k, inst.k, w.budget)
    return cert.to_json_dict(), None


def reference_seconds() -> float:
    """Seconds taken by a fixed interpreter-bound loop of integer, list and
    dict work, the unit ``ref`` of the end-to-end times."""
    start = time.perf_counter()
    seen: dict[int, int] = {}
    order: list[int] = []
    x = 1
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFF
        seen[x] = seen.get(x, 0) + i
        order.append(x)
    return time.perf_counter() - start


def digest(cert: dict, violations) -> str:
    """SHA-256 over the canonical certificate JSON, then the chord violations
    as native int64 (u, v, w, count) rows; JSON would cost more than the
    chord check itself."""
    h = hashlib.sha256(
        json.dumps(cert, sort_keys=True, separators=(",", ":")).encode()
    )
    if violations is not None:
        rows = array("q", [f for x in violations for f in (x.u, x.v, x.w, x.count)])
        h.update(rows.tobytes())
    return h.hexdigest()


def setup(w, seed: int):
    """Build the pool and warm up; returns (pool, seconds). Checks the planted
    Hamiltonian cycles without searching for one. The warm-up instance is
    the same for every seed, so set-up time does not vary with it."""
    from fourblocks.digraph import Digraph
    from fourblocks.hamiltonian import HamiltonianCycle

    from workloads import make_instance, make_pool

    start = time.perf_counter()
    pool = make_pool(w, seed)
    if w.ham:
        for inst in pool:
            if not HamiltonianCycle(inst.cycle).is_valid_for(Digraph(inst.n, inst.arcs)):
                raise SystemExit(f"perfbench: slot {inst.slot} cycle is not Hamiltonian")
    certify(w, make_instance(w, 0, w.pool, n=WARMUP_N))
    return pool, time.perf_counter() - start


def nearest_rank(sorted_xs: list, pct: float):
    rank = max(1, math.ceil(pct / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def tail_percentile(samples: list, fixed: int):
    """The workload's fixed tail percentile, or a lower one when fewer than
    ten samples would lie beyond it. Returns (pct, value, beyond)."""
    xs = sorted(samples)
    pct = fixed
    value, beyond = nearest_rank(xs, pct)
    while beyond < 10 and pct > 50:
        pct -= 10
        value, beyond = nearest_rank(xs, pct)
    return pct, value, beyond


class Run:
    """State of one benchmark run over one workload and seed."""

    def __init__(self, w, pool, trace: bool):
        import gate
        import tracing

        self.w = w
        self.pool = pool
        self.gate = gate
        self.tracer = tracing.Tracer() if trace else None
        self.targets = tracing.patch_targets(self.tracer) if trace else None
        self.patched = tracing.patched
        self.attempted = 0
        self.failures: list[dict] = []
        self.samples: list[float] = []  # untraced op seconds, successful ops
        self.ref_samples: list[float] = []  # the same in reference units
        self.op_seconds = 0.0  # untraced op seconds, all ops
        self.op_refs = 0.0  # the same in reference units
        self.arcs_done = 0
        self.traced_seconds = 0.0
        self.paired_untraced_seconds = 0.0
        self.verify_seconds: list[float] = []
        self.total_nodes = 0  # search nodes over every traced operation
        self.first: dict[int, dict] = {}  # slot -> first-pass record

    def fail(self, i: int, inst, reason: str) -> None:
        self.failures.append({"op": i, "slot": inst.slot, "reason": reason})

    def untraced(self, i: int, inst):
        """Run one operation untraced, bracketed by reference timings.
        Returns (cert, violations, seconds, refs) or None on an exception."""
        before = reference_seconds()
        start = time.perf_counter()
        try:
            cert, viol = certify(self.w, inst)
            out = (cert, viol)
        except Exception:
            out = None
        elapsed = time.perf_counter() - start
        refs = elapsed / ((before + reference_seconds()) / 2)
        self.op_seconds += elapsed
        self.op_refs += refs
        if out is None:
            self.fail(i, inst, traceback.format_exc(limit=3))
            return None
        return out[0], out[1], elapsed, refs

    def traced(self, i: int, inst):
        self.tracer.counts.clear()
        with self.patched(self.targets):
            start = time.perf_counter()
            try:
                with self.tracer.span("op", op=i):
                    cert, viol = certify(self.w, inst)
            except Exception:
                self.fail(i, inst, "traced: " + traceback.format_exc(limit=3))
                return None
            elapsed = time.perf_counter() - start
        self.traced_seconds += elapsed
        counts = dict(self.tracer.counts)
        self.total_nodes += counts.get("witness.search_nodes", 0)
        return cert, viol, elapsed, counts

    def check(self, i: int, inst, cert: dict, viol) -> bool:
        start = time.perf_counter()
        try:
            reason = self.gate.check(inst, cert, self.w.ham)
            if reason is None and self.w.ham:
                reason = self.gate.check_chords(inst, viol)
        except Exception:
            reason = "gate raised: " + traceback.format_exc(limit=3)
        self.verify_seconds.append(time.perf_counter() - start)
        if reason is not None:
            self.fail(i, inst, reason)
        return reason is None

    def step(self, i: int) -> None:
        inst = self.pool[i % len(self.pool)]
        self.attempted += 1
        if self.tracer is None:
            plain, traced = self.untraced(i, inst), None
        elif i % 2 == 0:
            plain, traced = self.untraced(i, inst), self.traced(i, inst)
        else:
            traced, plain = self.traced(i, inst), self.untraced(i, inst)
        if plain is None or (self.tracer is not None and traced is None):
            return
        cert, viol, elapsed, refs = plain
        if not self.check(i, inst, cert, viol):
            return
        dig = digest(cert, viol)
        counts = {}
        if traced is not None:
            self.paired_untraced_seconds += elapsed
            counts = traced[3]
            if digest(traced[0], traced[1]) != dig:
                self.fail(i, inst, "traced certificate differs from untraced")
                return
        seen = self.first.get(inst.slot)
        if seen is None:
            self.first[inst.slot] = {
                "slot": inst.slot,
                "n": inst.n,
                "m": inst.m,
                "k": inst.k,
                "outcome": cert["outcome"],
                "stage": cert.get("stage"),
                "seconds": elapsed,
                "sha256": dig,
                "counts": counts,
            }
        elif seen["sha256"] != dig:
            self.fail(i, inst, "certificate bytes changed between passes")
            return
        self.samples.append(elapsed)
        self.ref_samples.append(refs)
        self.arcs_done += inst.m

    def measure(self, seconds: float, resetup, reps: int) -> float:
        """Run operations for `seconds` (and at least one pass), calling
        resetup() between operations `reps` times, evenly spread, so set-up
        time is sampled across the same stretch as the operations."""
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + seconds * j / (reps + 1) for j in range(1, reps + 1)]
        i = 0
        while i < len(self.pool) or time.perf_counter() < deadline:
            self.step(i)
            i += 1
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                resetup()
        for _ in due:
            resetup()
        return time.perf_counter() - start

    # --- results ---------------------------------------------------------

    def first_pass(self) -> list[dict]:
        return [self.first[s] for s in sorted(self.first)]

    def certificates_sha256(self) -> str:
        """SHA-256 over the per-instance certificate digests of the first pass."""
        h = hashlib.sha256()
        for rec in self.first_pass():
            h.update(bytes.fromhex(rec["sha256"]))
        return h.hexdigest()

    def outcome_counts(self) -> dict:
        out: dict[str, int] = {}
        for rec in self.first_pass():
            out[rec["outcome"]] = out.get(rec["outcome"], 0) + 1
        return out

    def inconclusive_share(self) -> float:
        recs = self.first_pass()
        if not recs:
            return 0.0
        return sum(r["outcome"] == "inconclusive" for r in recs) / len(recs)

    def end_to_end(self, setup_s: float) -> tuple[dict, dict]:
        """(metrics, tail details) from the untraced operations. Times are
        in reference units; the details carry the same figures in seconds."""
        refs = sorted(self.ref_samples or [0.0])
        secs = sorted(self.samples or [0.0])
        pct, tail, beyond = tail_percentile(refs, self.w.tail_pct)
        metrics = {
            "certify_ref.p50": (nearest_rank(refs, 50)[0], "ref"),
            "certify_ref.tail": (tail, "ref"),
            "arcs_per_ref": (self.arcs_done / self.op_refs if self.op_refs else 0.0, "1/ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        tail_info = {
            "percentile": pct,
            "samples": len(self.samples),
            "beyond": beyond,
            "seconds": {
                "certify_s.p50": nearest_rank(secs, 50)[0],
                "certify_s.tail": nearest_rank(secs, pct)[0],
                "arcs_per_s": self.arcs_done / self.op_seconds if self.op_seconds else 0.0,
                "reference_s": self.op_seconds / self.op_refs if self.op_refs else 0.0,
            },
        }
        return metrics, tail_info

    def per_layer(self) -> dict:
        tr = self.tracer
        ops = [s for s in tr.spans if s.name == "op"]
        nops = max(len(ops), 1)
        own = tr.self_times()
        by_name: dict[str, float] = {}
        for s in tr.spans:
            by_name[s.name] = by_name.get(s.name, 0.0) + own[s.sid]
        op_total = sum(s.end - s.start for s in ops)
        counts = {key: 0 for key in LAYER_COUNTS}
        found = 0
        for rec in self.first_pass():
            for key in LAYER_COUNTS:
                counts[key] += rec["counts"].get(key, 0)
            found += rec["counts"].get("witness.found", 0)
        search_s = by_name.get("witness.search", 0.0)
        metrics = {
            metric: (by_name.get(span, 0.0) / nops, "s")
            for span, metric in LAYER_TIMES.items()
        }
        metrics["outtree.finalize_share"] = (
            by_name.get("outtree.finalize", 0.0) / op_total if op_total else 0.0,
            "share",
        )
        for key in LAYER_COUNTS:
            metrics[key] = (counts[key], "count")
        calls = counts["witness.search_calls"]
        metrics["witness.found_ratio"] = (found / calls if calls else 0.0, "ratio")
        metrics["witness.nodes_per_s"] = (
            self.total_nodes / search_s if search_s else 0.0,
            "1/s",
        )
        metrics["verify_s"] = (statistics.fmean(self.verify_seconds or [0.0]), "s")
        metrics["inconclusive_share"] = (self.inconclusive_share(), "share")
        overhead = (
            self.traced_seconds / self.paired_untraced_seconds - 1
            if self.paired_untraced_seconds
            else 0.0
        )
        metrics["trace.overhead_share"] = (overhead, "share")
        return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    from fourblocks import witness

    return {
        "kernel": witness.KERNEL,
        "FOURBLOCKS_PURE": os.environ.get("FOURBLOCKS_PURE"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run(w, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Set up, measure and check one workload. Returns (result, report)."""
    from workloads import fingerprint

    pool, took = setup(w, seed)
    setup_times = [took]
    prints = {fingerprint(pool)}

    def resetup():
        again, took = setup(w, seed)
        setup_times.append(took)
        prints.add(fingerprint(again))

    r = Run(w, pool, trace)
    wall = r.measure(seconds, resetup, SETUP_REPS - 1)
    if len(prints) != 1:
        raise SystemExit("perfbench: one seed built different instances")
    setup_s = import_s + statistics.median(setup_times)
    report = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "budget": w.budget,
        "pool": len(pool),
        "instances_sha256": prints.pop(),
        "certificates_sha256": r.certificates_sha256(),
        "outcomes": r.outcome_counts(),
        "inconclusive_share": r.inconclusive_share(),
        "failed_share": len(r.failures) / r.attempted,
        "attempted": r.attempted,
        "failures": r.failures[:20],
        "measured_s": wall,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "first_pass": r.first_pass(),
    }
    if trace:
        metrics = r.per_layer()
        report["spans"] = [s.to_json_dict() for s in r.tracer.spans]
    else:
        metrics, report["tail"] = r.end_to_end(setup_s)
    result = {
        "correct": not r.failures and len(r.first) == len(pool),
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    import_s = _load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    w = WORKLOADS[args.workload]
    result, report = run(w, args.seed, args.seconds, bool(args.trace), import_s)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")

    env = report["environment"]
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"kernel {env['kernel']}  python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['git_commit']}")
    print(f"outcomes {report['outcomes']}  inconclusive_share "
          f"{report['inconclusive_share']:.4f}  failed {result['failed']}/{result['attempted']}")
    print(f"certificates sha256 {report['certificates_sha256']}")
    if "tail" in report:
        t = report["tail"]
        print(f"tail = p{t['percentile']} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
        for name, value in t["seconds"].items():
            print(f"  {name:36s} {value:.6g} (raw)")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"report written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
