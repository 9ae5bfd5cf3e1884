"""Command-line front end.

Exit codes are a stable contract:

    0  success (coloring produced / witness found / certificate valid)
    1  input problem (missing, unparsable or unwritable file, malformed
       certificate or cycle file, block length below 1, bad budget, a
       `stress` or `bench` count below 1); also a failed `stress` campaign
       member, or kernels that disagree in `bench`
    2  precondition failure (not strongly connected)
    3  structural outcome (subdivision found / peel stalled / not found /
       certificate invalid, depending on the command)
    4  inconclusive under the search budget
    5  no Hamiltonian cycle available

JSON output (--json) is the machine contract; the default text output is
for humans and carries no stability promise. All randomness flows from
--seed. --budget B sets the search node budget; it defaults to
witness.DEFAULT_BUDGET, and no environment variable changes it. B caps
each search call, not the run: `color` gives B to each level class's exact
d3 coloring and again to the fallback subdivision search, and `color-ham`
without --cycle gives B to the cycle search and again to the stall search.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from . import decomposition, generators, hamiltonian, witness
from .digraph import Digraph, format_digraph, is_strongly_connected, parse_digraph
from .errors import (
    BudgetExceeded,
    InfeasibleSpec,
    NotStronglyConnected,
    ParseError,
)
from .verify import verify_certificate


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class InputError(Exception):
    """An input problem; main reports the message and exits 1."""


def _load_digraph(path: str) -> Digraph:
    try:
        d = parse_digraph(Path(path).read_text())
        if d.n == 0:
            raise ParseError(1, "digraph has no vertices")
    except ParseError as exc:
        raise InputError(f"parse error: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read digraph: {exc}") from None
    except (MemoryError, OverflowError):
        # a header's vertex count past what a list can index or allocate
        raise InputError("digraph too large to hold in memory") from None
    return d


def _check_args(args) -> None:
    """Reject bad block lengths, budgets and counts before any work."""
    if min(getattr(args, "k1", 1), getattr(args, "k3", 1)) < 1:
        raise InputError("block lengths --k1 and --k3 must be at least 1")
    if getattr(args, "budget", 0) < 0:
        raise InputError("--budget must be nonnegative")
    if getattr(args, "count", 1) < 1:
        raise InputError("--count must be at least 1")


def _write(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`). The exit code still
        # reports the outcome; stdout goes to devnull so that the flush at
        # interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, json_obj: dict, text_lines: list[str]) -> None:
    if args.json:
        _write(_canonical_json(json_obj) + "\n")
    else:
        _write("".join(line + "\n" for line in text_lines))


def _emit_coloring(args, cert) -> int:
    """Emit a pipeline or peel coloring certificate; its exit code is 0."""
    _emit(
        args,
        cert.to_json_dict(),
        ["outcome: coloring", f"bound: {cert.bound}",
         f"colors used: {cert.coloring.palette_size}"],
    )
    return 0


def _parse_pattern(text: str) -> witness.CyclePattern:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        if len(parts) != 4:
            raise ValueError("pattern needs exactly 4 comma-separated block lengths")
        return witness.CyclePattern(tuple(int(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"bad pattern: {exc}") from None


def cmd_color(args) -> int:
    d = _load_digraph(args.input)
    try:
        cert = decomposition.color_strong_digraph(d, args.k1, args.k3, args.budget)
    except NotStronglyConnected:
        print("input digraph is not strongly connected", file=sys.stderr)
        return 2
    if isinstance(cert, decomposition.ColoringWithinBound):
        return _emit_coloring(args, cert)
    if isinstance(cert, decomposition.SubdivisionFound):
        _emit(
            args,
            cert.to_json_dict(),
            [
                "outcome: subdivision",
                f"pattern: {cert.pattern.blocks}",
                f"junctions: {cert.witness.junctions}",
            ],
        )
        return 3
    _emit(
        args,
        cert.to_json_dict(),
        ["outcome: inconclusive", f"stage: {cert.stage}", f"reason: {cert.reason}"],
    )
    return 4


def _load_cycle_file(path: str, d: Digraph) -> hamiltonian.HamiltonianCycle:
    try:
        order = tuple(int(t) for t in Path(path).read_text().split())
    except (ValueError, OSError) as exc:
        raise InputError(f"bad cycle file: {exc}") from None
    cycle = hamiltonian.HamiltonianCycle(order)
    if not cycle.is_valid_for(d):
        raise InputError("bad cycle file: cycle file is inconsistent with the digraph")
    return cycle


def cmd_color_ham(args) -> int:
    d = _load_digraph(args.input)
    if args.cycle:
        cycle = _load_cycle_file(args.cycle, d)
    else:
        try:
            found = hamiltonian.find_hamiltonian_cycle(d, args.budget)
        except BudgetExceeded:
            found = None
        if found is None:
            print("no Hamiltonian cycle found within budget", file=sys.stderr)
            return 5
        cycle = found
    cert = hamiltonian.color_hamiltonian(d, cycle, args.k1, args.k3, args.budget)
    if isinstance(cert, hamiltonian.PeelColoring):
        return _emit_coloring(args, cert)
    _emit(
        args,
        cert.to_json_dict(),
        [
            "outcome: stall",
            f"core size: {len(cert.core)}",
            f"witness attached: {cert.witness is not None}",
        ],
    )
    return 3


def cmd_find(args) -> int:
    d = _load_digraph(args.input)
    if args.pattern:
        pattern = _parse_pattern(args.pattern)
    else:
        pattern = witness.CyclePattern.from_k(args.k1, args.k3)
    try:
        w = witness.find_cycle_subdivision(d, pattern, args.budget)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    if w is None:
        if not args.json:
            _write("no subdivision found\n")
        return 3
    check = witness.verify_subdivision(d, w, pattern)
    assert check.ok, f"search produced an invalid witness: {check.reason}"
    _emit(
        args,
        witness.witness_to_json(w, pattern),
        [
            f"subdivision of C{pattern.blocks} found",
            f"junctions: {w.junctions}",
            *(f"path {i}: {' -> '.join(map(str, p))}" for i, p in enumerate(w.paths)),
        ],
    )
    return 0


def cmd_recheck(args) -> int:
    d = _load_digraph(args.input)
    try:
        result = verify_certificate(d, json.loads(Path(args.certificate).read_text()))
    except (OSError, RecursionError, ValueError) as exc:
        raise InputError(f"malformed certificate: {exc}") from None
    _write(result.reason + "\n")
    return 0 if result.ok else 3


def cmd_gen(args) -> int:
    pattern = _parse_pattern(args.pattern) if args.pattern else None
    try:
        family = generators.Family(args.family)
        spec = generators.GenSpec(family, args.n, args.m, args.seed, pattern)
        d = generators.generate(spec)
    except (InfeasibleSpec, ValueError) as exc:
        print(f"infeasible spec: {exc}", file=sys.stderr)
        return 1
    text = format_digraph(d)
    if args.output:
        try:
            Path(args.output).write_text(text)
            Path(args.output + ".json").write_text(
                _canonical_json(spec.to_json_dict()) + "\n"
            )
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from None
    else:
        _write(text)
    return 0


def _stress_instance(family: generators.Family, seed: int, n_max: int, k1: int, k3: int):
    """Instance spec for one campaign member; depends only on the flags and
    the seed so any member can be regenerated alone."""
    if family is generators.Family.RANDOM_STRONG:
        n = 2 + seed % (max(n_max, 3) - 1)
        m = min((n - 1) + seed % (n + 2), n * (n - 1))
        return generators.GenSpec(family, n, m, seed)
    if family is generators.Family.RANDOM_HAMILTONIAN:
        n = 3 + seed % (max(n_max, 4) - 2)
        m = min(n + seed % 5, n * (n - 1))
        return generators.GenSpec(family, n, m, seed)
    if family is generators.Family.PLANTED_SUBDIVISION:
        pattern = witness.CyclePattern.from_k(k1, k3)
        base = sum(pattern.blocks)
        n = base + 2 + seed % max(n_max - base - 1, 1)
        m = min(n + 2 + seed % (n + 1), n * (n - 1))
        return generators.GenSpec(family, n, m, seed, pattern)
    raise ValueError(f"stress does not support family {family.value}")


def _stress_one(args, seed: int) -> tuple[str, str]:
    """Returns (status, detail); status in pass/fail/skip."""
    family = generators.Family(args.family)
    k1, k3 = args.k1, args.k3
    k = max(k1, k3)
    budget = args.budget
    spec = _stress_instance(family, seed, args.n, k1, k3)
    d = generators.generate(spec)
    pattern = witness.CyclePattern.from_k(k, k)
    try:
        w = witness.find_cycle_subdivision(d, pattern, budget)
    except BudgetExceeded:
        return "skip", "oracle budget exhausted"
    if w is not None and not witness.verify_subdivision(d, w, pattern).ok:
        return "fail", "oracle witness failed verification"

    if family is generators.Family.PLANTED_SUBDIVISION:
        # the plant is C(k1,1,k3,1), which need not contain the C(k,1,k,1)
        # that w answers for the pipeline
        try:
            planted = w if k1 == k3 else witness.find_cycle_subdivision(
                d, spec.pattern, budget
            )
        except BudgetExceeded:
            return "skip", "oracle budget exhausted"
        if planted is None or not witness.verify_subdivision(d, planted, spec.pattern).ok:
            return "fail", "planted subdivision not found by oracle"

    if family is generators.Family.RANDOM_HAMILTONIAN:
        try:
            cycle = hamiltonian.find_hamiltonian_cycle(d, budget)
        except BudgetExceeded:
            return "skip", "cycle search budget exhausted"
        if cycle is None:
            return "fail", "generated Hamiltonian instance has no cycle"
        cert = hamiltonian.color_hamiltonian(d, cycle, k1, k3, budget)
        check = verify_certificate(d, cert.to_json_dict())
        if not check:
            return "fail", f"peel certificate rejected: {check.reason}"
        if w is None:
            if not isinstance(cert, hamiltonian.PeelColoring):
                return "fail", "peel stalled on a subdivision-free instance"
            if hamiltonian.check_chord_neighbor_bound(d, cycle, k):
                return "fail", "chord neighbor bound violated on a free instance"
        return "pass", ""

    if not is_strongly_connected(d):
        if family is generators.Family.RANDOM_STRONG:
            return "fail", "generator emitted a non-strong digraph"
        return "skip", "instance not strongly connected"
    cert = decomposition.color_strong_digraph(d, k1, k3, budget)
    check = verify_certificate(d, cert.to_json_dict())
    if not check:
        return "fail", f"pipeline certificate rejected: {check.reason}"
    if isinstance(cert, decomposition.ColoringWithinBound):
        for rep in cert.per_class:
            if rep.d1_colors > 6 or rep.d2_colors > 6 or rep.d3_colors > 4 * k + 2:
                return "fail", f"stage bound violated in class {rep.index}"
            if rep.b2_max_out_degree > 3:
                return "fail", f"high-part out-degree {rep.b2_max_out_degree} > 3"
        return "pass", ""
    if isinstance(cert, decomposition.SubdivisionFound):
        if w is None:
            return "fail", "pipeline found a subdivision the oracle ruled out"
        return "pass", ""
    if w is None:
        return "fail", f"inconclusive on a subdivision-free instance: {cert.reason}"
    return "skip", f"inconclusive: {cert.reason}"


def cmd_stress(args) -> int:
    counts = {"pass": 0, "fail": 0, "skip": 0}
    failures: list[tuple[int, str]] = []
    for seed in range(args.seed, args.seed + args.count):
        status, detail = _stress_one(args, seed)
        counts[status] += 1
        if status == "fail":
            failures.append((seed, detail))
            family = generators.Family(args.family)
            spec = _stress_instance(family, seed, args.n, args.k1, args.k3)
            dump = Path(f"stress_fail_{args.family}_{seed}.dg")
            try:
                dump.write_text(format_digraph(generators.generate(spec)))
            except OSError as exc:
                print(f"seed {seed}: FAIL ({detail}); cannot write {dump}: {exc}",
                      file=sys.stderr)
            else:
                print(f"seed {seed}: FAIL ({detail}) -> {dump}", file=sys.stderr)
    _write(
        f"family={args.family} count={args.count} k1={args.k1} k3={args.k3}\n"
        f"pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}\n"
    )
    return 1 if counts["fail"] else 0


BENCH_PASSES = 5


def cmd_bench(args) -> int:
    """Time each kernel over BENCH_PASSES passes of the instances, the
    kernels taking turns pass by pass, and report the median pass."""
    kernels = sorted(witness.available_kernels().items())
    n = max(args.n, 8)
    specs = [
        generators.GenSpec(
            generators.Family.RANDOM_HAMILTONIAN, n, n + 1 + seed % (n // 2), seed
        )
        for seed in range(args.seed, args.seed + args.count)
    ]
    digraphs = [generators.generate(s) for s in specs]
    k = max(args.k1, args.k3)
    pattern = (k, 1, k, 1)
    budget = args.budget
    passes = {name: [] for name, _ in kernels}
    outcomes = {}
    for _ in range(BENCH_PASSES):
        for name, module in kernels:
            start = time.perf_counter()
            found = []
            for d in digraphs:
                status, payload, _ = module.search_cycle_subdivision(
                    d.out_lists(), *pattern, budget
                )
                found.append((status, payload))
            passes[name].append(time.perf_counter() - start)
            outcomes[name] = found
    results = {name: statistics.median(times) for name, times in passes.items()}
    for name, _ in kernels:
        hits = sum(1 for status, _ in outcomes[name] if status == 0)
        _write(
            f"{name:9s} {results[name] * 1000:9.1f} ms median of {BENCH_PASSES} "
            f"passes over {len(digraphs)} instances "
            f"(n={n}, pattern {pattern}, {hits} witnesses)\n"
        )
    if len(outcomes) == 2:
        agree = outcomes["pure"] == outcomes["compiled"]
        _write(f"kernels agree on all outcomes: {agree}\n")
        if not agree:
            return 1
        if results["compiled"] > 0:
            _write(f"speedup: {results['pure'] / results['compiled']:.1f}x\n")
    else:
        _write("compiled kernel not available; benchmarked the pure kernel only\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourblocks",
        description="Certifying digraph coloring via four-blocks cycle subdivisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="digraph file in the shared text format")
        p.add_argument("--k1", type=int, default=1, help="first block length")
        p.add_argument("--k3", type=int, default=1, help="third block length")
        p.add_argument(
            "--budget", type=int, default=witness.DEFAULT_BUDGET, help="search node budget"
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("color", help="run the certifying coloring pipeline")
    add_common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("color-ham", help="peel coloring for a Hamiltonian digraph")
    add_common(p)
    p.add_argument("--cycle", help="file with the Hamiltonian cycle vertex order")
    p.set_defaults(func=cmd_color_ham)

    p = sub.add_parser("find", help="exhaustive subdivision search")
    add_common(p)
    p.add_argument("--pattern", help="explicit block lengths, e.g. 2,1,2,1")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("verify", help="re-check a certificate against a digraph")
    p.add_argument("input", help="digraph file")
    p.add_argument("certificate", help="certificate or witness JSON file")
    p.set_defaults(func=cmd_recheck)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    p.add_argument("--family", required=True, choices=[f.value for f in generators.Family])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", help="block lengths for the planted family")
    p.add_argument("-o", "--output", help="write here plus a .json spec sidecar")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stress", help="seeded campaign of oracle + pipeline checks")
    p.add_argument("--family", default="strong", choices=["strong", "hamiltonian", "planted"])
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--n", type=int, default=10, help="size cap for instances")
    p.add_argument("--k1", type=int, default=1)
    p.add_argument("--k3", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="first seed of the campaign")
    p.add_argument("--budget", type=int, default=witness.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("bench", help="compare the subdivision search kernels")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k1", type=int, default=2)
    p.add_argument("--k3", type=int, default=2)
    p.add_argument("--budget", type=int, default=witness.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except InputError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
