"""Acceptance campaigns; one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json

from fourblocks import (
    Coloring,
    ColoringWithinBound,
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    PeelColoring,
    Rng,
    UGraph,
    check_chord_neighbor_bound,
    color_hamiltonian,
    color_strong_digraph,
    find_cycle_subdivision,
    find_hamiltonian_cycle,
    finalize,
    format_digraph,
    generate,
    is_final,
    is_proper,
    product_coloring,
    spanning_out_tree,
    underlying_graph,
    verify_subdivision,
)
from fourblocks.cli import main
from fourblocks.decomposition import greedy_reverse, peel_low_degree

import naive


def _report(num: int, name: str, failures: list, details: str = ""):
    status = "FAIL" if failures else "PASS"
    suffix = f" ({details})" if details else ""
    print(f"\nACCEPTANCE {num} [{name}]: {status}{suffix}")
    assert not failures, failures[:5]


def _random_digraph(rng: Rng, n: int, m: int) -> Digraph:
    arcs = set()
    attempts = 0
    while len(arcs) < m and attempts < 50 * (m + 1):
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs)


def test_criterion_1_oracle_equivalence():
    rng = Rng(1000)
    failures = []
    found = 0
    for seed in range(200):
        n = 3 + seed % 6
        m = min(2 + rng.randrange(3 * n), n * (n - 1))
        d = _random_digraph(rng, n, m)
        for pat in ((1, 1, 1, 1), (2, 1, 2, 1)):
            pattern = CyclePattern(pat)
            w = find_cycle_subdivision(d, pattern)
            expected = naive.has_cycle_subdivision(d, pat)
            if (w is not None) != expected:
                failures.append((seed, pat, "existence mismatch"))
            if w is not None:
                found += 1
                check = verify_subdivision(d, w, pattern)
                if not check.ok:
                    failures.append((seed, pat, f"witness invalid: {check.reason}"))
    _report(1, "oracle equivalence", failures, f"200 digraphs, {found} witnesses")


def test_criterion_2_finalization():
    failures = []
    for seed in range(500):
        n = 5 + seed % 26
        m = min(n + seed % (2 * n), n * (n - 1))
        d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
        t0 = spanning_out_tree(d, 0)
        t1 = finalize(d, t0)
        if not is_final(d, t1):
            failures.append((seed, "output not final"))
        if any(a < b for a, b in zip(t1.level, t0.level)):
            failures.append((seed, "levels decreased"))
        if any(t1.level[u] == t1.level[v] for u, v in d.arcs):
            failures.append((seed, "equal-level arc survived"))
        tree_arcs = {(p, v) for v, p in enumerate(t1.parent) if p is not None}
        if t1.root != t0.root or not tree_arcs <= d.arcs:
            failures.append((seed, "tree structure broken"))
    _report(2, "finalization", failures, "500 strong digraphs, n up to 30")


def test_criterion_3_pipeline_bound_desk_check():
    failures = []
    free = {1: 0, 2: 0}
    seed = 0
    while (free[1] < 100 or free[2] < 100) and seed < 5000:
        k = 1 + seed % 2
        n = 4 + seed % 7
        m = min(n + seed % (n // 2 + 2), n * (n - 1))
        d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
        seed += 1
        if free[k] >= 100:
            continue
        if find_cycle_subdivision(d, CyclePattern((k, 1, k, 1))) is not None:
            continue
        free[k] += 1
        cert = color_strong_digraph(d, k, k)
        bound = 36 * (2 * k) * (4 * k + 2)
        if not isinstance(cert, ColoringWithinBound):
            failures.append((seed - 1, k, f"not a coloring: {cert}"))
            continue
        if cert.bound != bound:
            failures.append((seed - 1, k, f"bound {cert.bound} != {bound}"))
        if cert.coloring.palette_size > bound:
            failures.append((seed - 1, k, "palette exceeds bound"))
        if not is_proper(underlying_graph(d), cert.coloring):
            failures.append((seed - 1, k, "coloring not proper"))
        for rep in cert.per_class:
            if rep.d1_colors > 6:
                failures.append((seed - 1, k, f"d1 used {rep.d1_colors}"))
            if rep.d2_colors > 6:
                failures.append((seed - 1, k, f"d2 used {rep.d2_colors}"))
            if rep.b2_max_out_degree > 3:
                failures.append((seed - 1, k, "high-part out-degree over 3"))
            if rep.d3_colors > 4 * k + 2:
                failures.append((seed - 1, k, f"d3 used {rep.d3_colors}"))
    if free[1] < 100 or free[2] < 100:
        failures.append(("collection", free, "not enough certified-free instances"))
    _report(
        3,
        "pipeline bound desk check",
        failures,
        f"{free[1]} free instances for k=1 (bound 432), {free[2]} for k=2 (bound 1440)",
    )


def test_criterion_4_hamiltonian_desk_check():
    failures = []
    free = {1: 0, 2: 0}
    seed = 0
    while (free[1] < 100 or free[2] < 100) and seed < 5000:
        k = 1 + seed % 2
        n = 6 + seed % 9
        m = min(n + seed % 4, n * (n - 1))
        d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, n, m, seed))
        seed += 1
        if free[k] >= 100:
            continue
        if find_cycle_subdivision(d, CyclePattern((k, 1, k, 1))) is not None:
            continue
        free[k] += 1
        cycle = find_hamiltonian_cycle(d)
        if cycle is None:
            failures.append((seed - 1, k, "no Hamiltonian cycle in generated instance"))
            continue
        cert = color_hamiltonian(d, cycle, k, k)
        if not isinstance(cert, PeelColoring):
            failures.append((seed - 1, k, "peel stalled on a free instance"))
            continue
        if cert.coloring.palette_size > 6 * k:
            failures.append((seed - 1, k, f"{cert.coloring.palette_size} > 6k colors"))
        if not is_proper(underlying_graph(d), cert.coloring):
            failures.append((seed - 1, k, "peel coloring not proper"))
        violations = check_chord_neighbor_bound(d, cycle, k)
        if violations:
            failures.append((seed - 1, k, f"{len(violations)} chord violations"))
    if free[1] < 100 or free[2] < 100:
        failures.append(("collection", free, "not enough certified-free instances"))
    _report(
        4,
        "Hamiltonian desk check",
        failures,
        f"{free[1]} free instances for k=1, {free[2]} for k=2, n up to 14",
    )


def test_criterion_5_certificate_soundness_converse(tmp_path):
    failures = []
    patterns = ((1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 2, 1))
    runs = 0
    for pat in patterns:
        pattern = CyclePattern(pat)
        for seed in range(50):
            total = sum(pat)
            n = total + 3 + seed % 4
            m = min(n + 3 + seed % n, n * (n - 1))
            d = generate(GenSpec(Family.PLANTED_SUBDIVISION, n, m, seed, pattern))
            graph_file = tmp_path / f"planted_{pat}_{seed}.dg"
            graph_file.write_text(format_digraph(d))
            runs += 1

            import io
            from contextlib import redirect_stdout

            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(
                    [
                        "find",
                        "--pattern",
                        ",".join(map(str, pat)),
                        "--json",
                        str(graph_file),
                    ]
                )
            if code != 0:
                failures.append((pat, seed, f"find exit {code}"))
                continue
            witness_file = tmp_path / "w.json"
            witness_file.write_text(buf.getvalue())
            with redirect_stdout(io.StringIO()):
                if main(["verify", str(graph_file), str(witness_file)]) != 0:
                    failures.append((pat, seed, "verify rejected find output"))

            k1, k3 = pat[0], pat[2]
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(
                    ["color", "--k1", str(k1), "--k3", str(k3), "--json", str(graph_file)]
                )
            cert = json.loads(buf.getvalue())
            if code == 0:
                colors = Coloring(dict(enumerate(cert["colors"])))
                if not is_proper(underlying_graph(d), colors):
                    failures.append((pat, seed, "emitted coloring not proper"))
            elif code == 3:
                cert_file = tmp_path / "cert.json"
                cert_file.write_text(buf.getvalue())
                with redirect_stdout(io.StringIO()):
                    if main(["verify", str(graph_file), str(cert_file)]) != 0:
                        failures.append((pat, seed, "emitted witness does not verify"))
            else:
                failures.append((pat, seed, f"color exit {code}"))
    _report(5, "certificate soundness converse", failures, f"{runs} planted instances")


def test_criterion_6_fixed_point_examples():
    failures = []
    tt4 = Digraph(4, ((i, j) for i in range(4) for j in range(i + 1, 4)))
    if not naive.has_cycle_subdivision(tt4, (1, 1, 1, 1)):
        failures.append("naive enumerator misses the TT4 pattern")
    if find_cycle_subdivision(tt4, CyclePattern((1, 1, 1, 1))) is None:
        failures.append("searcher misses the TT4 pattern")
    for n in (3, 5, 8, 12):
        d = generate(GenSpec(Family.DIRECTED_CYCLE, n))
        for k1, k3 in ((1, 1), (2, 1), (2, 2), (3, 2)):
            if find_cycle_subdivision(d, CyclePattern((k1, 1, k3, 1))) is not None:
                failures.append(f"directed cycle C_{n} claimed to contain a witness")
    _report(6, "fixed-point examples", failures)


def _peel_coloring(g: UGraph) -> dict[int, int]:
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    order, _ = peel_low_degree(range(g.n), adj, g.n)
    return greedy_reverse(adj, order)


def test_criterion_7_product_coloring_law():
    rng = Rng(7777)
    failures = []
    for case in range(1000):
        n = 4 + rng.randrange(9)
        d1 = _random_digraph(rng, n, rng.randrange(2 * n + 1))
        d2 = _random_digraph(rng, n, rng.randrange(2 * n + 1))
        v1 = {v for v in range(n) if rng.randrange(3) > 0}
        v2 = {v for v in range(n) if rng.randrange(3) > 0}
        g1 = UGraph(n, ((u, v) for u, v in d1.arcs if u in v1 and v in v1))
        g2 = UGraph(n, ((u, v) for u, v in d2.arcs if u in v2 and v in v2))
        c1 = Coloring({v: c for v, c in _peel_coloring(g1).items() if v in v1})
        c2 = Coloring({v: c for v, c in _peel_coloring(g2).items() if v in v2})
        out = product_coloring(c1, c2, v1, v2)
        union = UGraph(n, g1.edges | g2.edges)
        sized = Coloring({v: out.colors.get(v, 0) for v in range(n)})
        if not is_proper(union, sized):
            failures.append((case, "product not proper on the union"))
        p1 = len(set(c1.colors.values())) if c1.colors else 1
        p2 = len(set(c2.colors.values())) if c2.colors else 1
        if out.palette_size > p1 * p2:
            failures.append((case, "palette exceeds the product bound"))
    _report(7, "product coloring law", failures, "1000 randomized cases")


def test_criterion_8_determinism(tmp_path):
    import io
    from contextlib import redirect_stdout

    failures = []
    gen_args = ["gen", "--family", "strong", "--n", "9", "--m", "14", "--seed", "42"]
    a, b = tmp_path / "a.dg", tmp_path / "b.dg"
    with redirect_stdout(io.StringIO()):
        main(gen_args + ["-o", str(a)])
        main(gen_args + ["-o", str(b)])
    if a.read_bytes() != b.read_bytes():
        failures.append("instance files differ")
    if (tmp_path / "a.dg.json").read_text() != (tmp_path / "b.dg.json").read_text():
        failures.append("spec sidecars differ")

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["color", "--k1", "1", "--k3", "1", "--json", str(a)])
        outs.append((code, buf.getvalue()))
    if outs[0] != outs[1]:
        failures.append("color certificates differ across runs")

    planted = tmp_path / "p.dg"
    with redirect_stdout(io.StringIO()):
        main(
            [
                "gen",
                "--family",
                "planted",
                "--n",
                "10",
                "--m",
                "16",
                "--seed",
                "3",
                "--pattern",
                "2,1,2,1",
                "-o",
                str(planted),
            ]
        )
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["find", "--pattern", "2,1,2,1", "--json", str(planted)])
        outs.append((code, buf.getvalue()))
    if outs[0] != outs[1] or outs[0][0] != 0:
        failures.append("witnesses differ across runs")
    _report(8, "determinism", failures)
