"""Per-layer probes: timed calls into each module's public functions.

The ``expressions`` probes run on the workload's own texts, expressions
and points.  The other layers are probed on fixed reference inputs drawn
from the run seed, the same for every workload, so that every traced run
reports every per-layer metric:

* ``geometry``: the scaling potentials ``sum exp(theta_i) - ln(linear)``
  for n = 2..5 and the Weibull metric;
* ``planar``: the 2-D catalog potentials on their boxes, each check on
  the entries that declare it;
* ``jets``: the 15 named generators on their equations;
* ``catalog`` and ``cli``: ``verify_entry`` and ``catalog verify`` of
  every entry, warm.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
from dataclasses import fields, is_dataclass
from itertools import combinations_with_replacement
from time import perf_counter

import tracing
import workloads

DERIVE_ORDERS = (1, 2, 3, 4)
EVALUATED_ORDERS = (1, 2, 3)
CATALOG_PROBE_POINTS = 10
JET_PROBE_POINTS = 20
SCALING_DIMENSIONS = (2, 3, 4, 5)
SCALING_POINTS = 10
VERIFY_REPEATS = 2
LSC_SAMPLES = (20, 200)


def tree_size(root) -> int:
    """Nodes of an expression tree, a shared subtree counted at every use."""
    sizes: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in sizes:
            continue
        kids = _children(node)
        if expanded:
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return sizes[id(root)]


def _children(node) -> tuple:
    kids = getattr(node, "children", None)
    if kids is not None:
        return tuple(kids)
    if is_dataclass(node):
        return tuple(
            value
            for value in (getattr(node, f.name) for f in fields(node))
            if is_dataclass(value) and not isinstance(value, type)
        )
    return ()


# ---------------------------------------------------------------------------
# expressions, on the workload's inputs
# ---------------------------------------------------------------------------

def expression_inputs(workload: str, seed: int):
    """(texts to parse, [(expression, variables, [bindings])]) of a workload."""
    from einstat import catalog, expressions, geometry, jets, planar

    if workload == "catalog":
        texts, exprs = [], []
        for entry in catalog.export_catalog():
            texts += [entry.get("expression", "")] + entry["constraints"]
            texts += [cell for row in entry.get("metric", []) for cell in row]
        for name in catalog.entry_names():
            entry = catalog.get_entry(name)
            if entry.kind == "potential":
                spec = entry.potential
                points = planar.sample_points(spec, entry.box, CATALOG_PROBE_POINTS, seed=seed)
                bindings = [spec.bindings(p) for p in points]
                exprs.append((geometry.resolved_potential(spec), spec.variables, bindings))
            else:
                metric = entry.metric
                rng = random.Random(f"metric:{seed}")
                t0, t1, x0, x1 = entry.box
                bindings = [
                    metric.bindings((rng.uniform(t0, t1), rng.uniform(x0, x1)))
                    for _ in range(CATALOG_PROBE_POINTS)
                ]
                names = ("theta1", "theta2")
                for i in range(2):
                    for j in range(i, 2):
                        exprs.append((metric.entries[i][j], names, bindings))
        return [t for t in texts if t], exprs

    if workload == "symmetry":
        generators = [gen for _, gen, _ in workloads.SYMMETRY_CASES]
        generators += [gen for gen, _, _ in workloads.INVARIANT_CASES]
        texts = [
            part.partition("=")[2] for gen in generators if "=" in gen for part in gen.split(";")
        ]
        texts += [expr for _, expr, _ in workloads.INVARIANT_CASES]
        rng = random.Random(f"jets:{seed}")
        names = jets.jet_variables(jets.MAX_JET_ORDER)
        bindings = [{n: rng.uniform(0.5, 2.0) for n in names} for _ in range(JET_PROBE_POINTS)]
        candidates = [jets.equation_for("heat")[0], jets.equation_for("txpeq", 1.0)[0]]
        candidates += [expressions.parse(expr) for _, expr, _ in workloads.INVARIANT_CASES]
        exprs = [(e, tuple(sorted(expressions.free_variables(e))), bindings) for e in candidates]
        return texts, exprs

    # every text of the first pass is parsed; the derivatives are taken of
    # its positive items only, which keeps the order-4 trees affordable
    texts, exprs = [], []
    for thing in workloads.unseen_stream(seed, 0):
        if isinstance(thing, workloads.PlanarCopy):
            texts += [thing.psi, *thing.constraints]
            names = ("t", "x")
            positive = not thing.perturbed
        else:
            texts += [thing.psi, thing.constraint]
            names = tuple(f"theta{i + 1}" for i in range(thing.dimension))
            positive = thing.alpha == 0.0
        if positive:
            bindings = [dict(zip(names, p)) for p in thing.points]
            exprs.append((expressions.parse(thing.psi), names, bindings))
    return texts, exprs


def expression_probe(workload: str, seed: int) -> dict:
    from einstat import expressions

    texts, exprs = expression_inputs(workload, seed)
    start = perf_counter()
    trees = [expressions.parse(text) for text in texts]
    parse_s = perf_counter() - start

    derive_s = 0.0
    nodes = dict.fromkeys(DERIVE_ORDERS, 0)
    evaluated = []  # (tree, bindings) of the orders the checks evaluate
    for root, names, bindings in exprs:
        level = {(): root}
        for order in DERIVE_ORDERS:
            nxt = {}
            for index in combinations_with_replacement(names, order):
                parent = level[index[:-1]]
                start = perf_counter()
                nxt[index] = expressions.simplify(expressions.differentiate(parent, index[-1]))
                derive_s += perf_counter() - start
            level = nxt
            nodes[order] += sum(tree_size(e) for e in level.values())
            if order in EVALUATED_ORDERS:
                evaluated += [(e, bindings) for e in level.values()]

    work = sum(tree_size(e) * len(bindings) for e, bindings in evaluated)
    start = perf_counter()
    for e, bindings in evaluated:
        for b in bindings:
            expressions.evaluate(e, b)
    evaluate_s = perf_counter() - start
    out = {
        "expressions.parse_s": (parse_s, "s"),
        "expressions.parse_nodes": (sum(tree_size(t) for t in trees), "count"),
        "expressions.derive_s": (derive_s, "s"),
    }
    for order in DERIVE_ORDERS:
        out[f"expressions.nodes.o{order}"] = (nodes[order], "count")
    out["expressions.evaluate_s"] = (evaluate_s, "s")
    out["expressions.evaluate_ns_per_node"] = (evaluate_s * 1e9 / work, "ns")
    return out


# ---------------------------------------------------------------------------
# reference probes for the other layers
# ---------------------------------------------------------------------------

def geometry_probe(seed: int, clear_caches=workloads.clear_caches) -> dict:
    from einstat import catalog, geometry

    rng = random.Random(f"scaling:{seed}")
    scaling = [
        workloads.scaling_potential(n, rng, 0.0, SCALING_POINTS) for n in SCALING_DIMENSIONS
    ]
    specs = [
        geometry.PotentialSpec.create(f"scaling-n{s.dimension}", s.dimension, s.psi, constraints=[s.constraint])
        for s in scaling
    ]
    weibull = catalog.get_entry("weibull-metric").metric
    clear_caches()
    start = perf_counter()
    for spec, s in zip(specs, scaling):
        geometry.fisher_metric(spec)
        geometry.cubic_tensor(spec)
        geometry.ricci_from_metric(geometry.fisher_metric(spec), s.points[0])
    geometry.ricci_from_metric(weibull, (1.0, 1.0))
    out = {"geometry.build_s": (perf_counter() - start, "s")}
    for spec, s in zip(specs, scaling):
        metric = geometry.fisher_metric(spec)
        for name, call in (
            ("alpha_curvature", lambda p: geometry.alpha_curvature(spec, 0.0, p)),
            ("ricci_from_metric", lambda p: geometry.ricci_from_metric(metric, p)),
        ):
            times = []
            for p in s.points:
                start = perf_counter()
                call(p)
                times.append(perf_counter() - start)
            out[f"geometry.{name}_us.n{s.dimension}"] = (statistics.median(times) * 1e6, "us")
    return out


def planar_probe(seed: int) -> dict:
    from einstat import catalog, geometry, planar

    entries = [catalog.get_entry(n) for n in catalog.entry_names()]
    entries = [e for e in entries if e.kind == "potential"]
    draws = accepted = 0
    original = geometry.PotentialSpec.in_domain

    def counting(self, point):
        nonlocal draws, accepted
        inside = original(self, point)
        draws += 1
        accepted += inside
        return inside

    points = {}
    geometry.PotentialSpec.in_domain = counting
    try:
        start = perf_counter()
        for e in entries:
            points[e.name] = planar.sample_points(e.potential, e.box, e.samples, seed=seed)
        sample_s = perf_counter() - start
    finally:
        geometry.PotentialSpec.in_domain = original

    checks = {
        "convexity_check": (catalog.CHECK_CONVEXITY, lambda s, p, e: planar.convexity_check(s, p)),
        "pde_residual": (
            catalog.CHECK_PDE_RESIDUAL,
            lambda s, p, e: planar.pde_residual(s, e.expected_lambda, p, relative=True),
        ),
        "lambda_estimate": (catalog.CHECK_LAMBDA, None),
        "r1212": (catalog.CHECK_FLATNESS, lambda s, p, e: planar.r1212(s, p)),
    }
    out = {
        "planar.sample_s": (sample_s, "s"),
        "planar.sample_accept_ratio": (accepted / draws, "ratio"),
    }
    for name, (check, call) in checks.items():
        elapsed, count = 0.0, 0
        for e in entries:
            if check not in e.checks:
                continue
            pts = points[e.name]
            start = perf_counter()
            if call is None:
                planar.lambda_estimate(e.potential, pts)
            else:
                for p in pts:
                    call(e.potential, p, e)
            elapsed += perf_counter() - start
            count += len(pts)
        out[f"planar.check_us.{name}"] = (elapsed * 1e6 / count, "us")
    return out


def jets_probe(seed: int) -> dict:
    from einstat import jets

    cases = [(pde, name) for pde, name, _ in workloads.SYMMETRY_CASES if "=" not in name]
    prolong_s, prolonged_nodes, marginal = 0.0, 0, 0.0
    small, large = LSC_SAMPLES
    for pde, name in cases:
        gen = jets.generator_by_name(name)
        equation, leading = jets.equation_for(pde, 1.0)
        order = jets.validate_jet_expression(equation)
        start = perf_counter()
        prolonged = jets.prolong(gen, order)
        prolong_s += perf_counter() - start
        prolonged_nodes += sum(tree_size(c) for c in prolonged.coefficients.values())
        times = {}
        for samples in LSC_SAMPLES:
            start = perf_counter()
            jets.lsc_check(gen, equation, leading, samples=samples, seed=seed)
            times[samples] = perf_counter() - start
        marginal += (times[large] - times[small]) / (large - small)
    return {
        "jets.prolong_s": (prolong_s, "s"),
        "jets.prolonged_nodes": (prolonged_nodes, "count"),
        "jets.lsc_sample_us": (marginal * 1e6 / len(cases), "us"),
    }


def catalog_cli_probe(seed: int) -> dict:
    """Warm ``verify_entry`` per entry, and the time ``cli.main`` adds
    around it, taken from spans: the ``cli.main`` span minus its child."""
    from einstat import catalog, cli

    out = {}
    seeds = workloads.derived_seeds("probe", seed, VERIFY_REPEATS)
    for name in catalog.entry_names():
        catalog.verify_entry(name, seed=seeds[0])
        times = []
        for s in seeds:
            start = perf_counter()
            catalog.verify_entry(name, seed=s)
            times.append(perf_counter() - start)
        out[f"catalog.verify_entry_s.{name}"] = (statistics.median(times), "s")

    tracer = tracing.Tracer()
    undo = tracing.interpose(tracer)
    try:
        for name in catalog.entry_names():
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.call("cli.main", cli.main, ["catalog", "verify", name, "--seed", str(seeds[0])])
    finally:
        undo()
    # spans are recorded in call order, so each invocation's spans run
    # from its root to the next root
    spans = tracer.export()
    roots = [i for i, span in enumerate(spans) if span[3] is None] + [len(spans)]
    overheads = [tracing.self_times_ns(spans, lo, hi)["cli"] / 1e9 for lo, hi in zip(roots, roots[1:])]
    out["cli.overhead_s"] = (statistics.median(overheads), "s")
    return out
