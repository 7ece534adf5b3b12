"""One pass of every benchmark workload, in process, against its known answers.

``perfbench/run.py`` counts a verdict that disagrees with its known answer
as a failed operation; this test makes the same comparison in Tier-1, so a
change that breaks a known answer (or an input the workloads generate)
fails here, not only in a benchmark run.  The per-layer probes get the
same check for the node counts they report.
"""

import importlib.util
import math
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"

#: Any seed works; every verdict carries its own known answer.
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class Untraced:
    """The benchmark's tracer interface, calling straight through."""

    def call(self, label, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_gives_every_known_answer(name):
    workload = workloads.WORKLOADS[name]
    if workload.cold_every_pass:
        workloads.clear_caches()
    wrong = [
        item.label
        for item in workload.inputs(SEED, 0)
        if item.run(Untraced()) is not item.expected
    ]
    assert wrong == []


def module_caches(name):
    module = importlib.import_module(f"einstat.{name}")
    return [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]


def geometry_caches():
    return module_caches("geometry")


def run_pass(items):
    for item in items:
        item.run(Untraced())


def test_clear_caches_empties_every_geometry_cache():
    # a cold pass is only cold if no cache outlives clear_caches
    run_pass(workloads.WORKLOADS["unseen"].inputs(SEED, 0))
    caches = geometry_caches()
    assert any(cache.cache_info().currsize for cache in caches)
    workloads.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def test_warm_catalog_pass_misses_no_geometry_cache():
    # the warm passes rest on every per-point lookup hitting its cache
    items = workloads.WORKLOADS["catalog"].inputs(SEED, 0)
    run_pass(items)
    caches = geometry_caches()
    misses = [cache.cache_info().misses for cache in caches]
    run_pass(items)
    assert [cache.cache_info().misses for cache in caches] == misses


def test_clear_caches_empties_every_jets_cache_and_a_warm_pass_misses_none():
    items = workloads.WORKLOADS["symmetry"].inputs(SEED, 0)
    run_pass(items)
    caches = module_caches("jets")
    assert len(caches) == 5
    assert all(cache.cache_info().currsize for cache in caches)
    workloads.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
    run_pass(items)
    misses = [cache.cache_info().misses for cache in caches]
    run_pass(items)
    assert [cache.cache_info().misses for cache in caches] == misses


def test_a_symmetry_pass_derives_each_sample_set_once(monkeypatch):
    # the solved samples are kept per (equation, leading, samples, seed) and
    # the invariant checks' per (samples, seed): a cold pass derives the
    # streams of each such set once, a warm pass none; drawing per check
    # made 69 calls in every pass
    from einstat import jets

    calls = []

    def counted(seed, indices):
        calls.append(seed)
        return stream_states(seed, indices)

    stream_states = jets._stream_states
    monkeypatch.setattr(jets, "_stream_states", counted)
    items = workloads.WORKLOADS["symmetry"].inputs(SEED, 0)
    seeds = {item.label.split()[-1] for item in items}
    pairs = {(pde, seed) for seed in seeds for pde, _, _ in workloads.SYMMETRY_CASES}
    assert len(pairs) == 6
    workloads.clear_caches()
    run_pass(items)
    assert len(calls) == len(pairs) + len(seeds)
    calls.clear()
    run_pass(items)
    assert len(calls) == 0


def test_a_warm_symmetry_pass_walks_no_tree(monkeypatch):
    # a column run only marks a row it proves to fail, and the invariant
    # checks read no error; walking each such row to build its error made
    # 574 walks a pass at seed 7
    from einstat import expressions

    walks = 0

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    walk = expressions._evaluate_all
    monkeypatch.setattr(expressions, "_evaluate_all", counted)
    for seed in (SEED, 7):
        items = workloads.WORKLOADS["symmetry"].inputs(seed, 0)
        run_pass(items)
        walks = 0
        run_pass(items)
        assert walks == 0


def test_a_cold_unseen_pass_differentiates_each_shared_node_once(monkeypatch):
    # derivatives share their inputs' subtrees; without one memo per call and
    # per derivative family, this pass applies 29 134 derivative rules, and
    # with it 9 758; with one intern table per family beside the memo, a
    # structure the rules build again is one node, met once: 7 588
    from einstat import expressions

    applied = 0

    def counted(rule):
        def apply(*args):
            nonlocal applied
            applied += 1
            return rule(*args)

        return apply

    for op, rule in list(expressions._DERIVATIVES.items()):
        monkeypatch.setitem(expressions._DERIVATIVES, op, counted(rule))
    workloads.clear_caches()
    run_pass(workloads.WORKLOADS["unseen"].inputs(SEED, 0))
    assert 0 < applied <= 8_000


def test_a_cold_unseen_pass_compiles_each_built_structure_once(monkeypatch):
    # compile_family walks its trees by identity and gives each structure
    # one slot; without an intern table in each Differentiator, the rules'
    # copies of one structure make this pass walk 16 625 nodes for the same
    # 8 932 slots, and with it 9 970
    from einstat import expressions, geometry, jets

    walked = slots = 0

    def counted(exprs):
        nonlocal walked, slots
        exprs = tuple(exprs)
        seen, stack = set(), list(exprs)
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(expressions._operands(node))
        walked += len(seen)
        tape = compile_family(exprs)
        slots += len(tape.columns.args[1][0])  # the template: one entry per slot
        return tape

    compile_family = expressions.compile_family
    for module in (geometry, jets):
        monkeypatch.setattr(module, "compile_family", counted)
    workloads.clear_caches()
    run_pass(workloads.WORKLOADS["unseen"].inputs(SEED, 0))
    assert slots == 8_932
    assert walked <= 10_500


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # probes imports its siblings by name
    import probes

    return probes


def test_tree_size_counts_every_node(probes):
    from einstat.expressions import parse

    assert probes.tree_size(parse("t*x + 1")) == 5


def test_expression_probe_counts_nodes_of_every_tree(probes):
    # a node refactor that hides operands from the probe would count every
    # tree as one node
    _, exprs = probes.expression_inputs("unseen", SEED)
    metrics = probes.expression_probe("unseen", SEED)
    for order in probes.DERIVE_ORDERS:
        trees = sum(math.comb(len(names) + order - 1, order) for _, names, _ in exprs)
        assert metrics[f"expressions.nodes.o{order}"][0] > trees
