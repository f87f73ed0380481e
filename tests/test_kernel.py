import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from twinwidth import kernel as kernel_module
from twinwidth import solver as solver_module
from twinwidth.corpus import (
    cycle_with_trees,
    random_connected_graph,
    random_tree,
    random_with_dangling_trees,
)
from twinwidth.errors import BudgetExceeded, Disconnected
from twinwidth.kernel import (
    Practical,
    Theory,
    _theory_floor,
    general_kernel,
    path_floor,
    solve,
    tower_bound,
    tww2_bikernel,
)
from twinwidth.reduce import _Reduction, _prune, _tidy, fen1_sequence, prune, tidy
from twinwidth.sequence import Emitter, verify
from twinwidth.solver import SolverConfig, _Search, optimal_sequence
from twinwidth.structure import induced_spider, spanning_forest
from twinwidth.trigraph import new_trigraph

from conftest import (
    absorb_and_shorten_oracle,
    bags,
    count_scans,
    make_fig3,
    petersen,
    shorten_oracle,
    witness,
)

CFG = SolverConfig(max_vertices=25)
THEORY_FLOOR = re.compile(r"3\*\(3\*\*(\d+)\*(\d+)\)\*\*(\d+)\+9")


def closed_form_value(t, text):
    """The int value of the theory floor ``text`` reported at core size
    ``t``, once its grammar and its three integers are checked."""
    m = THEORY_FLOOR.fullmatch(text)
    assert m, text
    a, b, c = map(int, m.groups())
    assert (a, b, c) == (t + 4, t * t, 2 * t * t)
    return 3 * (3**a * b) ** c + 9


@pytest.fixture
def decide_calls(monkeypatch):
    """The (cap, vertex count) of every call to the exact search's
    ``solver._search_cap``, in order."""
    calls = []
    real = solver_module._search_cap

    def counting(g, root, d, budget):
        calls.append((d, g.n))
        return real(g, root, d, budget)

    monkeypatch.setattr(solver_module, "_search_cap", counting)
    return calls


class TestGrowthBound:
    def test_level_zero_is_one(self):
        for t in (1, 2, 5, 40):
            assert tower_bound(t, 0) == 1

    def test_spot_values(self):
        assert tower_bound(1, 1) == 243          # 3^5 * 1
        assert tower_bound(2, 1) == 2916         # 3^6 * 4
        assert tower_bound(2, 2) == 2916 ** 2

    def test_theory_floor_t3(self):
        assert path_floor(3) == 3 * (3 ** 7 * 9) ** 18 + 9

    def test_exactness_is_integer(self):
        v = path_floor(5)
        assert isinstance(v, int)
        assert closed_form_value(5, _theory_floor(5)) == v

    def test_closed_form_of_a_tower(self):
        # path_floor(12) has 2,821 digits; its closed form has 20 characters
        text = _theory_floor(12)
        assert text == "3*(3**16*144)**288+9"
        assert closed_form_value(12, text) == path_floor(12)

    def test_written_floor_is_exact_for_each_core_size(self):
        # the core sizes up to 50 and the digest's 73, whose floor has
        # 431,277 digits
        sizes = list(range(1, 51)) + [73]
        for t in sizes:
            assert closed_form_value(t, _theory_floor(t)) == path_floor(t)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tower_bound(0, 1)
        with pytest.raises(ValueError):
            tower_bound(1, -1)


class TestBikernel:
    def test_tree_solved_before_kernelization(self):
        t = random_tree(40, random.Random(3))
        out = tww2_bikernel(t)
        assert out.is_solved
        assert verify(t, out.solved) <= 2

    def test_fig3_kernel(self):
        g = make_fig3()
        out = tww2_bikernel(g, CFG)
        assert not out.is_solved
        assert out.meta["k"] == 2
        assert out.kernel.n <= 116 * 2
        # the single long path collapses to one vertex
        assert out.meta["path_lengths"] == [11]
        assert out.kernel.n == out.meta["core_size"] + 1
        # width-2 decision on the kernel answers for the input
        res = optimal_sequence(out.kernel, CFG)
        assert res.width == 2
        lifted = out.lift.apply(res.sequence)
        assert verify(g, lifted) == 2

    def test_equivalence_random(self):
        rng = random.Random(62)
        done = 0
        while done < 25:
            core_n = rng.choice([4, 5])
            k = rng.choice([1, 2])
            g = random_with_dangling_trees(core_n, k, rng.randrange(0, 5), rng)
            if g.n > 10:
                continue
            done += 1
            tww = optimal_sequence(g, CFG).width
            out = tww2_bikernel(g, CFG)
            if out.is_solved:
                assert verify(g, out.solved) == tww
                continue
            assert out.kernel.n <= 116 * out.meta["k"]
            ktww = optimal_sequence(out.kernel, CFG).width
            assert (tww == 2) == (ktww == 2)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            tww2_bikernel(new_trigraph(4, [(0, 1), (2, 3)]))


def long_path_instance():
    """C4 core plus a 44-vertex chain closing a second cycle.

    The BFS feedback edge lands mid-chain, so pruning yields two long
    pseudo-paths whose tidied remnants still exceed small practical floors.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(2, 4)] + [(i, i + 1) for i in range(4, 47)] + [(47, 0)]
    return new_trigraph(48, edges)


class TestShorten:
    def test_walk_matches_scan(self):
        # the walk over ascending labels merges the same pairs, in the same
        # order, as a scan for the lowest consecutive pair before each merge
        rng = random.Random(8)
        for _ in range(500):
            n = rng.randrange(1, 30)
            first = rng.randrange(n, 3 * n + 5)
            ids = tuple(rng.sample(range(first), n))
            target = rng.randrange(1, n + 3)
            pairs = Emitter(first)
            kernel_module._shorten(ids, target, pairs)
            assert pairs == shorten_oracle(ids, target, first)

    def test_paths_share_one_emitter(self):
        # a second path's labels lie below the first path's fresh labels
        rng = random.Random(9)
        for _ in range(100):
            labels = rng.sample(range(40), 30)
            a, b = tuple(labels[:15]), tuple(labels[15:])
            target = rng.randrange(1, 16)
            pairs = Emitter(40)
            kernel_module._shorten(a, target, pairs)
            first_b = 40 + len(pairs)
            kernel_module._shorten(b, target, pairs)
            assert pairs == shorten_oracle(a, target, 40) + shorten_oracle(b, target, first_b)


class TestValues:
    @staticmethod
    def frozen(g):
        return all(type(s) is frozenset for adj in g.adjacency() for s in adj.values())

    def test_returned_trigraphs_hold_frozensets(self):
        g = make_fig3()
        made = [g.replay([(24, 25), (26, 27)])[0], g.contract(24, 25), g.induce(range(20))]
        made += g.split([range(10), range(10, 30)])
        made.append(new_trigraph(4, [(0, 1)], [(1, 2), (2, 3)]))
        pruned = prune(g, CFG)
        hp, lift = tidy(pruned.instance)
        made += [pruned.instance.g, pruned.lift.child, hp.g, lift.child]
        for out in (
            tww2_bikernel(g, CFG),
            general_kernel(long_path_instance(), Practical(5), SolverConfig(max_vertices=30)),
        ):
            assert not out.is_solved
            made += [out.kernel, out.lift.child]
        assert all(self.frozen(h) for h in made)

    def test_freezing_and_replaying_leave_the_runner_as_it_was(self):
        g = make_fig3()
        run = _Reduction(g, _Search(CFG))
        run._play([(24, 25)])
        work = run.work
        black, red = work.adjacency()
        held = {v: (black[v], red[v]) for v in work.vertices}
        value = work._frozen()
        kernel, _ = value.replay([(26, 27)])
        # neither swaps a set of the runner, private or shared
        assert all(black[v] is b and red[v] is r for v, (b, r) in held.items())
        # the step wrote only the black sets of the pair's neighbours and the
        # red sets of the fresh vertex's red neighbours; every other set is
        # still the input's frozenset
        touched = (g.neighbors(24) | g.neighbors(25)) - {24, 25}
        gb, gr = g.adjacency()
        fresh = g.next_label
        for v in work.vertices:
            if v != fresh:
                assert (black[v] is not gb[v]) == (type(black[v]) is set) == (v in touched)
                assert (red[v] is not gr[v]) == (type(red[v]) is set) == (v in red[fresh])
        # the frozen value shares no mutable set with the runner, and a kernel
        # replayed from it writes to neither, nor to the input
        vb, vr = value.adjacency()
        assert all(type(vb[v]) is type(vr[v]) is frozenset for v in work.vertices)
        assert work == value and kernel != value and g == make_fig3()


class TestGeneralKernel:
    def test_all_paths_absorbed_at_default_floor(self):
        g = make_fig3()
        out = general_kernel(g, Practical(12), CFG)
        assert not out.is_solved
        assert out.meta["path_lengths"] == []  # 11 < 12, absorbed
        assert not out.meta["shortened"]
        # fixpoint: the kernel is the whole reduced graph
        assert out.kernel.n == out.meta["kernel_size"]

    @pytest.mark.parametrize("floor", [0, -3])
    def test_practical_floor_below_one_rejected(self, floor):
        # a floor of 0 would ask to shorten a path to no vertices
        with pytest.raises(ValueError):
            Practical(floor)

    @pytest.mark.parametrize("floor", [True, 2.5, "12", 0])
    def test_practical_floor_must_be_a_whole_int(self, floor):
        # a bool would be reported as the floor 1, a float or a string would
        # fail later, in the shortening or in the comparison
        with pytest.raises(ValueError, match="practical floor must be an int"):
            Practical(floor)

    def test_practical_five_shortens_exactly(self):
        from twinwidth.solver import greedy_sequence

        g = long_path_instance()
        out = general_kernel(g, Practical(5), SolverConfig(max_vertices=30))
        assert not out.is_solved
        assert out.meta["path_lengths"] == [5, 5]
        assert out.meta["shortened"]
        replay = greedy_sequence(out.kernel)
        w = verify(out.kernel, replay)
        lifted = out.lift.apply(replay)
        assert verify(g, lifted) <= out.lift.bound(w)

    def test_theory_floor_reported_exactly(self):
        # a cycle with trees and one chord: four paths, absorbed in one round
        c = cycle_with_trees(30, 40, random.Random(1))
        chorded = new_trigraph(c.next_label, c.black_edges() + [(0, 15)])
        trajectories = []
        for g in (make_fig3(), chorded):
            out = general_kernel(g, Theory(), CFG)
            assert not out.is_solved
            assert out.meta["path_lengths"] == []  # floor astronomically large
            floors = out.meta["floors"]
            traj = out.meta["core_trajectory"]
            trajectories.append(traj)
            assert len(floors) == len(traj)
            for t, text in zip(traj, floors):
                assert closed_form_value(max(1, t), text) == path_floor(max(1, t))
        assert trajectories[1] == [43, 44]
        assert floors == ["3*(3**47*1849)**3698+9", "3*(3**48*1936)**3872+9"]

    def test_theory_kernels_build_no_tower(self, monkeypatch):
        # the one absorb pass takes every path under a theory floor without
        # building it, and a report writes the floor as its closed form: no
        # tower is built, by path_floor or otherwise, in a fen-8 theory solve
        # or in a theory kernel of a chorded cycle with paths
        levels = []
        real = kernel_module.tower_bound

        def recording(core_size, level):
            levels.append(level)
            return real(core_size, level)

        monkeypatch.setattr(kernel_module, "tower_bound", recording)
        g = random_connected_graph(2000, 8, random.Random(8000))
        with pytest.raises(BudgetExceeded) as exc:
            solve(g, Theory())
        assert str(exc.value) == "vertices budget exceeded: 212 > 20"
        c = cycle_with_trees(30, 40, random.Random(1))
        trace = []
        out = general_kernel(
            new_trigraph(c.next_label, c.black_edges() + [(0, 15)]), Theory(), CFG, trace
        )
        assert not out.is_solved and out.meta["path_lengths"] == []
        assert {"rule": "absorb_short_paths", "count": 1} in trace
        assert levels == []

    def test_practical_solve_loads_no_decimal(self):
        # in a fresh interpreter, since pytest and hypothesis load decimal:
        # the Petersen graph goes to the general kernel's endgame, and its
        # practical floor, then its theory floor, are written without the
        # decimal module
        script = (
            "import sys\n"
            "from twinwidth.kernel import Practical, Theory, solve\n"
            "from twinwidth.trigraph import new_trigraph\n"
            "edges = [(i, (i + 1) % 5) for i in range(5)]\n"
            "edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]\n"
            "edges += [(i, i + 5) for i in range(5)]\n"
            "for policy in (Practical(12), Theory()):\n"
            "    _, report = solve(new_trigraph(10, edges), policy)\n"
            "    print(report['general_kernel']['floors'], 'decimal' in sys.modules)\n"
        )
        src = str(Path(kernel_module.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "['12'] False\n['3*(3**14*100)**200+9'] False\n"

    def test_theory_floors_are_short_at_any_core_size(self):
        # a core of over 200 vertices: each floor's digits would run to
        # millions, its closed form stays a few dozen characters
        g = random_connected_graph(2000, 16, random.Random(16000))
        out = general_kernel(g, Theory())
        assert not out.is_solved
        assert max(out.meta["core_trajectory"]) > 200
        assert all(len(f) < 64 for f in out.meta["floors"])

    def test_core_trajectory_grows(self):
        g = long_path_instance()
        out = general_kernel(g, Practical(40), SolverConfig(max_vertices=30))
        traj = out.meta["core_trajectory"]
        assert traj == sorted(traj)
        assert len(out.meta["floors"]) == len(traj)

    def test_shortening_monotonicity_oracle(self):
        # where both the input and the shortened kernel fit the solver, the
        # kernel's twin-width stays within +1 of the input's; the guarantee
        # is only proven at theory floors, so a practical-floor violation is
        # a corpus finding to report, not a build failure
        cfg = SolverConfig(max_vertices=25)
        findings = []
        checked = 0
        # two C5s (twin-width 2 cores) joined by a path that survives tidying
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        edges += [(0, 10)] + [(i, i + 1) for i in range(10, 20)] + [(20, 5)]
        cases = [new_trigraph(21, edges)]
        for g in cases:
            out = general_kernel(g, Practical(2), cfg)
            if out.is_solved or not out.meta["shortened"]:
                continue
            if g.n > cfg.max_vertices or out.kernel.n > cfg.max_vertices:
                continue
            checked += 1
            tww_in = optimal_sequence(g, cfg).width
            tww_kernel = optimal_sequence(out.kernel, cfg).width
            if tww_kernel > tww_in + 1:
                findings.append((g.n, tww_in, tww_kernel))
            # the lift contract holds regardless
            res = optimal_sequence(out.kernel, cfg)
            assert verify(g, out.lift.apply(res.sequence)) <= out.lift.bound(res.width)
        assert checked >= 1
        for n, a, b in findings:
            print(f"CORPUS FINDING: practical-floor kernel tww {b} vs input {a} (n={n})")


def subdivided_graph(rng):
    """A random fen-k graph whose edges are long paths: a random connected
    graph on 4-6 hubs with 2 or 3 feedback edges, each edge subdivided by
    up to 30 vertices, and up to 15 tree vertices hung on random vertices."""
    hubs = rng.randint(4, 6)
    base = random_connected_graph(hubs, rng.randint(2, 3), rng)
    edges, n = [], hubs
    for u, v in base.black_edges():
        inner = rng.randrange(31)
        chain = [u, *range(n, n + inner), v]
        n += inner
        edges += zip(chain, chain[1:])
    for _ in range(rng.randrange(16)):
        edges.append((rng.randrange(n), n))
        n += 1
    return new_trigraph(n, edges)


def tidied(g):
    """A runner on the connected plain ``g`` that skips every search, and
    the tidy decomposition it reaches, or None if pruning solves ``g``."""
    (scan,) = spanning_forest(g)
    run = _Reduction(g, _Search(SolverConfig(max_vertices=0)), scan)
    run.decide()
    hp = _prune(run)
    return run, hp and _tidy(run, hp)


class TestAbsorbPass:
    @pytest.mark.parametrize("seed", range(8))
    def test_one_pass_matches_the_absorb_loop(self, seed):
        # on tidy decompositions that keep paths, the one pass gives the
        # loop's pairs, meta and trace events at every practical floor and
        # at the theory floor, whose loop absorbed every path in one round
        rng = random.Random(seed)
        kept = shortened = absorbed = 0
        for _ in range(5):
            run, hp = tidied(subdivided_graph(rng))
            if hp is None or not hp.paths:
                continue
            kept += 1
            tidy_value = run.work._frozen()
            for policy in [Practical(f) for f in range(1, 31)] + [Theory()]:
                run.trace = []
                pairs, meta = kernel_module._absorb_and_shorten(run, hp, policy)
                events = run.trace
                want_events = []
                want = absorb_and_shorten_oracle(
                    tidy_value, hp, len(run.fes), run.lower, policy, want_events
                )
                assert (pairs, meta, events) == (*want, want_events)
                shortened += meta["shortened"]
                absorbed += bool(events)
            assert run.work == tidy_value
        assert kept and shortened and absorbed

    def test_a_kept_path_leaves_a_core_of_at_least_eight(self):
        # the fact the theory pass rests on: a tidy path is left only beside
        # two hubs and the six boundary vertices tidying moves into the core,
        # so a theory floor exceeds 2^(2*8^2) = 2^128 wherever one is left;
        # a bare cycle of twelve reaches the bound
        rng = random.Random(3)
        graphs = [new_trigraph(12, [(i, (i + 1) % 12) for i in range(12)])]
        graphs += [cycle_with_trees(c, rng.randrange(20), rng) for c in range(9, 30)]
        graphs += [random_connected_graph(n, k, rng) for n in range(10, 60, 2) for k in (1, 2, 3)]
        graphs += [subdivided_graph(rng) for _ in range(20)]
        cores = []
        for g in graphs:
            _, hp = tidied(g)
            if hp is not None and hp.paths:
                cores.append(len(hp.core))
        assert len(cores) > 40 and min(cores) == 8


class TestSolve:
    def test_tree(self):
        t = random_tree(60, random.Random(1))
        seq, report = solve(t)
        assert report["width"] <= 2
        assert verify(t, seq) == report["width"]

    def test_fen1(self):
        g = random_connected_graph(50, 1, random.Random(5))
        seq, report = solve(g)
        assert report["width"] <= 2

    def test_fig3_optimal(self):
        g = make_fig3()
        seq, report = solve(g, Practical(12), CFG)
        assert report["width"] == 2
        assert report["status"] == "optimal"
        assert report["k"] == 2

    def test_random_within_one_of_optimal(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randrange(2, 10)
            k = rng.randrange(0, 4)
            if n - 1 + k > n * (n - 1) // 2:
                k = 0
            g = random_connected_graph(n, k, rng)
            tww = optimal_sequence(g).width
            seq, report = solve(g)
            assert report["width"] <= tww + 1
            assert verify(g, seq) == report["width"]

    def test_disconnected_components(self):
        g = new_trigraph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        seq, report = solve(g)
        assert report["components"] == 3  # the third is the isolated vertex 6
        assert verify(g, seq) == report["width"]
        assert len(seq) == g.n - 3
        # no step merges the two components
        forest = bags(g, seq)
        for i in range(len(seq)):
            bag = forest[g.next_label + i]
            assert bag <= {0, 1, 2} or bag <= {3, 4, 5} or bag <= {6}

    def test_union_report_names_its_own_vertices(self):
        # two thetas, each two hubs joined by three 20-vertex paths, with a
        # 2-vertex stump on the 9th-11th vertices of one path: each copy's
        # tidy_path event keeps fresh labels, and every label an event names
        # is made from the vertices of that event's component
        edges = []
        n = 0
        for _ in range(2):
            a, b = n, n + 1
            n += 2
            for k in range(3):
                path = list(range(n, n + 20))
                n += 20
                edges += [(a, path[0]), (path[-1], b)] + list(zip(path, path[1:]))
                if k == 0:
                    for p in path[8:11]:
                        edges += [(p, n), (n, n + 1)]
                        n += 2
        g = new_trigraph(n, edges)
        seq, report = solve(g, Practical(12), SolverConfig(max_vertices=30))
        assert report["components"] == 2
        assert verify(g, seq) == report["width"]
        forest = bags(g, seq)
        half = set(range(n // 2))
        fresh = 0
        for event in report["rules"]:
            labels = [x for v in event.values() if isinstance(v, list) for x in v]
            fresh += sum(x >= g.next_label for x in labels)
            made = set().union(*(forest[x] for x in labels))
            assert made <= half or not made & half, event
        assert fresh > 0

    def test_disconnected_status_rests_on_the_widest_component(self):
        # Petersen is width 4, optimal; the 13-vertex graph of
        # test_reduced_instance_certifies_nothing ends width 2, upper_bound,
        # past a vertex budget of 12.  The union's width is Petersen's, so it
        # is optimal; next to an edge (width 0, optimal) the 13-vertex graph
        # sets the width, and the union stays an upper bound
        config = SolverConfig(max_vertices=12)
        h = random_connected_graph(13, 2, random.Random(269))
        shifted = [(u + 10, v + 10) for u, v in h.black_edges()]
        g = new_trigraph(23, petersen().black_edges() + shifted)
        seq, report = solve(g, Practical(12), config)
        assert report["components"] == 2
        assert verify(g, seq) == report["width"] == 4 and report["status"] == "optimal"
        shifted = [(u + 2, v + 2) for u, v in h.black_edges()]
        g = new_trigraph(15, [(0, 1)] + shifted)
        seq, report = solve(g, Practical(12), config)
        assert report["components"] == 2
        assert verify(g, seq) == report["width"] == 2 and report["status"] == "upper_bound"

    def test_budget_exceeded_propagates(self):
        # fen 2 and large: the exact endgame cannot run at the default budget
        rng = random.Random(10)
        g = random_connected_graph(120, 2, rng)
        with pytest.raises(BudgetExceeded):
            solve(g)

    def test_trigraph_input_goes_to_exact_solver(self):
        g = new_trigraph(4, [(0, 1), (2, 3)], [(1, 2)])
        seq, report = solve(g)
        assert verify(g, seq) == report["width"]
        assert report["rules"][0]["rule"] == "exact_trigraph"
        assert report["status"] == "optimal"

    def test_trigraph_input_bounded_by_its_red_degree(self):
        # a red star 0-{1,2,3} beside the black path 3-4-5-6-7: a one-node
        # search misses, but a sequence's width counts the input itself, so
        # the input's red degree 3 bounds its twin-width and width 3 is optimal
        g = new_trigraph(8, [(3, 4), (4, 5), (5, 6), (6, 7)], [(0, 1), (0, 2), (0, 3)])
        seq, report = solve(g, config=SolverConfig(max_nodes=1))
        assert verify(g, seq) == report["width"] == 3
        assert report["status"] == "optimal"

    def test_one_pipeline_pass_when_bikernel_misses_budget(self, monkeypatch):
        # fen 2: the bikernel has 36 vertices, over the default budget of 20,
        # so the general kernel runs too and the endgame refuses it
        g = random_connected_graph(120, 2, random.Random(10))
        traces = []
        real_prune = kernel_module._prune

        def counting_prune(run, *args):
            traces.append(run.trace)
            return real_prune(run, *args)

        monkeypatch.setattr(kernel_module, "_prune", counting_prune)
        with pytest.raises(BudgetExceeded):
            solve(g)
        assert len(traces) == 1
        assert [e["rule"] for e in traces[0]].count("decomposed") == 1

    def test_feedback_edge_set_not_recomputed_by_prune(self, monkeypatch):
        calls = count_scans(monkeypatch)
        # fen 2: solve scans once, for components and feedback edges, and
        # prune reuses the set
        with pytest.raises(BudgetExceeded):
            solve(random_connected_graph(120, 2, random.Random(10)))
        assert calls == [("forest", 120)]
        # fen 1: the feedback-edge-one walk reuses the set as well
        calls.clear()
        solve(random_connected_graph(60, 1, random.Random(3)))
        assert calls == [("forest", 60)]

    @pytest.mark.parametrize("k, expected", [(6, {(0, 16): 1, (1, 16): 1}), (1, {(0, 16): 1})])
    def test_up_front_decision_runs_once(self, decide_calls, k, expected):
        # three search nodes are not enough for the width-1 decision, so the
        # up-front check misses its budget; prune must not run it again.  No
        # feedback edge of these graphs closes an induced cycle of five or
        # more vertices, so the check searches
        g = random_connected_graph(16, k, random.Random(248))
        assert witness(g) is None
        try:
            solve(g, Practical(12), SolverConfig(max_vertices=20, max_nodes=3))
        except BudgetExceeded:
            pass
        counts = Counter(c for c in decide_calls if c[1] == 16 and c[0] <= 1)
        assert counts == expected

    @pytest.mark.parametrize("max_nodes", [None, 3])
    @pytest.mark.parametrize(
        "entry, k",
        [
            (prune, 1),
            (prune, 6),
            (fen1_sequence, 1),
            (tww2_bikernel, 1),
            (tww2_bikernel, 6),
            (general_kernel, 1),
            (general_kernel, 6),
        ],
    )
    def test_entry_point_decides_up_front_once(self, decide_calls, entry, k, max_nodes):
        # every public owner of a runner makes the up-front decision itself,
        # once per cap; three search nodes refute width 0 of the fen-6 graph
        # but miss width 1, and miss width 0 of the fen-1 graph.  Neither
        # graph has an induced-cycle witness; after a miss only an induced
        # S(2,2,2) certifies, and both graphs hold one
        g = random_connected_graph(16, k, random.Random(248))
        assert witness(g) is None and induced_spider(g) is not None
        out = entry(g, config=SolverConfig(max_vertices=20, max_nodes=max_nodes))
        caps = (0,) if max_nodes and k == 1 else (0, 1)
        counts = Counter(c for c in decide_calls if c[1] == 16 and c[0] <= 1)
        assert counts == {(d, 16): 1 for d in caps}
        if entry in (tww2_bikernel, general_kernel):
            assert out.meta["certified"]

    @pytest.mark.parametrize("max_nodes", [None, 3])
    @pytest.mark.parametrize("entry", [prune, fen1_sequence, tww2_bikernel, general_kernel, solve])
    def test_witness_replaces_the_up_front_search(self, decide_calls, entry, max_nodes):
        # a feedback edge of this fen-1 graph closes an induced C5: the
        # up-front check is certified without a width-0 or width-1 decision,
        # at any node budget
        g = random_connected_graph(16, 1, random.Random(3))
        assert witness(g) is not None
        out = entry(g, config=SolverConfig(max_vertices=20, max_nodes=max_nodes))
        assert not [c for c in decide_calls if c[1] == 16 and c[0] <= 1]
        if entry is solve:
            assert out[1]["tww_at_least_2"] and out[1]["status"] == "optimal"
        elif entry not in (prune, fen1_sequence):
            assert out.meta["certified"]

    @pytest.mark.parametrize("cycle, guard_calls", [(5, 0), (4, 1)])
    def test_witness_settles_the_guard(self, decide_calls, cycle, guard_calls):
        # a spider with three two-edge legs hangs from a C5 or a C4, within
        # the vertex budget.  The tree cut leaves the cycle and a red stump;
        # its guard decides width 1 of that instance only without the C5's
        # induced-cycle witness, which the instance keeps
        edges = [(i, (i + 1) % cycle) for i in range(cycle)] + [(0, cycle)]
        for leg in range(cycle + 1, cycle + 7, 2):
            edges += [(cycle, leg), (leg, leg + 1)]
        g = new_trigraph(cycle + 7, edges)
        assert (witness(g) is not None) == (cycle == 5)
        prune(g, CFG)
        guard = [c for c in decide_calls if c[0] <= 1 and c[1] == cycle + 2]
        assert guard == [(1, cycle + 2)] * guard_calls

    @pytest.mark.parametrize("k, n, seed", [(1, 14, 242), (2, 13, 269)])
    def test_lower_bound_read_before_prune(self, decide_calls, k, n, seed):
        # past the vertex budget the up-front search is skipped, and with no
        # induced cycle or S(2,2,2) only an induced P4 bounds the input, at 1.
        # Prune's rules leave two red stumps (k = 1) or refute width 1 of a
        # smaller reduced instance (k = 2), which proves nothing about the
        # input: its twin-width is 1, and the lower bound stays as the
        # up-front check left it, for the fen-1 walk and the bikernel alike
        g = random_connected_graph(n, k, random.Random(seed))
        assert witness(g) is None and induced_spider(g) is None
        config = SolverConfig(max_vertices=12)
        (scan,) = spanning_forest(g)
        run = _Reduction(g, _Search(config), scan)
        run.decide()
        assert run.lower == 1
        assert _prune(run) is not None and run.lower == 1
        assert run.red_stumps >= 2 or [c for c in decide_calls if c[0] == 1 and c[1] < n]
        _, report = solve(g, Practical(12), config)
        assert "tww_at_least_2" not in report
        assert report["status"] == "upper_bound" and report["width"] == 2
        assert optimal_sequence(g, SolverConfig(max_vertices=n)).width == 1

    def test_reduced_instance_certifies_nothing(self):
        # past the budget nothing bounds the input, and the guards' width-1
        # refutation of a reduced instance proves nothing about it: a search
        # within a larger budget finds a sequence of width 1
        g = random_connected_graph(13, 2, random.Random(269))
        _, report = solve(g, config=SolverConfig(max_vertices=12, max_nodes=20000))
        assert (report["width"], report["status"]) == (2, "upper_bound")
        _, report = solve(g, config=SolverConfig(max_vertices=30))
        assert (report["width"], report["status"]) == (1, "optimal")

    def test_no_optimal_claim_below_the_exact_width(self):
        # with the search's vertex budget one below n, nothing but proofs
        # about the input may make an answer optimal
        rng = random.Random(7)
        claims = 0
        for _ in range(600):
            n = rng.randrange(9, 13)
            g = random_connected_graph(n, rng.randrange(1, 4), rng)
            try:
                _, report = solve(g, Practical(12), SolverConfig(max_vertices=n - 1))
            except BudgetExceeded:
                continue
            if report["status"] == "optimal":
                claims += 1
                assert optimal_sequence(g, SolverConfig(max_vertices=n)).width == report["width"]
        assert claims > 100

    @pytest.mark.parametrize("k", [1, 2])
    def test_witness_certifies_past_the_vertex_budget(self, k):
        # an induced cycle of five or more vertices closing a feedback edge
        # certifies the input at any size, without a search
        g = random_connected_graph(16, k, random.Random(0))
        assert witness(g) is not None
        _, report = solve(g, Practical(12), SolverConfig(max_vertices=12))
        assert report["tww_at_least_2"] and report["status"] == "optimal"

    @pytest.mark.parametrize("c", [5, 40, 400])
    def test_cycle_with_trees_optimal_at_any_size(self, c):
        g = cycle_with_trees(c, 10 * c, random.Random(c))
        seq, report = solve(g)
        assert report["width"] == verify(g, seq) == 2
        assert report["tww_at_least_2"] and report["status"] == "optimal"

    def test_short_cycle_with_trees_certified_past_the_budget(self):
        # a C4 has no cycle witness, and past the vertex budget the up-front
        # search does not run.  Its trees hold an induced S(2,2,2), which
        # certifies 2; a C4 with caterpillars holds neither witness, but an
        # induced P4 certifies 1, its width
        g = cycle_with_trees(4, 60, random.Random(4))
        assert witness(g) is None and induced_spider(g) is not None
        _, report = solve(g)
        assert report["tww_at_least_2"] and report["status"] == "optimal"
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, i + 1) for i in range(3, 30)]
        edges += [(i, i + 27) for i in range(4, 31)]
        g = new_trigraph(58, edges)
        assert witness(g) is None and induced_spider(g) is None
        assert spanning_forest(g)[0].p4() is not None
        _, report = solve(g)
        assert "tww_at_least_2" not in report
        assert (report["width"], report["status"]) == (1, "optimal")

    @pytest.mark.parametrize("k", [1, 2])
    def test_connectivity_checked_once(self, monkeypatch, k):
        # solve finds the components; no stage asks again, the dangling-tree
        # search and the verifier included
        calls = count_scans(monkeypatch)
        g = random_connected_graph(60, k, random.Random(3))
        try:
            solve(g)
        except BudgetExceeded:
            pass
        assert calls == [("forest", 60)]
        # a union's components share that one scan, and the check that its
        # spliced sequence is full reads the final trigraph, not the
        # components; the scan walks red edges too, which join components as
        # black ones do
        calls.clear()
        union = new_trigraph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8)])
        solve(union)
        assert calls == [("forest", 9)]
        calls.clear()
        solve(new_trigraph(4, [(0, 1)], [(1, 2), (2, 3)]))
        assert calls == [("forest", 4)]

    def test_trigraph_input_with_a_plain_component(self, monkeypatch):
        # a trigraph input is split by the one scan of both colours, and a
        # component without red edges takes its feedback edge set from its
        # share of that scan
        calls = count_scans(monkeypatch)
        seq, report = solve(new_trigraph(4, [(0, 1)], [(2, 3)]))
        assert calls == [("forest", 4)]
        assert (report["width"], report["status"]) == (1, "optimal")
        assert report["components"] == 2
        assert verify(seq.base, seq) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_core_computed_once(self, monkeypatch, k):
        # the input is never peeled: the runner reads its 2-core off the one
        # forest scan that solve makes, once per component, and prune its
        # dangling trees, then drops the scan's maps; the feedback-edge-one
        # walk follows the tidied cycle without taking a 2-core at all
        from twinwidth import structure as structure_module

        cores = []
        real_core = structure_module.ComponentScan.core

        def core(scan):
            cores.append(len(scan.order))
            return real_core(scan)

        monkeypatch.setattr(structure_module.ComponentScan, "core", core)
        calls = count_scans(monkeypatch)
        made = []
        counted = kernel_module.spanning_forest

        def keep(g, *args, **kwargs):
            made.extend(forest := counted(g, *args, **kwargs))
            return forest

        monkeypatch.setattr(kernel_module, "spanning_forest", keep)
        try:
            solve(random_connected_graph(60, k, random.Random(3)))
        except BudgetExceeded:
            pass
        assert calls == [("forest", 60)] and cores == [60]
        assert [(scan.parent, scan.kids) for scan in made] == [(None, None)]
        # a union's components share one scan, and each takes its own core
        calls.clear()
        cores.clear()
        cycles = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4), (7, 8)]
        solve(new_trigraph(9, cycles))
        assert calls == [("forest", 9)] and cores == [4, 5]

    def test_width_two_refuted_once(self, decide_calls):
        # the 3x3 rook's graph: every edge lies in a triangle, so no feedback
        # edge closes an induced cycle of five or more vertices.  The up-front
        # check decides widths 0 and 1, the bikernel width 2; the general
        # kernel is the bikernel, so the endgame deepens from 3 instead of
        # deciding 0, 1 and 2 again
        rows = [(a, b) for a in range(9) for b in range(a + 1, 9) if a // 3 == b // 3]
        columns = [(a, b) for a in range(9) for b in range(a + 1, 9) if a % 3 == b % 3]
        rook = new_trigraph(9, rows + columns)
        assert witness(rook) is None
        _, report = solve(rook, Practical(12), CFG)
        assert report["width"] == 4 and report["status"] == "optimal"
        assert [d for d, _ in decide_calls] == [0, 1, 2, 3, 4]

    def test_witness_skips_widths_zero_and_one(self, decide_calls):
        # Petersen graph: girth 5, so every feedback edge closes an induced
        # C5, which certifies widths 0 and 1 refuted; the bikernel decides
        # width 2 and the endgame deepens from 3
        _, report = solve(petersen(), Practical(12), CFG)
        assert report["width"] == 4 and report["status"] == "optimal"
        assert [d for d, _ in decide_calls] == [2, 3, 4]

    @pytest.mark.parametrize("floor, start", [(1, 3), (2, 2)])
    def test_endgame_starts_above_the_refuted_bikernel(self, monkeypatch, floor, start):
        # a 13-vertex path between two vertices of a K4, labelled so that the
        # feedback edges, those of a BFS tree from the path's middle vertex 0,
        # all lie in the K4 and close triangles: no induced-cycle witness.  A
        # stand-in search refutes every cap up to 2 and misses its node budget
        # above.  After the up-front caps 0 and 1 and the bikernel's cap 2: at
        # floor 1 both kernels collapse the path to one vertex and are one
        # trigraph, so the endgame skips the refuted cap 2 and starts at 3; at
        # floor 2 the general kernel keeps a red path of two vertices, is
        # another trigraph, and starts at its own max red degree, 2.  In place
        # of the K4 a Petersen graph, whose feedback edges close induced C5s,
        # takes the same course without the up-front caps.  After the miss
        # greedy answers width 2 on the K4 graph, which meets its lower bound
        # of 2, and width 4 on the Petersen graph, which does not.  Greedy
        # makes no width decision, so it runs for real
        caps = []

        def stand_in(g, root, d, budget):
            caps.append(d)
            if d > 2:
                raise BudgetExceeded(0, 0, kind="nodes")
            return None

        monkeypatch.setattr(solver_module, "_search_cap", stand_in)
        path = list(range(1, 7)) + [0] + list(range(7, 13))
        k4 = [(a, b) for a in range(13, 17) for b in range(a + 1, 17)]
        k4_path = new_trigraph(17, k4 + list(zip([13] + path, path + [14])))
        # a 14-vertex path in place of one Petersen edge
        path = list(range(10, 24))
        edges = [(i, i + 1) for i in range(1, 4)] + [(4, 0)] + list(zip([0] + path, path + [1]))
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        answers = ((k4_path, [0, 1], 2, "optimal"), (new_trigraph(24, edges), [], 4, "upper_bound"))
        for g, up_front, width, status in answers:
            assert (witness(g) is None) == bool(up_front)
            caps.clear()
            _, report = solve(g, Practical(floor), CFG)
            assert caps == up_front + [2] + list(range(start, 4))
            assert (report["width"], report["status"]) == (width, status)

    def test_kernel_meta_matches_public_kernels(self):
        # Petersen graph: fen 6, no dangling paths, twin-width above 2, so the
        # bikernel decision fails and the general kernel goes to the endgame
        g = petersen()
        policy = Practical(12)
        _, report = solve(g, policy, CFG)
        assert report["bikernel"] == tww2_bikernel(g, CFG).meta
        assert report["general_kernel"] == general_kernel(g, policy, CFG).meta
        assert [e["rule"] for e in report["rules"]].count("decomposed") == 1

    def test_report_is_json_ready(self):
        import json

        g = make_fig3()
        _, report = solve(g, Practical(12), CFG)
        assert json.loads(json.dumps(report)) == report
