"""The exploration frontier: O(1) siblings over one shared choice
tuple, the event log only under POR, one witness trace per behaviour,
and the pop order each strategy follows (paper §5.1's exhaustive
search)."""

import gc
import pickle
import tracemalloc

import pytest

from repro.dynamics.driver import Driver, Oracle
from repro.dynamics.explore import (
    ExplorationResult, Explorer, PathNode, driver_factory,
)
from repro.dynamics.explore.por import generate_branches
from repro.pipeline import compile_c
from repro.spec import ExploreSpec

MODEL = "concrete"

# Two small programs whose pop orders are pinned below: two orders of
# two printing calls, and a loop of unsequenced operands followed by
# two unsequenced writes to one object.
PROGRAMS = {
    "calls": r'''
#include <stdio.h>
int pr(int c) { putchar(c); return 0; }
int main(void) { pr('a') + pr('b'); putchar('\n'); return 0; }
''',
    "loop": r'''
int x;
int f(void) { x = 1; return 1; }
int g(void) { x = 2; return 2; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 2; i++) s = (s + i) + (x + 1);
    int y = f() + g();
    return x + y + s;
}
''',
}

# The deep-loop family: TRIPS iterations of unsequenced operands (a
# few choice points each), then two calls that both write x.
DEEP = r'''#include <stdio.h>
int x;
int f(void) { x = 1; return 1; }
int g(void) { x = 2; return 2; }
int main(void) {
    int s = 0;
    for (int i = 0; i < TRIPS; i++) s = (s + i) + (x + 1);
    int y = f() + g();
    printf("%d %d\n", x, s);
    return 0;
}
'''


def _explorer(source, **knobs):
    program = compile_c(source)
    spec = ExploreSpec(**knobs)
    return Explorer(driver_factory(
        program.core, lambda: program.make_model(MODEL, spec), spec),
        spec)


def _run(source, **knobs):
    """The oracle of the explorer's first path of ``source`` (an
    event log only under POR), after the run."""
    program = compile_c(source)
    spec = ExploreSpec(**knobs)
    oracle = Oracle((), record_events=spec.por)
    Driver(program.core, program.make_model(MODEL, spec), oracle,
           spec).run()
    return oracle


class TestSharedSiblings:
    def test_siblings_of_one_run_share_its_choice_tuple(self):
        oracle = _run(PROGRAMS["loop"])
        points = generate_branches(PathNode(), oracle.trace, False)
        children = [child for point in points for child in point]
        assert len(points) == len(oracle.trace)
        assert len({id(child.run) for child in children}) == 1
        taken = tuple(c for _tag, _n, c in oracle.trace)
        for point, group in enumerate(points):
            tag, n, chosen = oracle.trace[point]
            assert [child.choices for child in group] == [
                taken[:point] + (alt,) for alt in range(n)
                if alt != chosen]
            assert all(child.flip == (tag, child.choices[-1])
                       and child.depth == point + 1
                       for child in group)

    def test_por_siblings_share_one_tuple_too(self):
        oracle = _run(PROGRAMS["calls"], por=True)
        points = generate_branches(PathNode(), oracle.events, True, True)
        children = [child for point in points for child in point]
        assert children and len({id(c.run) for c in children}) == 1
        assert len(points) == len(oracle.trace)

    def test_equality_and_hash_go_by_choices_sleep_flip(self):
        oracle = _run(PROGRAMS["loop"])
        child = generate_branches(PathNode(), oracle.trace, False)[3][0]
        twin = PathNode(child.choices, child.sleep, child.flip)
        assert child == twin and hash(child) == hash(twin)
        assert child != PathNode(child.choices, child.sleep, None)
        assert child != PathNode(child.choices[:-1], child.sleep,
                                 child.flip)
        assert repr(twin) == (f"PathNode(choices={child.choices!r}, "
                              f"sleep=(), flip={child.flip!r})")

    def test_pickled_siblings_share_one_tuple(self):
        oracle = _run(PROGRAMS["loop"])
        frontier = [child for point in
                    generate_branches(PathNode(), oracle.trace, False)
                    for child in point]
        blob = pickle.dumps(frontier)
        back = pickle.loads(blob)
        assert back == frontier
        assert len({id(node.run) for node in back}) == 1
        # The memo writes the run once, not once per sibling.
        assert len(blob) < sum(len(pickle.dumps(node))
                               for node in frontier) / 2

    def test_event_log_only_under_por(self):
        for por in (False, True):
            oracles = []
            explorer = _explorer(PROGRAMS["calls"], por=por,
                                 max_paths=6)
            make_driver = explorer.make_driver
            explorer.make_driver = lambda o: (oracles.append(o),
                                              make_driver(o))[1]
            explorer.run()
            assert len(oracles) == 6
            assert all((o.events is not None) == por for o in oracles)

    def test_sequential_shortcut_only_for_the_drivers_own_oracle(self):
        program = compile_c(PROGRAMS["calls"])
        own = Driver(program.core, program.make_model(MODEL))
        given = Driver(program.core, program.make_model(MODEL), Oracle())
        assert own.evaluator.seq and not given.evaluator.seq
        assert own.run().stdout == given.run().stdout == "ab\n"
        assert own.oracle.trace == []
        assert given.oracle.trace


class TestWitnesses:
    def test_one_replayable_trace_per_behaviour(self):
        result = _explorer(PROGRAMS["calls"], max_paths=40).run()
        keys = {}
        for outcome in result.outcomes:
            if outcome.trace:
                key = ExplorationResult.behaviour_key(outcome)
                assert key not in keys
                keys[key] = outcome.trace
        assert len(keys) == len(result.behaviour_keys()) == 2
        first = {}
        for outcome in result.outcomes:
            first.setdefault(ExplorationResult.behaviour_key(outcome),
                             outcome)
        assert all(o.trace for o in first.values())
        program = compile_c(PROGRAMS["calls"])
        for key, trace in keys.items():
            replay = program.run(
                MODEL, oracle=Oracle(path=[c for _, _, c in trace]))
            assert ExplorationResult.behaviour_key(replay) == key


class TestDepthMemory:
    def test_frontier_memory_grows_linearly_with_depth(self):
        # A fixed budget of dfs paths: every path is as deep as the
        # loop, so the frontier holds paths x depth siblings.  Copied
        # prefixes made its memory quadratic in the depth (3.6x for
        # twice the trips); a shared choice tuple makes it linear.
        peaks = []
        for trips in (40, 80):
            explorer = _explorer(DEEP.replace("TRIPS", str(trips)),
                                 max_paths=20)
            gc.collect()        # no earlier garbage in the peak
            tracemalloc.start()
            try:
                result = explorer.run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.paths_run == 20 and not result.exhausted
        assert peaks[1] <= 2.5 * peaks[0], peaks


# The prefixes each strategy pops (as digit strings), and the run's
# (paths_run, pruned, diverged, exhausted), for 12 paths of each
# program under concrete, random seeded 0; captured before siblings
# shared their run's choice tuple, so the frontier's representation
# changes no order.
POPS = {
    ('calls', 'dfs', False): ([12, 0, 0, False], [
        '', '1', '11', '1101', '11011', '11011001', '1101100101',
        '11011001011', '1101100101101', '1101100101001', '1101100100001',
        '1101100001',
    ]),
    ('calls', 'dfs', True): ([12, 5, 0, False], [
        '', '1', '11', '1101', '11000001', '1100000101', '1100000100001',
        '1100000001', '1100000000001', '1001', '10000001', '1000000101',
    ]),
    ('calls', 'bfs', False): ([12, 0, 0, False], [
        '', '1', '01', '11', '0001', '1001', '0101', '1101', '00011', '10011',
        '01011', '11011',
    ]),
    ('calls', 'bfs', True): ([12, 4, 0, False], [
        '', '1', '01', '11', '0001', '1001', '0101', '1101', '00000001',
        '10000001', '01000001', '11000001',
    ]),
    ('calls', 'random', False): ([12, 0, 0, False], [
        '', '0001', '0000000000001', '01', '0100000001', '0100000000001',
        '0001000001', '00010001', '01000000011', '0001000000001', '01000001',
        '1',
    ]),
    ('calls', 'random', True): ([12, 5, 0, False], [
        '', '0001', '0000000000001', '00000001', '0000000101',
        '0000000100001', '0000000001', '1', '10000001', '1000000001', '1001',
        '1000000000001',
    ]),
    ('calls', 'coverage', False): ([12, 0, 0, False], [
        '', '0000000000001', '0000000001', '00000001', '0001', '01', '1',
        '0000000001001', '00000000011', '0000000100001', '0000000101',
        '0001000000001',
    ]),
    ('calls', 'coverage', True): ([12, 4, 0, False], [
        '', '0000000000001', '0000000001', '00000001', '0001', '01', '1',
        '0000000100001', '0000000101', '0100000000001', '0100000001',
        '01000001',
    ]),
    ('loop', 'dfs', False): ([12, 0, 0, False], [
        '', '1', '1001', '10011', '100111', '10011101', '100111011',
        '100111011001', '1001110110011', '100111011001101',
        '10011101100110101', '100111011001101010001',
    ]),
    ('loop', 'dfs', True): ([12, 4, 0, False], [
        '', '1', '1001', '10011', '100111', '10011101', '100111011',
        '100111011001', '1001110110011', '100111011001101',
        '10011101100110101', '100111011001101010001',
    ]),
    ('loop', 'bfs', False): ([12, 0, 0, False], [
        '', '1', '01', '0001', '1001', '0101', '00011', '10011', '01011',
        '000001', '100001', '010001',
    ]),
    ('loop', 'bfs', True): ([12, 9, 0, False], [
        '', '1', '01', '0001', '1001', '0101', '00011', '10011', '01011',
        '000001', '100001', '010001',
    ]),
    ('loop', 'random', False): ([12, 0, 0, False], [
        '', '000000001', '000001',
        '000000000000000000000000000000000000000000000001',
        '00000000100000000000000000000000000000000000000001',
        '000001000000000000000000000000001',
        '00000100000000000000000000000000000000001', '0000000010001',
        '0000010001', '00000000100010000000000001',
        '00000100000000000000000000000000100000000000000001',
        '0000010001000001',
    ]),
    ('loop', 'random', True): ([12, 8, 0, False], [
        '', '000000001', '01', '000001',
        '0000000000000000000000000000000000000000000000000001',
        '00000000000000000000000001',
        '0100000000000000000000000000000000000000000000000001',
        '01000000000000000000000000000000000000000000000000001', '0000001',
        '0100000000000000001', '010000000000000000000000000000000000000001',
        '01000000000000000010000000000000000000000000000001',
    ]),
    ('loop', 'coverage', False): ([12, 0, 0, False], [
        '', '0000000000000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000000000000000011',
        '00000000000000000000000000000000000000000000000000001',
        '0000000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000001',
    ]),
    ('loop', 'coverage', True): ([12, 5, 0, False], [
        '', '0000000000000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000000000000001',
        '0000000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000000001',
        '000000000000000000000000000000000000000001',
        '00000000000000000000000000000000000000001',
        '000000000000000000000000000000000000001',
    ]),
}


@pytest.mark.parametrize("name, strategy, por", sorted(POPS))
def test_pop_order(name, strategy, por):
    explorer = _explorer(PROGRAMS[name], strategy=strategy, seed=0,
                         por=por, max_paths=12)
    popped = []
    pop = explorer.strategy.pop

    def record():
        node = pop()
        popped.append("".join(map(str, node.choices)))
        return node

    explorer.strategy.pop = record
    result = explorer.run()
    accounting, pops = POPS[name, strategy, por]
    assert [result.paths_run, result.pruned, result.diverged,
            result.exhausted] == accounting
    assert popped[:result.paths_run] == pops
