"""Shrinking must be deterministic, minimal on synthetic predicates,
and able to reduce a real divergence end to end."""
from repro.fuzz.grammar import ProgramSpec, generate_program
from repro.fuzz.runner import MATRIX, Cell, check_program
from repro.fuzz.shrinker import shrink


def _noise(n):
    return [{"op": "write", "path": "f%d" % (i % 3), "data": "noise"}
            for i in range(n)]


class TestDdmin:
    def test_reduces_to_the_single_guilty_op(self):
        ops = _noise(6) + [{"op": "random", "count": 8}] + _noise(5)
        spec = ProgramSpec(seed=0, ops=tuple(ops))

        def fails(candidate):
            return any(op["op"] == "random" for op in candidate.ops)

        small = shrink(spec, fails)
        assert [op["op"] for op in small.ops] == ["random"]

    def test_keeps_a_required_pair(self):
        ops = (_noise(4) + [{"op": "open", "path": "f0", "slot": 0,
                             "mode": "w"}]
               + _noise(4) + [{"op": "fstat", "slot": 0}] + _noise(3))
        spec = ProgramSpec(seed=0, ops=tuple(ops))

        def fails(candidate):
            kinds = [op["op"] for op in candidate.ops]
            return "open" in kinds and "fstat" in kinds

        small = shrink(spec, fails)
        assert sorted(op["op"] for op in small.ops) == ["fstat", "open"]

    def test_deterministic(self):
        spec = generate_program(9)

        def fails(candidate):
            return sum(op["op"] == "write" for op in candidate.ops) >= 1

        assert shrink(spec, fails) == shrink(spec, fails)

    def test_never_returns_empty(self):
        spec = ProgramSpec(seed=0, ops=({"op": "time"},))
        small = shrink(spec, lambda c: True)
        assert len(small.ops) == 1

    def test_respects_check_budget(self):
        spec = ProgramSpec(seed=0, ops=tuple(_noise(12)))
        calls = [0]

        def fails(candidate):
            calls[0] += 1
            return True

        shrink(spec, fails, max_checks=10)
        assert calls[0] <= 10


class TestSimplify:
    def test_data_payloads_simplify(self):
        spec = ProgramSpec(seed=0, ops=(
            {"op": "write", "path": "f0", "data": "x" * 64},))
        small = shrink(spec, lambda c: len(c.ops) == 1)
        assert small.ops[0]["data"] == "a"

    def test_thread_bodies_thin_out(self):
        spec = ProgramSpec(seed=0, ops=(
            {"op": "threads", "bodies": [[{"op": "time"}, {"op": "time"}],
                                         [{"op": "time"}]]},))

        def fails(candidate):
            return any(op["op"] == "threads" for op in candidate.ops)

        small = shrink(spec, fails)
        assert small.ops[0]["bodies"] == [[{"op": "time"}]]

    def test_child_bodies_thin_out(self):
        spec = ProgramSpec(seed=0, ops=(
            {"op": "spawnwait", "body": [{"op": "time"}, {"op": "time"}],
             "late": True},))

        def fails(candidate):
            return any(op["op"] == "spawnwait" for op in candidate.ops)

        small = shrink(spec, fails)
        assert small.ops[0] == {"op": "spawnwait", "body": [{"op": "time"}],
                                "late": False}


class TestEndToEnd:
    def test_shrinks_a_real_divergence(self):
        """Against a sabotaged matrix (different PRNG seed per cell) a
        generated program containing a `random` op diverges; the default
        matrix-check predicate shrinks it down to that op."""
        bad = (MATRIX[0], Cell("otherseed", prng_seed=7))
        spec = ProgramSpec(seed=0, ops=tuple(
            [{"op": "mkdir", "path": "d0"},
             {"op": "write", "path": "f0", "data": "alpha"},
             {"op": "random", "count": 4},
             {"op": "stat", "path": "f0"},
             {"op": "audit"}]))

        def fails(candidate):
            return not check_program(candidate, workers=1, rnr=False,
                                     matrix=bad).ok

        assert fails(spec)
        small = shrink(spec, fails)
        assert [op["op"] for op in small.ops] == ["random"]
