"""Tests for expression interning, compiled evaluation, and the
incremental solver context (the PR-2 constraint-solving layers)."""

import itertools
import random

import pytest

from repro.symex import expr as E
from repro.symex.solver import Solver, SolverContext


class TestInterning:
    def test_structural_equality_is_identity(self):
        x = E.bv_sym("intern_x")
        a = E.bv_add(x, 5)
        b = E.bv_add(x, 5)
        assert a is b

    def test_distinct_structures_distinct_nodes(self):
        x = E.bv_sym("intern_x")
        assert E.bv_add(x, 5) is not E.bv_add(x, 6)

    def test_interning_across_builders(self):
        x = E.bv_sym("intern_x")
        direct = E.Expr("add", 32, args=(x, 5))
        built = E.bv_add(x, 5)
        assert direct is built

    def test_hash_precomputed_and_stable(self):
        x = E.bv_sym("intern_x")
        a = E.bv_and(x, 0xFF)
        assert hash(a) == hash(E.bv_and(x, 0xFF))
        table = {a: "hit"}
        assert table[E.bv_and(x, 0xFF)] == "hit"

    def test_symbols_cached_frozenset(self):
        x, y = E.bv_sym("ix"), E.bv_sym("iy")
        combined = E.bv_add(E.bv_and(x, 0xFF), y)
        first = combined.symbols()
        assert first == frozenset({"ix", "iy"})
        assert combined.symbols() is first

    def test_identity_enables_new_folds(self):
        x = E.bv_sym("intern_x")
        a = E.bv_add(x, 7)
        b = E.bv_add(x, 7)
        assert E.bv_sub(a, b) == 0
        assert E.bv_xor(a, b) == 0

    def test_stable_hash_matches_for_equal_structure(self):
        x = E.bv_sym("intern_x")
        assert E.bv_add(x, 5).stable_hash() == \
            E.Expr("add", 32, args=(x, 5)).stable_hash()


class TestCompiledEvaluation:
    def test_compiled_matches_evaluate(self):
        x, y = E.bv_sym("cx"), E.bv_sym("cy")
        expr = E.bv_add(E.bv_mul(E.bv_and(x, 0xFF), 3), E.bv_shift("shr",
                                                                   y, 4))
        model = {"cx": 0x1234, "cy": 0x80}
        assert E.compiled(expr)(model) == E.evaluate(expr, model)

    def test_compiled_all_kinds(self):
        x = E.bv_sym("ck", 8)
        wide = E.bv_zext(x, 32)
        cases = [
            E.bv_not(wide), E.bv_neg(wide),
            E.bv_concat([x, E.bv_sym("ck2", 8)]),
            E.bv_extract(E.bv_sym("ck3"), 8, 8),
            E.bv_divu(E.bv_sym("ck3"), wide),
            E.bv_remu(E.bv_sym("ck3"), wide),
            E.bv_cmp("slt", E.bv_sym("ck3"), 0),
            E.bv_cmp("sge", E.bv_sym("ck3"), wide),
            E.bv_shift("sar", E.bv_sym("ck3"), wide),
        ]
        for model in ({}, {"ck": 0xAB, "ck2": 0x7F, "ck3": 0xFFFF1234},
                      {"ck": 1, "ck3": 0x80000000}):
            for expr in cases:
                assert E.compiled(expr)(model) == E.evaluate(expr, model), \
                    repr(expr)

    def test_program_cached_on_node(self):
        x = E.bv_sym("cc_x")
        expr = E.bv_add(x, 11)
        assert E.compiled(expr) is E.compiled(expr)

    def test_division_by_zero_yields_zero(self):
        x, y = E.bv_sym("dz_x"), E.bv_sym("dz_y")
        assert E.compiled(E.bv_divu(x, y))({"dz_x": 7, "dz_y": 0}) == 0
        assert E.compiled(E.bv_remu(x, y))({"dz_x": 7, "dz_y": 0}) == 0

    def test_conjunction_bitmask(self):
        x = E.bv_sym("cj_x")
        constraints = (E.bv_cmp("ult", x, 10), E.bv_cmp("uge", x, 5),
                       E.bv_cmp("ne", x, 7))
        program = E.compiled_conjunction(constraints)
        assert program({"cj_x": 6}) == 0b111
        assert program({"cj_x": 7}) == 0b011
        assert program({"cj_x": 20}) == 0b110

    def test_same_shape_compiles_once(self):
        """Constraints differing only in symbol and constant share one
        compiled shape: the second costs no ``compile()``."""
        saved = E.Expr._intern
        E.clear_intern_cache()
        try:
            before = E.eval_counters()["programs"]
            x, y = E.bv_sym("x"), E.bv_sym("y")
            first = E.bv_cmp("eq", E.bv_and(x, 0xFF), 3)
            second = E.bv_cmp("eq", E.bv_and(y, 0xFF), 7)
            assert E.evaluate(first, {"x": 0x103, "y": 3}) == 1
            assert E.evaluate(second, {"x": 7, "y": 0x207}) == 1
            assert E.evaluate(first, {"x": 7, "y": 3}) == 0
            assert E.evaluate(second, {"x": 7, "y": 3}) == 0
            assert E.eval_counters()["programs"] == before + 1
        finally:
            # Nodes built before the clear are still alive in other
            # tests' fixtures; keep them canonical for later tests.
            E.Expr._intern = saved

    def test_counters_advance(self):
        before = E.eval_counters()
        x = E.bv_sym("ctr_x")
        E.evaluate(E.bv_add(x, 1), {"ctr_x": 2})
        after = E.eval_counters()
        assert after["program_runs"] > before["program_runs"]
        assert after["node_visits"] > before["node_visits"]


class TestSolverContext:
    def make(self):
        return Solver(), SolverContext()

    def test_components_partition_by_symbols(self):
        _, ctx = self.make()
        x, y, z = (E.bv_sym(n) for n in ("sc_x", "sc_y", "sc_z"))
        ctx.add(E.bv_cmp("ult", x, 10))
        ctx.add(E.bv_cmp("ult", y, 10))
        assert len(list(ctx.components())) == 2
        # A constraint linking x and y merges their components.
        ctx.add(E.bv_cmp("eq", x, y))
        assert len(list(ctx.components())) == 1
        ctx.add(E.bv_cmp("ne", z, 0))
        assert len(list(ctx.components())) == 2

    def test_check_context_feasible_and_infeasible(self):
        solver, ctx = self.make()
        x = E.bv_sym("cf_x")
        ctx.add(E.bv_cmp("ult", x, 10))
        assert solver.check_context(ctx) is not None
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 3)) is not None
        assert solver.check_context(ctx, E.bv_cmp("uge", x, 10)) is None
        # The probe did not pollute the context.
        assert solver.check_context(ctx) is not None

    def test_check_matches_find_model_verdicts(self):
        x, y = E.bv_sym("cm_x"), E.bv_sym("cm_y")
        queries = [
            [E.bv_cmp("ult", x, 100), E.bv_cmp("uge", x, 90)],
            [E.bv_cmp("eq", x, 1), E.bv_cmp("eq", x, 2)],
            [E.bv_cmp("eq", x, 7), E.bv_cmp("ult", x, y)],
            [E.bv_cmp("ne", E.bv_and(x, 0x10), 0)],
        ]
        for constraints in queries:
            reference = Solver().find_model(constraints) is not None
            solver, ctx = self.make()
            for constraint in constraints[:-1]:
                ctx.add(constraint)
            verdict = solver.check_context(ctx, constraints[-1]) is not None
            assert verdict == reference, constraints

    def test_fork_isolation(self):
        solver, ctx = self.make()
        x = E.bv_sym("fi_x")
        ctx.add(E.bv_cmp("ult", x, 10))
        child = ctx.fork()
        child.add(E.bv_cmp("uge", x, 5))
        assert len(next(iter(ctx.components())).constraints) == 1
        assert len(next(iter(child.components())).constraints) == 2
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 2)) is not None
        assert solver.check_context(child, E.bv_cmp("eq", x, 2)) is None

    def test_witness_commit_keeps_fast_path(self):
        solver, ctx = self.make()
        x = E.bv_sym("wc_x")
        first = E.bv_cmp("ult", x, 10)
        witness = solver.check_context(ctx, first)
        ctx.add(first, model=witness)
        comp = next(iter(ctx.components()))
        assert comp.model is not None
        before = solver.fast_path_hits
        assert solver.check_context(ctx, E.bv_cmp("ult", x, 11)) is not None
        assert solver.fast_path_hits == before + 1

    def test_model_cache_reused_across_forks(self):
        solver, ctx = self.make()
        x = E.bv_sym("mc_x")
        ctx.add(E.bv_cmp("uge", x, 5))
        constraint = E.bv_cmp("ult", x, 4)   # forces a real (failing) solve
        assert solver.check_context(ctx, constraint) is None
        solves = solver.comp_solves
        sibling = ctx.fork()
        assert solver.check_context(sibling, constraint) is None
        assert solver.comp_solves == solves
        assert solver.cache_hits > 0

    def test_ground_false_context(self):
        solver, ctx = self.make()
        x = E.bv_sym("gf_x", 1)
        # A symbol-free contradiction that escaped constant folding.
        ctx.add(E.Expr("eq", 1, args=(1, 0)))
        assert ctx.ground_false
        assert solver.check_context(ctx, E.bv_cmp("eq", x, 1)) is None

    def test_concretize_context_prefers_hint(self):
        solver, ctx = self.make()
        x = E.bv_sym("cz_x")
        ctx.add(E.bv_cmp("ult", x, 100))
        value, model = solver.concretize_context(ctx, E.bv_add(x, 10),
                                                 prefer={"cz_x": 55})
        assert value == 65
        assert model["cz_x"] == 55

    def test_concretize_context_matches_legacy(self):
        x = E.bv_sym("cl_x")
        constraints = [E.bv_cmp("ult", x, 100), E.bv_cmp("uge", x, 90)]
        legacy_value, legacy_model = Solver().concretize(
            E.bv_add(x, 1), constraints)
        solver, ctx = self.make()
        for constraint in constraints:
            ctx.add(constraint)
        value, model = solver.concretize_context(ctx, E.bv_add(x, 1))
        assert value == legacy_value
        assert model == legacy_model


class TestDeterminism:
    def test_random_fallback_is_per_query_deterministic(self):
        x, y = E.bv_sym("dq_x"), E.bv_sym("dq_y")
        # Equality between two symbols defeats the greedy single-symbol
        # climb often enough to exercise the random fallback.
        constraints = [E.bv_cmp("eq", E.bv_xor(x, y), 0x12345678),
                       E.bv_cmp("uge", x, 3)]
        models = [Solver().find_model(constraints) for _ in range(3)]
        assert models[0] == models[1] == models[2]

    def test_solver_history_does_not_change_verdicts(self):
        x = E.bv_sym("dh_x")
        query = [E.bv_cmp("ult", x, 10), E.bv_cmp("uge", x, 5)]
        fresh = Solver().find_model(query)
        busy = Solver()
        for value in range(40):
            busy.find_model([E.bv_cmp("eq", E.bv_sym("dh_y"), value)])
        assert busy.find_model(query) == fresh


def _reference_random_search(solver, constraints, programs, symbols,
                             candidates, base):
    """The random fallback as it was before repair groups were memoized:
    every try re-runs all 64 single-symbol repairs."""
    pool = candidates or [0]
    rng = solver._query_rng(constraints, base)
    for _ in range(solver.random_tries):
        model = dict(base)
        for name in symbols:
            if rng.random() < 0.5:
                model[name] = rng.choice(pool)
            else:
                model[name] = rng.getrandbits(32)
        if all(p(model) == 1 for p in programs):
            return model
        for name, value in itertools.islice(
                itertools.product(symbols, pool), 64):
            saved = model[name]
            model[name] = value
            if all(p(model) == 1 for p in programs):
                return model
            model[name] = saved
    return None


class TestRandomSearchOracle:
    """``Solver._random_search`` skips repair groups that already failed;
    it must return exactly what the unmemoized loop returns."""

    @staticmethod
    def _query(seed):
        rng = random.Random(seed)
        count = rng.randint(1, 4)
        names = ["rs%d_%d" % (seed, i) for i in range(count)]
        syms = [E.bv_sym(name) for name in names]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(syms)
            b = rng.choice(syms + [rng.getrandbits(8)])
            shape = rng.randrange(4)
            if shape == 0:
                term = E.bv_add(a, b)
            elif shape == 1:
                term = E.bv_and(a, 0xF0 | rng.getrandbits(4))
            elif shape == 2:
                term = E.bv_xor(a, b)
            else:
                term = a
            kind = rng.choice(["eq", "eq", "ne", "ult", "uge"])
            constraint = E.bv_cmp(kind, term, rng.getrandbits(rng.choice(
                (4, 8, 32))))
            if not isinstance(constraint, int):
                constraints.append(constraint)
        solver = Solver()
        symbols = sorted(set().union(*(c.symbols() for c in constraints))) \
            if constraints else []
        pools = {0: solver._mine_candidates(constraints),
                 1: list(range(rng.randint(1, 40))),
                 2: [rng.getrandbits(32) for _ in range(70)]}
        candidates = pools[rng.randrange(3)]
        base = {name: rng.getrandbits(8) for name in symbols
                if rng.random() < 0.5}
        return solver, constraints, symbols, candidates, base

    def test_matches_reference(self):
        outcomes = set()
        short_multi = 0
        for seed in range(120):
            solver, constraints, symbols, candidates, base = \
                self._query(seed)
            if not constraints:
                continue
            programs = [E.compiled(c) for c in constraints]
            expected = _reference_random_search(
                solver, constraints, programs, symbols, candidates, base)
            actual = solver._random_search(constraints, programs, symbols,
                                           candidates, base)
            if expected is None:
                assert actual is None, seed
            else:
                assert list(actual.items()) == list(expected.items()), seed
            outcomes.add(expected is None)
            if len(symbols) > 1 and len(candidates) < 64:
                short_multi += 1
        # Both verdicts, and repairs reaching past the first symbol.
        assert outcomes == {True, False}
        assert short_multi > 10

    def test_one_symbol_infeasible_runs_fewer_programs(self):
        x = E.bv_sym("rs_one")
        constraints = [E.bv_cmp("eq", E.bv_and(x, 0xFFFF), 0x1234),
                       E.bv_cmp("ne", E.bv_and(x, 0xFFFF), 0x1234)]
        programs = [E.compiled(c) for c in constraints]
        solver = Solver()
        candidates = solver._mine_candidates(constraints)

        def runs(search, *args):
            before = E.eval_counters()["program_runs"]
            assert search(*args) is None
            return E.eval_counters()["program_runs"] - before

        reference = runs(_reference_random_search, solver, constraints,
                         programs, ["rs_one"], candidates, {})
        memoized = runs(solver._random_search, constraints, programs,
                        ["rs_one"], candidates, {})
        assert memoized < reference
