"""Datalog front end and evaluator: parsing, safety, stratification,
semi-naive evaluation, and queries."""

from __future__ import annotations

import pytest

from factlog import (
    ArityMismatch,
    Database,
    DatalogSyntaxError,
    TypeMismatch,
    UnknownRelation,
    UnsafeRule,
    UnstratifiableProgram,
    evaluate,
    parse_program,
    parse_query,
    query,
    stratify,
)
from factlog.datalog import Variable, goal_directed
from factlog.facts import format_value
from oracles import naive_evaluate

TC = """\
.decl edge(x:symbol, y:symbol)
.decl calls(x:symbol, y:symbol)
calls(X, Y) :- edge(X, Y).
calls(X, Y) :- edge(X, K), calls(K, Y).
"""


def edge_db(*pairs: tuple[str, str]) -> Database:
    db = Database()
    for pair in pairs:
        db.add("edge", pair)
    return db


class TestParser:
    def test_facts_rules_and_decls(self):
        prog = parse_program(TC + 'edge("a", "b").')
        assert set(prog.declarations) == {"edge", "calls"}
        assert len(prog.rules) == 2
        assert len(prog.facts) == 1

    def test_line_comments(self):
        prog = parse_program("// header\np(1). // inline\np(2).\n")
        assert len(prog.facts) == 2

    def test_block_comments_not_supported(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("p(1). /* nope */\n")

    def test_string_escapes(self):
        prog = parse_program(r'p("a\"b").')
        assert prog.facts[0].terms == ('a"b',)

    def test_newline_in_string_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program('p("a\nb").')

    def test_negation_spellings(self):
        for text in ["p(X) :- q(X), !r(X).", "p(X) :- q(X), ¬ r(X)."]:
            prog = parse_program(text + "\nq(1).")
            lit = prog.rules[0].body[1]
            assert not lit.positive

    def test_error_position(self):
        with pytest.raises(DatalogSyntaxError) as info:
            parse_program("p(1).\nq(,).\n")
        assert info.value.line == 2

    def test_non_ground_fact_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="ground"):
            parse_program("p(X).")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="duplicate"):
            parse_program(".decl p(x:symbol)\n.decl p(x:symbol)\n")

    def test_unknown_directive(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program(".output p\n")

    def test_unknown_column_type(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program(".decl p(x:float)\n")

    def test_missing_dot(self):
        with pytest.raises(DatalogSyntaxError):
            parse_program("p(1)")


class TestArityAndSafety:
    def test_arity_mismatch_against_decl(self):
        with pytest.raises(ArityMismatch):
            parse_program(".decl p(x:symbol)\np(1, 2).")

    def test_arity_mismatch_between_uses(self):
        with pytest.raises(ArityMismatch):
            parse_program("p(1).\nq(X) :- p(X, X).")

    def test_head_variable_must_appear_positively(self):
        with pytest.raises(UnsafeRule):
            parse_program("p(X, Y) :- q(X).\nq(1).")

    def test_negated_variable_must_appear_positively(self):
        with pytest.raises(UnsafeRule):
            parse_program("p(X) :- q(X), !r(Y).\nq(1).")

    def test_wildcard_allowed_in_positive_body(self):
        prog = parse_program("p(X) :- q(X, _).\nq(1, 2).")
        assert evaluate(prog).tuples("p") == {(1,)}

    def test_wildcard_in_head_rejected(self):
        with pytest.raises(UnsafeRule):
            parse_program("p(_) :- q(_).\nq(1).")

    def test_wildcard_in_negation_rejected(self):
        with pytest.raises(UnsafeRule):
            parse_program("p(X) :- q(X), !r(_).\nq(1).")


class TestTypeInference:
    def test_constant_pins_type(self):
        with pytest.raises(TypeMismatch):
            parse_program('p(1).\np("a").')

    def test_propagates_through_rules(self):
        with pytest.raises(TypeMismatch):
            parse_program('.decl q(x:number)\np(X) :- q(X).\np("a").')

    def test_inferred_declarations_present(self):
        prog = parse_program("p(1, 2).\nq(X) :- p(X, _).")
        decl = prog.declarations["p"]
        assert decl.column_types() == ("number", "number")
        # the fact pinned p's first column, which flows into q
        assert prog.declarations["q"].column_types() == ("number",)

    def test_unconstrained_columns_stay_open(self):
        prog = parse_program("q(X) :- p(X, _).\n")
        assert prog.declarations["p"].column_types() == (None, None)


class TestStratification:
    def test_two_strata(self):
        assert stratify(parse_program(TC)) == [{"edge"}, {"calls"}]

    def test_negation_forces_new_stratum(self):
        prog = parse_program(
            "reach(X) :- src(X).\n"
            "reach(Y) :- reach(X), edge(X, Y).\n"
            "unreached(X) :- node(X), !reach(X).\n"
        )
        strata = stratify(prog)
        assert strata.index({"unreached"}) > strata.index({"reach"})

    def test_mutual_recursion_shares_stratum(self):
        prog = parse_program("p(X) :- q(X).\nq(X) :- p(X).\nq(X) :- e(X).\n")
        strata = stratify(prog)
        assert {"p", "q"} in strata

    def test_negative_self_loop_rejected(self):
        with pytest.raises(UnstratifiableProgram):
            stratify(parse_program("p(X) :- q(X), !p(X).\nq(1)."))

    def test_negative_cycle_through_two_relations(self):
        prog = parse_program("p(X) :- e(X), !q(X).\nq(X) :- e(X), !p(X).\ne(1).")
        with pytest.raises(UnstratifiableProgram):
            stratify(prog)


class TestEvaluate:
    def test_transitive_closure(self):
        db = edge_db(("a", "b"), ("b", "c"), ("c", "d"))
        got = evaluate(parse_program(TC), db).tuples("calls")
        assert got == {
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        }

    def test_cycle_terminates(self):
        db = edge_db(("a", "b"), ("b", "a"))
        got = evaluate(parse_program(TC), db).tuples("calls")
        assert got == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_program_facts_join_edb(self):
        prog = parse_program(TC + 'edge("z", "a").')
        got = evaluate(prog, edge_db(("a", "b"))).tuples("calls")
        assert ("z", "b") in got

    def test_negation_within_stratum_boundary(self):
        prog = parse_program(
            "node(1). node(2). node(3).\n"
            "edge(1, 2).\n"
            "reach(1).\n"
            "reach(Y) :- reach(X), edge(X, Y).\n"
            "unreached(X) :- node(X), !reach(X).\n"
        )
        assert evaluate(prog).tuples("unreached") == {(3,)}

    def test_edb_not_mutated(self):
        db = edge_db(("a", "b"))
        evaluate(parse_program(TC), db)
        assert db.relations == {"edge": {("a", "b")}}
        assert "calls" not in db.relations

    def test_all_relations_present_in_result(self):
        out = evaluate(parse_program(TC))
        assert out.tuples("calls") == set()
        assert "edge" in out.relations

    def test_unknown_edb_relation_carried_through(self):
        db = Database()
        db.add("extra", ("x",))
        out = evaluate(parse_program(TC), db)
        assert out.tuples("extra") == {("x",)}

    def test_edb_arity_checked(self):
        db = Database()
        db.add("edge", ("a", "b", "c"))
        with pytest.raises(ArityMismatch):
            evaluate(parse_program(TC), db)

    def test_edb_types_checked_when_declared(self):
        db = Database()
        db.add("edge", ("a", 1))
        with pytest.raises(TypeMismatch):
            evaluate(parse_program(TC), db)

    def test_constants_in_rule_bodies(self):
        prog = parse_program('special(Y) :- edge("main", Y).')
        out = evaluate(prog, edge_db(("main", "a"), ("other", "b")))
        assert out.tuples("special") == {("a",)}

    def test_constants_in_head(self):
        prog = parse_program('flag("yes") :- edge(_, _).')
        out = evaluate(prog, edge_db(("a", "b")))
        assert out.tuples("flag") == {("yes",)}

    def test_repeated_variable_in_literal(self):
        prog = parse_program("selfloop(X) :- edge(X, X).")
        out = evaluate(prog, edge_db(("a", "a"), ("a", "b")))
        assert out.tuples("selfloop") == {("a",)}

    def test_same_relation_twice_in_body(self):
        prog = parse_program("tri(X, Z) :- edge(X, Y), edge(Y, Z).")
        out = evaluate(prog, edge_db(("a", "b"), ("b", "c")))
        assert out.tuples("tri") == {("a", "c")}

    def test_zero_arity_relations(self):
        prog = parse_program("go().\nready() :- go().")
        assert evaluate(prog).tuples("ready") == {()}

    def test_indexes_follow_inserts(self):
        # walk("b", 4, 3) and walk("b", 5, 4) arrive after the index on
        # walk's first two columns is built; the later "a" walker finds
        # them only if inserts extend that index
        prog = parse_program(
            'walk("a", 1, 0). walk("b", 3, 0). mover("a"). mover("b").\n'
            "next(1, 2). next(2, 3). next(3, 4). next(4, 5).\n"
            "walk(T, Y, X) :- walk(T, X, _), next(X, Y), mover(T).\n"
            'walk("hit", X, 0) :- walk("a", X, _), walk("b", X, _).\n'
        )
        assert query(evaluate(prog), 'walk("hit", X, _)') == {(3,), (4,), (5,)}

    def test_constants_stay_data_in_compiled_plans(self):
        # pasted between quotes into a plan's source, the first constant
        # would run code and the second would be a syntax error
        code = 'x") or __import__("os") or ("'
        broken = '\\"""\n'
        prog = parse_program(
            f"hit(Y) :- edge({format_value(code)}, Y).\n"
            "hit(Y) :- hit(X), edge(X, Y).\n"
            f"tag({format_value(code)}, X) :- hit(X), !edge(X, {format_value(broken)}).\n"
        )
        solved = evaluate(prog, edge_db((code, "a"), ("a", broken), ("b", "c")))
        assert solved.tuples("hit") == {("a",), (broken,)}
        assert solved.tuples("tag") == {(code, broken)}
        oracle = naive_evaluate(prog, edge_db((code, "a"), ("a", broken), ("b", "c")))
        assert {r: t for r, t in solved.relations.items() if t} == {
            r: t for r, t in oracle.items() if t
        }
        assert query(solved, f"tag({format_value(code)}, X)") == {(broken,)}

    @pytest.mark.parametrize("length", [20, 21, 25, 70])
    def test_long_bodies_compile_past_the_nesting_limit(self, length):
        # one nested loop per positive literal; CPython allows 20 in one
        # function, and 100 levels of indentation, which 70 literals with
        # their extra probes, membership tests and a negation pass
        body = ", ".join(f"edge(A{i}, A{i + 1})" for i in range(length))
        extra = ", ".join(f"edge(A{i}, B{i}), edge(B{i}, A{i + 2})" for i in range(0, length - 1, 7))
        prog = parse_program(
            f"chain(A0, A{length}) :- {body}.\n"
            f"loop(A0, A{length}) :- {body}, {extra}, !edge(A{length}, A0).\n"
        )
        # every node has one successor, so each start has one walk of each
        # length: a chain into a cycle, and a chain that ends
        edges = [(f"n{i}", f"n{i + 1}") for i in range(9)] + [("n9", "n5")]
        edges += [(f"m{i}", f"m{i + 1}") for i in range(length + 3)]
        solved = evaluate(prog, edge_db(*edges))
        oracle = naive_evaluate(prog, edge_db(*edges))
        assert len(solved.tuples("chain")) == 14
        assert solved.tuples("chain") == oracle["chain"]
        assert solved.tuples("loop") == oracle["loop"]
        for start in ("n0", "m1"):
            pattern = parse_query(f'chain("{start}", X)')
            want = {(y,) for x, y in oracle["chain"] if x == start}
            assert len(want) == 1 and query(solved, pattern) == want
            goal = goal_directed(prog, edge_db(*edges), pattern)
            assert query(evaluate(goal.program, goal.edb), goal.pattern) == want
    def test_many_tests_compile_past_the_indentation_limit(self):
        # each bound literal and each negation is an if block: 120 of them
        # nest deeper than CPython's 100 levels of indentation
        tests = ", ".join(["edge(X, Y)"] * 60 + [f"!edge(Y, {format_value(f'z{i}')})" for i in range(60)])
        prog = parse_program(f"out(X, Y) :- edge(X, Y), {tests}.\n")
        edges = [("a", "b"), ("b", "z7"), ("c", "a")]
        solved = evaluate(prog, edge_db(*edges))
        assert solved.tuples("out") == naive_evaluate(prog, edge_db(*edges))["out"] == {("b", "z7"), ("c", "a")}


class TestQuery:
    @pytest.fixture()
    def solved(self):
        return evaluate(parse_program(TC), edge_db(("a", "b"), ("b", "c")))

    def test_variable_projection(self, solved):
        assert query(solved, 'calls("a", X)') == {("b",), ("c",)}

    def test_full_wildcard(self, solved):
        assert query(solved, "calls(_, X)") == {("b",), ("c",)}

    def test_ground_query_is_membership(self, solved):
        assert query(solved, 'calls("a", "c")') == {()}
        assert query(solved, 'calls("c", "a")') == set()

    def test_variable_order_is_first_occurrence(self, solved):
        got = query(solved, "calls(Y, X)")
        assert ("a", "b") in got  # (Y, X) pairs

    def test_repeated_query_variable(self, solved):
        solved.add("edge", ("z", "z"))
        assert query(solved, "edge(X, X)") == {("z",)}

    def test_unknown_relation(self, solved):
        with pytest.raises(UnknownRelation):
            query(solved, "nope(X)")

    def test_arity_mismatch(self, solved):
        with pytest.raises(ArityMismatch):
            query(solved, "calls(X)")

    def test_trailing_dot_optional(self, solved):
        assert query(solved, 'calls("a", X).') == query(solved, 'calls("a", X)')


class TestGoalDirected:
    def test_derives_only_the_query_reach(self):
        # 50 disjoint 20-node chains: full evaluation derives 50 * 190 calls tuples
        chains = [[f"c{i}_{j}" for j in range(20)] for i in range(50)]
        edb = edge_db(*(pair for chain in chains for pair in zip(chain, chain[1:])))
        goal = goal_directed(parse_program(TC), edb, parse_query('calls("c7_0", X)'))
        solved = evaluate(goal.program, goal.edb)
        derived = [t for rel in goal.program.idb_relations() for t in solved.tuples(rel)]
        assert {v for t in derived for v in t} <= set(chains[7])
        assert len(derived) == 20 + 190  # the bindings asked for, then the chain's pairs
        assert query(solved, goal.pattern) == {(v,) for v in chains[7][1:]}

    @pytest.mark.parametrize(
        "program, pattern",
        [
            (TC, "calls(X, Y)"),
            (TC, "calls(_, X)"),
            (TC + "far(X, Y) :- edge(X, Y), !calls(Y, X).\n", 'far("a", X)'),
        ],
    )
    def test_falls_back_to_full_evaluation(self, program, pattern):
        prog, edb, asked = parse_program(program), edge_db(("a", "b")), parse_query(pattern)
        assert goal_directed(prog, edb, asked) == (prog, edb, asked)

    def test_edb_relation_needs_no_rules(self):
        goal = goal_directed(parse_program(TC + 'edge("b", "c").\n'), edge_db(("a", "b")), parse_query("edge(X, Y)"))
        assert goal.program.rules == []
        assert query(evaluate(goal.program, goal.edb), goal.pattern) == {("a", "b"), ("b", "c")}

    def test_negated_edb_relation_stays_goal_directed(self):
        program = parse_program("live(X, L) :- read(X, L).\nlive(X, L) :- live(X, I), next(I, L), !write(X, L).\n")
        edb = Database({"read": {("b", 1)}, "next": {(1, 2), (2, 3)}, "write": {("b", 3)}})
        goal = goal_directed(program, edb, parse_query('live("b", L)'))
        assert goal.program is not program
        assert query(evaluate(goal.program, goal.edb), goal.pattern) == {(1,), (2,)}


class TestVariableTerm:
    def test_every_bare_identifier_is_a_variable(self):
        # symbols always need quotes; case does not matter
        prog = parse_program('p(X) :- q(X, lower), r(lower).\nq(1, 2).\nr(2).')
        lit = prog.rules[0].body[0]
        assert isinstance(lit.atom.terms[0], Variable)
        assert isinstance(lit.atom.terms[1], Variable)
        assert evaluate(prog).tuples("p") == {(1,)}

    def test_bare_identifier_fact_is_rejected(self):
        with pytest.raises(DatalogSyntaxError, match="quote"):
            parse_program("p(lower).")
