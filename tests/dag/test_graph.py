"""The expression DAG: canonical interning, refcounts, scoring."""

from hypothesis import given, settings

from repro.dag import (
    DagStats,
    ExpressionDAG,
    default_dag,
    intern,
    shared_subexpressions,
)
from repro.poly import Polynomial, parse_polynomial

from tests.conftest import polynomials

X = parse_polynomial("x")


class TestCanonicalInterning:
    def test_structurally_equal_polys_share_a_node(self):
        dag = ExpressionDAG()
        p1 = parse_polynomial("3*x*y + z^2")
        p2 = parse_polynomial("z^2 + 3*y*x")
        assert dag.intern(p1) == dag.intern(p2)

    def test_variable_order_and_padding_do_not_matter(self):
        dag = ExpressionDAG()
        a = Polynomial(("x", "y"), {(1, 2): 5})
        b = Polynomial(("y", "x", "z"), {(2, 1, 0): 5})
        assert dag.intern(a) == dag.intern(b)

    def test_distinct_polys_get_distinct_nodes(self):
        dag = ExpressionDAG()
        assert dag.intern(parse_polynomial("x + y")) != dag.intern(
            parse_polynomial("x - y")
        )

    @settings(max_examples=60, deadline=None)
    @given(p=polynomials(allow_zero=False))
    def test_interning_is_canonical(self, p):
        """Structural equality implies node-id equality — the hash-consing
        invariant: any respelling (permuted vars, padded columns, re-built
        term dict) of the same polynomial interns to the same sum node."""
        dag = ExpressionDAG()
        first = dag.intern(p)
        # A maximally different spelling: reversed variable order, an
        # extra dead column, a freshly rebuilt term dict.
        order = tuple(reversed(p.vars)) + ("dead",)
        respelled = Polynomial(
            order,
            {
                tuple(exps[p.vars.index(v)] if v in p.vars else 0 for v in order): c
                for exps, c in p.terms.items()
            },
        )
        assert respelled.trim() == p.trim()
        assert dag.intern(respelled) == first
        # And interning is idempotent on the store size.
        size = dag.size()
        dag.intern(p)
        assert dag.size() == size

    def test_mono_interning_drops_zero_exponents(self):
        dag = ExpressionDAG()
        assert dag.intern_mono([("x", 2), ("y", 0)]) == dag.intern_mono(
            [("x", 2)]
        )


class TestStats:
    def test_counts_and_hits(self):
        dag = ExpressionDAG()
        p = parse_polynomial("x*y + z")
        dag.intern(p)
        stats = dag.stats()
        assert isinstance(stats, DagStats)
        assert stats.polys == 1
        assert stats.intern_hits == 0
        assert stats.nodes == dag.size() > 0
        dag.intern(parse_polynomial("x*y + z"))
        assert dag.stats().intern_hits >= 1
        assert dag.stats().polys == 2

    def test_shared_nodes_count_cross_polynomial_products(self):
        dag = ExpressionDAG()
        dag.intern(parse_polynomial("x*y + z"))
        dag.intern(parse_polynomial("x*y + w"))
        assert dag.stats().shared_nodes == 1

    def test_as_dict_round_trip(self):
        stats = DagStats(nodes=4, polys=2, intern_hits=1, shared_nodes=0)
        assert stats.as_dict() == {
            "nodes": 4,
            "polys": 2,
            "intern_hits": 1,
            "shared_nodes": 0,
        }

    def test_clear_resets_everything(self):
        dag = ExpressionDAG()
        dag.intern(parse_polynomial("x*y + z"))
        dag.clear()
        assert dag.size() == 0
        assert dag.stats() == DagStats(0, 0, 0, 0)


class TestSharedSubexpressions:
    def test_shared_product_is_found(self):
        dag = ExpressionDAG()
        roots = [
            dag.intern(parse_polynomial("x*y*z + w")),
            dag.intern(parse_polynomial("x*y*z - 2")),
        ]
        shared = dag.shared_subexpressions(roots)
        assert len(shared) == 1
        assert shared[0].pairs == (("x", 1), ("y", 1), ("z", 1))
        assert shared[0].refs == 2
        assert shared[0].literals == 3

    def test_roots_restrict_the_refcounts(self):
        dag = ExpressionDAG()
        a = dag.intern(parse_polynomial("x*y + 1"))
        b = dag.intern(parse_polynomial("x*y + 2"))
        dag.intern(parse_polynomial("x*y + 3"))
        only_ab = dag.shared_subexpressions([a, b])
        assert only_ab[0].refs == 2
        assert dag.shared_subexpressions()[0].refs == 3

    def test_ordering_is_canonical_not_id_based(self):
        dag = ExpressionDAG()
        roots = [
            dag.intern(parse_polynomial("a*b + x*y*z")),
            dag.intern(parse_polynomial("a*b + x*y*z + 1")),
        ]
        shared = dag.shared_subexpressions(roots)
        assert [s.literals for s in shared] == [3, 2]  # largest first


class TestCombinationCost:
    def test_shared_product_paid_once(self):
        dag = ExpressionDAG()
        roots = [
            dag.intern(parse_polynomial("x*y + 1")),
            dag.intern(parse_polynomial("x*y + z")),
        ]
        # One shared product (1 mul), one add per row.
        assert dag.combination_cost(roots) == 22

    def test_duplicate_rows_paid_once(self):
        dag = ExpressionDAG()
        p = parse_polynomial("x*y + z")
        roots = [dag.intern(p), dag.intern(p)]
        assert dag.combination_cost(roots) == dag.combination_cost(roots[:1])

    def test_coefficient_multiplies_counted_per_row(self):
        dag = ExpressionDAG()
        root = dag.intern(parse_polynomial("3*x + y"))
        assert dag.combination_cost([root]) == 3


class TestModuleLevelHelpers:
    def test_default_dag_is_shared_and_clearable(self):
        default_dag().clear()
        nid = intern(parse_polynomial("x*y + 5"))
        assert intern(parse_polynomial("x*y + 5")) == nid
        assert default_dag().size() > 0
        shared = shared_subexpressions(
            [parse_polynomial("x*y + 1"), parse_polynomial("x*y - 1")]
        )
        assert shared and shared[0].pairs == (("x", 1), ("y", 1))
        default_dag().clear()
        assert default_dag().size() == 0

    def test_explicit_dag_keeps_default_untouched(self):
        default_dag().clear()
        own = ExpressionDAG()
        intern(X, dag=own)
        assert own.size() > 0
        assert default_dag().size() == 0
