"""Adjoining, substitution, derivation -> derived tree -> expression."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import ast
from repro.expr.ast import Const, Ext, Param, State, Var
from repro.expr.evaluate import evaluate
from repro.gp.config import GMRConfig
from repro.gp.init import attach, random_individual
from repro.gp.knowledge import (
    ExtensionSpec,
    ParameterPrior,
    PriorKnowledge,
    build_grammar,
    connector_beta,
)
from repro.gp.local_search import insertion
from repro.river import river_knowledge
from repro.tag.derivation import DerivationNode, DerivationTree
from repro.tag.derive import (
    DeriveError,
    _build,
    adjoin,
    derive,
    lift,
    lift_model,
    op_leaf,
    substitute_node,
    to_expressions,
)
from repro.tag.symbols import MODEL, connector_symbol, extender_symbol
from repro.tag.trees import AlphaTree, BetaTree, TreeNode


def river_like_knowledge() -> PriorKnowledge:
    seed = {
        "B": Ext(
            "Ext1",
            ast.mul(State("B"), ast.sub(Param("CUA"), Param("CBRA"))),
        )
    }
    return PriorKnowledge(
        seed_equations=seed,
        priors={
            "CUA": ParameterPrior("CUA", 1.0, 0.0, 2.0),
            "CBRA": ParameterPrior("CBRA", 0.1, 0.0, 0.5),
        },
        extensions=[ExtensionSpec("Ext1", ("Vtmp",))],
    )


class TestLift:
    def test_lift_round_trips_expression(self):
        expr = ast.mul(State("B"), ast.add(Param("p"), Var("v")))
        tree = lift(expr)
        expressions, rvalues = to_expressions(tree)
        assert expressions == [expr]
        assert rvalues == {}

    def test_lift_converts_ext_markers_to_connector_nodes(self):
        expr = Ext("Ext1", Const(1.0))
        tree = lift(expr)
        assert tree.symbol == connector_symbol("Ext1")

    def test_lift_model_combines_under_model_root(self):
        tree = lift_model({"a": Const(1.0), "b": Const(2.0)})
        assert tree.symbol == MODEL
        expressions, __ = to_expressions(tree)
        assert expressions == [Const(1.0), Const(2.0)]


class TestComposition:
    def test_adjoin_inserts_auxiliary_structure(self):
        target = lift(Ext("Ext1", Const(3.0)))
        from repro.gp.knowledge import connector_beta
        from repro.tag.symbols import VALUE
        from repro.tag.trees import Lexeme, RConst

        beta = connector_beta("Ext1", "+", "Vtmp")
        # Fill the operand's scale slot (variables enter as var * R).
        slot = beta.substitution_addresses()[0]
        planted = substitute_node(
            beta.root,
            slot,
            Lexeme(VALUE, ("rconst", RConst(2.0))).instantiate(),
        )
        derived = adjoin(target, (), planted)
        expressions, rvalues = to_expressions(derived)
        assert rvalues == {"_R0": 2.0}
        value = evaluate(
            expressions[0], {"_R0": 2.0}, variables={"Vtmp": 4.0}
        )
        assert value == 3.0 + 4.0 * 2.0

    def test_adjoin_label_mismatch_rejected(self):
        target = lift(Ext("Ext1", Const(3.0)))
        from repro.gp.knowledge import connector_beta

        beta = connector_beta("Ext2", "+", "Vtmp")
        with pytest.raises(DeriveError):
            adjoin(target, (), beta.root)

    def test_substitute_requires_slot(self):
        target = lift(Const(1.0))
        leaf = TreeNode(extender_symbol("Ext1"))
        with pytest.raises(DeriveError):
            substitute_node(target, (), leaf)


class TestDerivation:
    def test_seed_only_derivation(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        root = DerivationNode(tree=grammar.alphas["seed"])
        derived = derive(DerivationTree(root))
        expressions, rvalues = to_expressions(derived)
        assert len(expressions) == 1
        assert rvalues == {}
        value = evaluate(
            expressions[0], {"CUA": 1.0, "CBRA": 0.25}, {}, {"B": 4.0}
        )
        assert value == pytest.approx(3.0)

    def test_derivation_with_adjunction_and_lexeme(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        rng = random.Random(0)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:R"]
        sites = root.open_adjunction_addresses(grammar)
        assert sites, "seed alpha must expose the Ext1 adjunction site"
        child = DerivationNode(tree=beta)
        child.fill_lexemes(grammar, rng)
        root.children[sites[0]] = child
        derivation = DerivationTree(root)
        derivation.validate(grammar)
        expressions, rvalues = to_expressions(derive(derivation))
        assert len(rvalues) == 1
        name, value = next(iter(rvalues.items()))
        assert name == "_R0"
        result = evaluate(
            expressions[0],
            {"CUA": 1.0, "CBRA": 0.25, name: value},
            {},
            {"B": 4.0},
        )
        assert result == pytest.approx(3.0 + value)

    def test_stacked_adjunction_at_beta_root(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        rng = random.Random(1)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:Vtmp"]
        site = root.open_adjunction_addresses(grammar)[0]
        child = DerivationNode(tree=beta)
        child.fill_lexemes(grammar, rng)
        root.children[site] = child
        grandchild = DerivationNode(tree=beta)
        grandchild.fill_lexemes(grammar, rng)
        child.children[()] = grandchild  # stack at the beta's own root
        derivation = DerivationTree(root)
        derivation.validate(grammar)
        expressions, rvalues = to_expressions(derive(derivation))
        value = evaluate(
            expressions[0],
            {"CUA": 1.0, "CBRA": 0.25, **rvalues},
            {"Vtmp": 10.0},
            {"B": 4.0},
        )
        scales = list(rvalues.values())
        assert value == pytest.approx(3.0 + 10.0 * scales[0] + 10.0 * scales[1])

    def test_unfilled_slot_fails_derivation(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:R"]
        site = root.open_adjunction_addresses(grammar)[0]
        root.children[site] = DerivationNode(tree=beta)  # lexemes unfilled
        with pytest.raises(DeriveError):
            derive(DerivationTree(root))

    def test_connector_cannot_adjoin_at_extender_site(self):
        knowledge = river_like_knowledge()
        grammar = build_grammar(knowledge)
        connector = grammar.betas["conn:Ext1:+:Vtmp"]
        extender_sites = connector.adjunction_addresses(
            frozenset({extender_symbol("Ext1")})
        )
        assert extender_sites  # the operand side is extender-extensible
        connector_beta_tree = grammar.betas["conn:Ext1:+:R"]
        site_symbol = connector.node_at(extender_sites[0]).symbol
        assert not grammar.can_adjoin(connector_beta_tree, site_symbol)


def compose_stepwise(node: DerivationNode) -> TreeNode:
    """The derived tree of ``node``, composed with the public Figure 2
    operations one at a time: every lexeme substituted into the template,
    then every adjunction applied deepest address first, so the recorded
    template addresses of the remaining sites never move."""
    tree = node.tree.root
    for address, lexeme in node.lexemes.items():
        tree = substitute_node(tree, address, lexeme.instantiate())
    for address in sorted(node.children, key=len, reverse=True):
        tree = adjoin(tree, address, compose_stepwise(node.children[address]))
    return tree


def _stack_at_beta_root(grammar, derivation, rng):
    """Adjoin a compatible beta at the root of a random adjoined beta whose
    root is still open (stacked adjunction)."""
    hosts = [
        node
        for node in derivation.walk()
        if node is not derivation.root
        and () in node.open_adjunction_addresses(grammar)
    ]
    if not hosts:
        return
    host = rng.choice(hosts)
    candidates = grammar.betas_for(host.tree.root.symbol)
    if candidates:
        attach(grammar, host, (), rng.choice(candidates), rng)


RIVER_KNOWLEDGE = river_knowledge()
GRAMMARS = {
    "river": (RIVER_KNOWLEDGE, build_grammar(RIVER_KNOWLEDGE)),
    "toy": (river_like_knowledge(), build_grammar(river_like_knowledge())),
}


class TestOnePassDerive:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(GRAMMARS)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    )
    def test_matches_stepwise_composition(self, which, seed, moves, stack):
        knowledge, grammar = GRAMMARS[which]
        rng = random.Random(seed)
        config = GMRConfig(population_size=4, max_generations=1, max_size=24)
        individual = random_individual(grammar, knowledge, config, rng)
        for __ in range(moves):
            moved = insertion(individual, grammar, config, rng)
            if moved is not None:
                individual = moved
        if stack:
            _stack_at_beta_root(grammar, individual.derivation, rng)
        derivation = individual.derivation
        derivation.validate(grammar)
        assert derive(derivation) == compose_stepwise(derivation.root)

    def test_stacked_adjunction_matches_stepwise_composition(self):
        knowledge, grammar = GRAMMARS["toy"]
        rng = random.Random(1)
        root = DerivationNode(tree=grammar.alphas["seed"])
        beta = grammar.betas["conn:Ext1:+:Vtmp"]
        child = attach(
            grammar, root, root.open_adjunction_addresses(grammar)[0], beta, rng
        )
        grandchild = attach(grammar, child, (), beta, rng)
        attach(grammar, grandchild, (), beta, rng)
        derivation = DerivationTree(root)
        derivation.validate(grammar)
        assert derive(derivation) == compose_stepwise(root)


def _bypass_validation(monkeypatch):
    """Let malformed derivations reach the build's own guards."""
    monkeypatch.setattr(DerivationTree, "validate", lambda self, grammar=None: None)


def _unchecked_tree(cls, name, root):
    """An elementary tree built without its constructor's checks."""
    tree = object.__new__(cls)
    object.__setattr__(tree, "name", name)
    object.__setattr__(tree, "root", root)
    return tree


class TestDeriveErrors:
    """Every malformed derivation still fails with a DeriveError, whether
    validation or the build itself catches it."""

    def seed_and_site(self):
        grammar = GRAMMARS["toy"][1]
        root = DerivationNode(tree=grammar.alphas["seed"])
        site = root.open_adjunction_addresses(grammar)[0]
        return grammar, root, site

    @pytest.mark.parametrize("validated", [True, False])
    def test_unfilled_slot(self, monkeypatch, validated):
        grammar, root, site = self.seed_and_site()
        root.children[site] = DerivationNode(tree=grammar.betas["conn:Ext1:+:R"])
        if not validated:
            _bypass_validation(monkeypatch)
        with pytest.raises(DeriveError, match="unfilled"):
            derive(DerivationTree(root))

    @pytest.mark.parametrize("validated", [True, False])
    def test_incompatible_beta(self, monkeypatch, validated):
        grammar, root, site = self.seed_and_site()
        wrong = connector_beta("Ext2", "+", "Vtmp")
        child = DerivationNode(tree=wrong)
        child.fill_lexemes(grammar, random.Random(0))
        root.children[site] = child
        if not validated:
            _bypass_validation(monkeypatch)
        with pytest.raises(DeriveError, match="incompatible|adjoined at a site"):
            derive(DerivationTree(root))

    @pytest.mark.parametrize("validated", [True, False])
    def test_auxiliary_without_foot(self, monkeypatch, validated):
        grammar, root, site = self.seed_and_site()
        symbol = root.tree.node_at(site).symbol
        footless = AlphaTree("footless", TreeNode(symbol, (op_leaf("+"),)))
        root.children[site] = DerivationNode(tree=footless)
        if not validated:
            _bypass_validation(monkeypatch)
        with pytest.raises(DeriveError, match="no foot|not a beta-tree"):
            derive(DerivationTree(root))

    def test_foot_left_in_derived_tree(self):
        grammar, root, site = self.seed_and_site()
        symbol = root.tree.node_at(site).symbol
        two_feet = _unchecked_tree(
            BetaTree,
            "two-feet",
            TreeNode(
                symbol,
                (
                    TreeNode(symbol, is_foot=True),
                    op_leaf("+"),
                    TreeNode(symbol, is_foot=True),
                ),
            ),
        )
        root.children[site] = DerivationNode(tree=two_feet)
        with pytest.raises(DeriveError, match="retains a foot node"):
            derive(DerivationTree(root))
        # The build splices at the first foot, as the public adjoin does,
        # and reports the one left over.
        built, feet = _build(root)
        assert built == compose_stepwise(root)
        assert len(feet) == 1 and built.node_at(feet[0]).is_foot

    def test_foot_in_alpha_root(self):
        grammar, root, site = self.seed_and_site()
        symbol = root.tree.node_at(site).symbol
        footed = _unchecked_tree(
            AlphaTree,
            "footed",
            TreeNode(symbol, (TreeNode(symbol, is_foot=True),)),
        )
        with pytest.raises(DeriveError, match="retains a foot node"):
            derive(DerivationTree(DerivationNode(tree=footed)))
