"""The phenotype memo: ``Individual.phenotype`` reuses a derivation's model
while its shape is unchanged, and is indistinguishable from a fresh build.

The reference for every check is the build the memo replaces:
``expressions_of`` then ``ProcessModel.from_equations``, with parameter
values assigned by name.  Structure keys, parameter orders and parameter
values (as ``float.hex``) must agree exactly, after any sequence of the
engine's moves on grammar-derived individuals of every registered domain.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import get_domain
from repro.dynamics.system import ProcessModel
from repro.gp.config import GMRConfig
from repro.gp.init import attach, random_individual
from repro.gp.knowledge import build_grammar
from repro.gp.local_search import deletion, insertion
from repro.gp.operators import crossover, gaussian_mutation, subtree_mutation
from repro.tag.derivation import PHENOTYPE_MEMO
from repro.tag.derive import DeriveError, expressions_of

DOMAINS = ("river", "lotka_volterra", "sir")
MOVES = ("gaussian", "insertion", "deletion", "crossover", "subtree")
CONFIG = GMRConfig(population_size=4, max_generations=1, max_size=16)


def _setup(name):
    spec = get_domain(name)
    knowledge = spec.make_knowledge()
    return (
        knowledge,
        build_grammar(knowledge),
        tuple(spec.state_names),
        tuple(spec.var_order),
    )


SETUPS = {name: _setup(name) for name in DOMAINS}


def fresh_phenotype(individual, state_names, var_order):
    """The phenotype built from scratch, as before the memo existed."""
    expressions, rvalues = expressions_of(individual.derivation)
    model = ProcessModel.from_equations(
        dict(zip(state_names, expressions)),
        var_order=var_order,
        extra_params=tuple(individual.params),
    )
    assignment = {**individual.params, **rvalues}
    return model, tuple(assignment[name] for name in model.param_order)


def assert_matches_fresh(individual, state_names, var_order):
    model, values = individual.phenotype(state_names, var_order)
    expected, expected_values = fresh_phenotype(
        individual, state_names, var_order
    )
    assert model.structure_key() == expected.structure_key()
    assert model.equations == expected.equations
    assert model.param_order == expected.param_order
    assert model.var_order == expected.var_order
    assert model.state_names == expected.state_names
    assert [v.hex() for v in values] == [v.hex() for v in expected_values]
    return model


def memo_of(individual):
    return individual.derivation.__dict__.get(PHENOTYPE_MEMO)


def apply_move(move, individual, partner, knowledge, grammar, rng):
    """One engine move; returns the result, or ``individual`` if it
    declined."""
    if move == "gaussian":
        moved = gaussian_mutation(individual, knowledge, CONFIG, rng)
    elif move == "insertion":
        moved = insertion(individual, grammar, CONFIG, rng)
    elif move == "deletion":
        moved = deletion(individual, CONFIG, rng)
    elif move == "crossover":
        pair = crossover(individual, partner, grammar, CONFIG, rng)
        moved = None if pair is None else pair[0]
    else:
        moved = subtree_mutation(individual, grammar, CONFIG, rng)
    return individual if moved is None else moved


def river_individual(seed):
    knowledge, grammar, __, __ = SETUPS["river"]
    return random_individual(grammar, knowledge, CONFIG, random.Random(seed))


def permuted_river_individual():
    """A river individual whose ``_Rk`` order differs from ``rconsts()``."""
    for seed in range(200):
        individual = river_individual(seed)
        positions: list[int] = []
        expressions_of(individual.derivation, positions)
        if positions != sorted(positions):
            return individual, positions
    raise AssertionError("no river individual with a permuted _Rk order")


class TestMemoEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(DOMAINS),
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.sampled_from(MOVES), min_size=1, max_size=8),
    )
    def test_moves_keep_memo_equal_to_fresh_build(self, name, seed, moves):
        knowledge, grammar, state_names, var_order = SETUPS[name]
        rng = random.Random(seed)
        individual = random_individual(grammar, knowledge, CONFIG, rng)
        partner = random_individual(grammar, knowledge, CONFIG, rng)
        assert_matches_fresh(individual, state_names, var_order)
        assert_matches_fresh(partner, state_names, var_order)
        for move in moves:
            parent_model = individual.phenotype(state_names, var_order)[0]
            individual = apply_move(
                move, individual, partner, knowledge, grammar, rng
            )
            model = assert_matches_fresh(individual, state_names, var_order)
            if move == "gaussian":
                # A parameter-only move reuses the parent's model.
                assert model is parent_model
            # Calling again on an unchanged individual is always a hit.
            assert individual.phenotype(state_names, var_order)[0] is model

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(DOMAINS), st.integers(min_value=0, max_value=10_000))
    def test_positions_map_each_rk_to_its_constant(self, name, seed):
        knowledge, grammar, __, __ = SETUPS[name]
        rng = random.Random(seed)
        individual = random_individual(grammar, knowledge, CONFIG, rng)
        insertion_moved = insertion(individual, grammar, CONFIG, rng)
        if insertion_moved is not None:
            individual = insertion_moved
        rconsts = individual.derivation.rconsts()
        for index, rconst in enumerate(rconsts):
            rconst.value = float(index)  # distinct values
        positions: list[int] = []
        __, rvalues = expressions_of(individual.derivation, positions)
        assert sorted(positions) == list(range(len(rconsts)))
        assert list(rvalues) == [f"_R{k}" for k in range(len(positions))]
        for k, position in enumerate(positions):
            assert rvalues[f"_R{k}"] == rconsts[position].value


class TestMemoCases:
    def test_permuted_rk_order_reads_the_right_constants(self):
        knowledge, __, state_names, var_order = SETUPS["river"]
        individual, positions = permuted_river_individual()
        model = assert_matches_fresh(individual, state_names, var_order)
        sources = dict(zip(model.param_order, memo_of(individual).sources))
        assert [sources[f"_R{k}"] for k in range(len(positions))] == positions
        moved = gaussian_mutation(
            individual, knowledge, CONFIG, random.Random(3)
        )
        assert assert_matches_fresh(moved, state_names, var_order) is model

    def test_copy_carries_the_memo(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(5)
        model, values = individual.phenotype(state_names, var_order)
        clone = individual.copy()
        assert memo_of(clone) is memo_of(individual)
        assert clone.phenotype(state_names, var_order) == (model, values)
        assert clone.phenotype(state_names, var_order)[0] is model

    def test_pickling_drops_the_memo(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(6)
        individual.phenotype(state_names, var_order)
        assert memo_of(individual) is not None
        for restored in (
            pickle.loads(pickle.dumps(individual)),
            copy.deepcopy(individual),
        ):
            assert PHENOTYPE_MEMO not in restored.derivation.__dict__
            assert_matches_fresh(restored, state_names, var_order)
        bare = river_individual(6)
        assert len(pickle.dumps(individual)) == len(pickle.dumps(bare))

    def test_in_place_edit_after_copy_is_a_miss(self):
        knowledge, grammar, state_names, var_order = SETUPS["river"]
        individual = river_individual(7)
        model = individual.phenotype(state_names, var_order)[0]
        clone = individual.copy()
        node, address = clone.derivation.open_sites(grammar)[0]
        symbol = node.tree.node_at(address).symbol
        attach(grammar, node, address, grammar.betas_for(symbol)[0],
               random.Random(0))
        edited = assert_matches_fresh(clone, state_names, var_order)
        assert edited is not model
        assert memo_of(clone) is not memo_of(individual)
        # The original keeps its own memo and still hits.
        assert individual.phenotype(state_names, var_order)[0] is model

    def test_equal_but_distinct_template_is_a_miss(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(8)
        model = individual.phenotype(state_names, var_order)[0]
        root = individual.derivation.root
        root.tree = copy.copy(root.tree)
        assert root.tree == individual.derivation.root.tree
        assert assert_matches_fresh(individual, state_names, var_order) is not (
            model
        )

    def test_other_inputs_are_part_of_the_key(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(9)
        model = individual.phenotype(state_names, var_order)[0]
        reordered = tuple(reversed(var_order))
        other = assert_matches_fresh(individual, state_names, reordered)
        assert other is not model and other.var_order == reordered
        individual.params = dict(reversed(list(individual.params.items())))
        assert assert_matches_fresh(individual, state_names, reordered) is not (
            other
        )

    def test_failing_derivation_raises_on_every_call(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(10)
        individual.phenotype(state_names, var_order)
        memo = memo_of(individual)
        node = next(
            node for node in individual.derivation.walk() if node.lexemes
        )
        node.lexemes.popitem()
        for __ in range(3):
            with pytest.raises(DeriveError):
                individual.phenotype(state_names, var_order)
        assert memo_of(individual) is memo

    def test_failing_derivation_is_never_memoised(self):
        __, __, state_names, var_order = SETUPS["river"]
        individual = river_individual(11)
        node = next(
            node for node in individual.derivation.walk() if node.lexemes
        )
        node.lexemes.popitem()
        for __ in range(2):
            with pytest.raises(DeriveError):
                individual.phenotype(state_names, var_order)
        assert memo_of(individual) is None
