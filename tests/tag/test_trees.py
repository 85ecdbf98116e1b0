"""Elementary tree validation, addressing, and structural edits."""

import pickle

import pytest

from repro.tag.symbols import EXP, nonterminal, terminal
from repro.tag.trees import (
    AlphaTree,
    BetaTree,
    Lexeme,
    RConst,
    TreeError,
    TreeNode,
)

T_A = terminal("a")
NT_X = nonterminal("X")


def leaf(payload=None) -> TreeNode:
    return TreeNode(T_A, payload=payload)


class TestTreeNode:
    def test_terminal_cannot_have_children(self):
        with pytest.raises(TreeError):
            TreeNode(T_A, (leaf(),))

    def test_foot_must_be_frontier(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, (leaf(),), is_foot=True)

    def test_subst_must_be_frontier(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, (leaf(),), is_subst=True)

    def test_foot_and_subst_mutually_exclusive(self):
        with pytest.raises(TreeError):
            TreeNode(NT_X, is_foot=True, is_subst=True)

    def test_markers_require_nonterminals(self):
        with pytest.raises(TreeError):
            TreeNode(T_A, is_foot=True)

    def test_walk_addresses(self):
        tree = TreeNode(NT_X, (leaf(), TreeNode(NT_X, (leaf(),))))
        addresses = [address for address, __ in tree.walk()]
        assert addresses == [(), (0,), (1,), (1, 0)]

    def test_node_at(self):
        inner = TreeNode(NT_X, (leaf(),))
        tree = TreeNode(NT_X, (leaf(), inner))
        assert tree.node_at((1,)) is inner
        assert tree.node_at(()) is tree

    def test_node_at_invalid_address(self):
        with pytest.raises(TreeError):
            leaf().node_at((0,))

    def test_replace_at_returns_new_tree(self):
        tree = TreeNode(NT_X, (leaf(), leaf()))
        replacement = TreeNode(NT_X, is_subst=True)
        replaced = tree.replace_at((1,), replacement)
        assert replaced.node_at((1,)).is_subst
        assert not tree.node_at((1,)).is_subst  # original untouched

    def test_size(self):
        tree = TreeNode(NT_X, (leaf(), TreeNode(NT_X, (leaf(),))))
        assert tree.size == 4


class TestElementaryTrees:
    def test_alpha_rejects_foot(self):
        root = TreeNode(NT_X, (TreeNode(NT_X, is_foot=True),))
        with pytest.raises(TreeError):
            AlphaTree("bad", root)

    def test_beta_requires_exactly_one_foot(self):
        with pytest.raises(TreeError):
            BetaTree("none", TreeNode(NT_X, (leaf(),)))
        two_feet = TreeNode(
            NT_X,
            (TreeNode(NT_X, is_foot=True), TreeNode(NT_X, is_foot=True)),
        )
        with pytest.raises(TreeError):
            BetaTree("two", two_feet)

    def test_beta_foot_label_must_match_root(self):
        other = nonterminal("Y")
        root = TreeNode(NT_X, (TreeNode(other, is_foot=True),))
        with pytest.raises(TreeError):
            BetaTree("mismatch", root)

    def test_beta_foot_address(self):
        root = TreeNode(NT_X, (leaf(), TreeNode(NT_X, is_foot=True)))
        beta = BetaTree("ok", root)
        assert beta.foot_address == (1,)

    def test_substitution_addresses(self):
        root = TreeNode(
            NT_X, (TreeNode(NT_X, is_subst=True), leaf())
        )
        alpha = AlphaTree("a", root)
        assert alpha.substitution_addresses() == ((0,),)

    def test_adjunction_addresses_exclude_markers(self):
        root = TreeNode(
            NT_X,
            (
                TreeNode(NT_X, is_subst=True),
                TreeNode(NT_X, (leaf(),)),
            ),
        )
        alpha = AlphaTree("a", root)
        sites = alpha.adjunction_addresses(frozenset({NT_X}))
        assert () in sites
        assert (1,) in sites
        assert (0,) not in sites  # substitution slot


class TestAddressMemo:
    """Template address lists are computed once per immutable template."""

    @staticmethod
    def template() -> AlphaTree:
        other = nonterminal("Y")
        root = TreeNode(
            NT_X,
            (
                TreeNode(NT_X, is_subst=True),
                TreeNode(other, (leaf(),)),
                TreeNode(NT_X, (TreeNode(other, is_subst=True),)),
            ),
        )
        return AlphaTree("a", root)

    def test_repeated_calls_return_equal_tuples(self):
        alpha = self.template()
        first = alpha.substitution_addresses()
        assert first == ((0,), (2, 0))
        assert alpha.substitution_addresses() == first
        sites = alpha.adjunction_addresses(frozenset({NT_X}))
        assert sites == ((), (2,))
        assert alpha.adjunction_addresses(frozenset({NT_X})) == sites

    def test_one_entry_per_adjoinable_set(self):
        alpha = self.template()
        other = nonterminal("Y")
        only_x = alpha.adjunction_addresses(frozenset({NT_X}))
        only_y = alpha.adjunction_addresses(frozenset({other}))
        both = alpha.adjunction_addresses(frozenset({NT_X, other}))
        assert only_y == ((1,),)
        assert both == ((), (1,), (2,))
        # Asking again in any order serves each set its own answer.
        assert alpha.adjunction_addresses(frozenset({other})) == only_y
        assert alpha.adjunction_addresses(frozenset({NT_X})) == only_x
        assert alpha.adjunction_addresses(frozenset()) == ()

    def test_memo_stays_out_of_pickles(self):
        fresh = self.template()
        used = self.template()
        used.substitution_addresses()
        used.adjunction_addresses(frozenset({NT_X}))
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        assert restored.substitution_addresses() == ((0,), (2, 0))

    def test_memo_does_not_affect_equality_or_hash(self):
        used = self.template()
        used.adjunction_addresses(frozenset({NT_X}))
        fresh = self.template()
        assert used == fresh
        assert hash(used) == hash(fresh)


class TestLexeme:
    def test_instantiate_copies_rconst(self):
        rconst = RConst(0.5)
        lexeme = Lexeme(EXP, payload=("rconst", rconst))
        node = lexeme.instantiate()
        node.payload[1].value = 9.9
        assert rconst.value == 0.5

    def test_plain_payload_preserved(self):
        lexeme = Lexeme(EXP, payload=("const", 2.0))
        assert lexeme.instantiate().payload == ("const", 2.0)

    def test_rconst_copy(self):
        rconst = RConst(1.0, mean=2.0, minimum=-5.0, maximum=5.0)
        clone = rconst.copy()
        clone.value = 3.0
        assert rconst.value == 1.0
        assert clone.maximum == 5.0
