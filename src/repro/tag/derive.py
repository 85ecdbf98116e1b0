"""Deriving trees: adjunction, substitution, and translation to ASTs.

This module implements the two TAG composition operations of Section
III-A (Figure 2) and applies them to a derivation tree to produce the
*derived tree*, then translates completed derived trees into expression
ASTs (:mod:`repro.expr.ast`) that can be simplified, compiled, and
simulated.

It also provides the reverse *lifting* direction used when encoding prior
knowledge: an expert process written as an expression AST (possibly with
``Ext`` markers) is lifted into an alpha-tree template (paper Figure 7(a)).
"""

from __future__ import annotations

from repro.expr import ast
from repro.expr.ast import BinOp, Const, Expr, Ext, Param, State, UnOp, Var
from repro.tag.derivation import DerivationError, DerivationNode, DerivationTree
from repro.tag.symbols import EXP, MODEL, Symbol, connector_symbol, terminal
from repro.tag.trees import Address, TreeError, TreeNode


class DeriveError(ValueError):
    """Raised when a derivation cannot produce a completed tree."""


def adjoin(target: TreeNode, address: Address, auxiliary: TreeNode) -> TreeNode:
    """Adjoin ``auxiliary`` (a derived beta-tree) into ``target`` at ``address``.

    Implements the three steps of Figure 2(a): the subtree at ``address``
    is disconnected, the auxiliary tree is planted in its place, and the
    disconnected subtree is re-attached at the auxiliary tree's foot node.
    """
    site = target.node_at(address)
    if site.symbol != auxiliary.symbol:
        raise DeriveError(
            f"cannot adjoin: site labelled {site.symbol}, auxiliary root "
            f"labelled {auxiliary.symbol}"
        )
    for foot_address, node in auxiliary.walk():
        if node.is_foot:
            planted = auxiliary.replace_at(foot_address, site)
            return target.replace_at(address, planted)
    raise DeriveError("auxiliary tree has no foot node")


def substitute_node(target: TreeNode, address: Address, leaf: TreeNode) -> TreeNode:
    """Substitute ``leaf`` for the substitution slot at ``address``
    (Figure 2(b), restricted to childless alpha-trees)."""
    slot = target.node_at(address)
    if not slot.is_subst:
        raise DeriveError(f"node at {address} is not a substitution slot")
    if slot.symbol != leaf.symbol:
        raise DeriveError(
            f"cannot substitute: slot labelled {slot.symbol}, lexeme "
            f"labelled {leaf.symbol}"
        )
    return target.replace_at(address, leaf)


def derive(derivation: DerivationTree) -> TreeNode:
    """Produce the derived tree encoded by ``derivation``.

    Adjunctions are applied bottom-up over each elementary tree's template
    so that recorded Gorn addresses always refer to elementary-tree nodes,
    independent of the order in which siblings were adjoined.  The build
    is a single pass: every derived subtree comes back with the addresses
    of its foot nodes, so each adjunction splices at a known address, and
    the completeness check needs no second walk (a built tree never holds
    a substitution slot, because an unfilled one fails the build).
    """
    try:
        derivation.validate()
    except DerivationError as error:
        raise DeriveError(str(error)) from None
    derived, feet = _build(derivation.root)
    if feet:
        raise DeriveError("derived tree retains a foot node")
    return derived


def _build(deriv_node: DerivationNode) -> tuple[TreeNode, tuple[Address, ...]]:
    """Build the derived subtree of ``deriv_node``.

    Returns the subtree and the addresses of its foot nodes in pre-order
    (one for a well-formed beta, none for an alpha).  Adjoining a beta
    replaces its first foot, exactly as :func:`adjoin` does.  Template
    leaves other than slots enter the derived tree as they are, since
    tree nodes are immutable.
    """
    tree = deriv_node.tree
    lexemes = deriv_node.lexemes
    adjunctions = deriv_node.children

    def rebuild(
        node: TreeNode, address: Address
    ) -> tuple[TreeNode, tuple[Address, ...]]:
        if node.is_subst:
            lexeme = lexemes.get(address)
            if lexeme is None:
                raise DeriveError(
                    f"unfilled substitution slot at {address} in "
                    f"{tree.name!r}"
                )
            return lexeme.instantiate(), ()
        rebuilt = node
        feet: tuple[Address, ...] = ((),) if node.is_foot else ()
        if node.children:
            children = []
            for index, child in enumerate(node.children):
                built, child_feet = rebuild(child, address + (index,))
                children.append(built)
                if child_feet:
                    feet += tuple((index,) + foot for foot in child_feet)
            rebuilt = TreeNode(node.symbol, tuple(children), payload=node.payload)
        child_derivation = adjunctions.get(address)
        if child_derivation is not None:
            auxiliary, aux_feet = _build(child_derivation)
            if auxiliary.symbol != rebuilt.symbol:
                raise DeriveError(
                    f"beta {child_derivation.tree.name!r} incompatible at "
                    f"{address} of {tree.name!r}"
                )
            if not aux_feet:
                raise DeriveError("auxiliary tree has no foot node")
            splice = aux_feet[0]
            rebuilt = auxiliary.replace_at(splice, rebuilt)
            feet = tuple(splice + foot for foot in feet) + aux_feet[1:]
        return rebuilt, feet

    return rebuild(tree.root, ())


def to_expressions(derived: TreeNode) -> tuple[list[Expr], dict[str, float]]:
    """Translate a completed derived tree into expression ASTs.

    Returns one expression per top-level equation (children of a ``Model``
    root, or a single expression otherwise) together with the values of
    the random constants collected from ``rconst`` payloads, named
    ``_R0``, ``_R1``, ... in traversal order.
    """
    rvalues: dict[str, float] = {}

    def translate(node: TreeNode) -> Expr:
        if node.payload is not None:
            kind, value = node.payload
            if kind == "const":
                return Const(value)
            if kind == "param":
                return Param(value)
            if kind == "var":
                return Var(value)
            if kind == "state":
                return State(value)
            if kind == "rconst":
                name = f"_R{len(rvalues)}"
                rvalues[name] = value.value
                return Param(name)
            if kind == "op":
                raise DeriveError("operator terminal encountered out of context")
            raise DeriveError(f"unknown payload kind {kind!r}")
        kids = node.children
        if len(kids) == 1:
            return translate(kids[0])
        if len(kids) == 2 and _op_of(kids[0]) is not None:
            return UnOp(_op_of(kids[0]), translate(kids[1]))
        if len(kids) == 3 and _op_of(kids[1]) is not None:
            return BinOp(_op_of(kids[1]), translate(kids[0]), translate(kids[2]))
        raise DeriveError(
            f"untranslatable node {node.symbol} with {len(kids)} children"
        )

    if node_is_model(derived):
        expressions = [translate(child) for child in derived.children]
    else:
        expressions = [translate(derived)]
    return expressions, rvalues


def node_is_model(node: TreeNode) -> bool:
    """True if ``node`` is a combined multi-equation root (Section III-C)."""
    return node.symbol == MODEL


def _op_of(node: TreeNode) -> str | None:
    if node.payload is not None and node.payload[0] == "op":
        return node.payload[1]
    return None


def lift(expr: Expr, exp_symbol: Symbol = EXP) -> TreeNode:
    """Lift an expression AST into an elementary-tree template.

    ``Ext`` markers become connector extension-point nodes (adjunction
    sites); all other interior structure is labelled with ``exp_symbol``.
    This is how the expert-written processes of Section III-C are encoded
    as the seed alpha-tree.
    """
    if isinstance(expr, Const):
        return _leaf(f"const:{expr.value:g}", ("const", expr.value))
    if isinstance(expr, Param):
        return _leaf(f"param:{expr.name}", ("param", expr.name))
    if isinstance(expr, Var):
        return _leaf(f"var:{expr.name}", ("var", expr.name))
    if isinstance(expr, State):
        return _leaf(f"state:{expr.name}", ("state", expr.name))
    if isinstance(expr, Ext):
        return TreeNode(
            connector_symbol(expr.name),
            (lift(expr.operand, exp_symbol),),
        )
    if isinstance(expr, UnOp):
        return TreeNode(
            exp_symbol,
            (op_leaf(expr.op), lift(expr.operand, exp_symbol)),
        )
    if isinstance(expr, BinOp):
        return TreeNode(
            exp_symbol,
            (
                lift(expr.lhs, exp_symbol),
                op_leaf(expr.op),
                lift(expr.rhs, exp_symbol),
            ),
        )
    raise TreeError(f"cannot lift node of type {type(expr).__name__}")


def lift_model(equations: dict[str, Expr]) -> TreeNode:
    """Lift several equations into a single tree under a ``Model`` root.

    Multiple intertwined processes (e.g. dBPhy/dt and dBZoo/dt) are encoded
    as one alpha-tree by combining the per-equation trees under a common
    root (Section III-C, "Revising Multiple Processes").  The equation
    order fixes which derived child maps to which state variable.
    """
    children = tuple(lift(expr) for expr in equations.values())
    return TreeNode(MODEL, children)


def op_leaf(op: str) -> TreeNode:
    """A terminal leaf carrying an operator payload."""
    return _leaf(f"op:{op}", ("op", op))


def _leaf(symbol_name: str, payload: tuple) -> TreeNode:
    return TreeNode(terminal(symbol_name), payload=payload)


def expressions_of(
    derivation: DerivationTree,
) -> tuple[list[Expr], dict[str, float]]:
    """Convenience: derive and translate in one call."""
    if not isinstance(derivation, DerivationTree):
        raise TypeError("expressions_of expects a DerivationTree")
    return to_expressions(derive(derivation))


def render_equations(expressions: list[Expr], state_names: list[str]) -> str:
    """Pretty-print derived equations in the paper's dX/dt notation."""
    lines = []
    for state_name, expression in zip(state_names, expressions):
        lines.append(f"d{state_name}/dt = {ast.strip_ext(expression)}")
    return "\n".join(lines)
