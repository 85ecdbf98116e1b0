"""Elementary trees (alpha- and beta-trees) and tree nodes for TAG.

Terminology follows Section III-A of the paper:

* An *elementary tree* is either an initial tree (alpha-tree) or an
  auxiliary tree (beta-tree).
* Interior nodes are labelled by non-terminals; frontier nodes by terminals
  or non-terminals.
* Frontier non-terminals are marked for substitution (``↓``), except the
  single *foot node* of a beta-tree (marked ``*``), whose label must equal
  the root label.

Nodes are addressed by *Gorn addresses*: the root is ``()``, and the
``i``-th child of the node at address ``a`` is at ``a + (i,)``.

Tree nodes are immutable; elementary trees act as reusable templates from
which derived trees are built (:mod:`repro.tag.derive`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.tag.symbols import Symbol

#: A Gorn address: the path of child indices from the root.
Address = tuple[int, ...]


class TreeError(ValueError):
    """Raised for structurally invalid elementary trees."""


@dataclass(frozen=True)
class TreeNode:
    """An immutable node of an elementary or derived tree.

    Attributes:
        symbol: The grammar symbol labelling the node.
        children: Child nodes, in order.
        is_foot: True for the foot node of a beta-tree.
        is_subst: True for a frontier non-terminal marked for substitution.
        payload: Terminal semantics -- a ``(kind, value)`` tuple such as
            ``("op", "+")``, ``("var", "Vtmp")``, ``("param", "CUA")``,
            ``("const", 1.5)``, ``("state", "BPhy")`` or ``("rconst", r)``
            where ``r`` is an :class:`RConst` carrying a mutable value.
    """

    symbol: Symbol
    children: tuple["TreeNode", ...] = ()
    is_foot: bool = False
    is_subst: bool = False
    payload: Any = None

    def __post_init__(self) -> None:
        if self.is_foot and self.is_subst:
            raise TreeError("a node cannot be both a foot and a substitution slot")
        if self.is_foot and self.children:
            raise TreeError("a foot node must be on the frontier")
        if self.is_subst and self.children:
            raise TreeError("a substitution slot must be on the frontier")
        if self.symbol.is_terminal and self.children:
            raise TreeError("terminal nodes cannot have children")
        if (self.is_foot or self.is_subst) and self.symbol.is_terminal:
            raise TreeError("foot/substitution markers require non-terminals")

    def walk(self, address: Address = ()) -> Iterator[tuple[Address, "TreeNode"]]:
        """Yield ``(address, node)`` pairs in pre-order."""
        yield address, self
        for index, child in enumerate(self.children):
            yield from child.walk(address + (index,))

    def node_at(self, address: Address) -> "TreeNode":
        """Return the node at ``address``."""
        node = self
        for index in address:
            try:
                node = node.children[index]
            except IndexError:
                raise TreeError(f"no node at address {address}") from None
        return node

    def replace_at(self, address: Address, replacement: "TreeNode") -> "TreeNode":
        """Return a copy of this tree with ``replacement`` at ``address``."""
        if not address:
            return replacement
        index, *rest = address
        if index >= len(self.children):
            raise TreeError(f"no node at address {address}")
        new_child = self.children[index].replace_at(tuple(rest), replacement)
        children = (
            self.children[:index] + (new_child,) + self.children[index + 1 :]
        )
        return TreeNode(
            self.symbol,
            children,
            is_foot=self.is_foot,
            is_subst=self.is_subst,
            payload=self.payload,
        )

    @property
    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return 1 + sum(child.size for child in self.children)

    def __str__(self) -> str:
        marker = "*" if self.is_foot else ("↓" if self.is_subst else "")
        if self.payload is not None:
            label = f"{self.symbol}{marker}[{self.payload[0]}:{self.payload[1]}]"
        else:
            label = f"{self.symbol}{marker}"
        if not self.children:
            return label
        inner = " ".join(str(child) for child in self.children)
        return f"({label} {inner})"


@dataclass
class RConst:
    """A mutable random-constant value carried by an ``rconst`` payload.

    The paper's ``R`` variables (Table II) are substituted into beta-trees
    as lexemes and then tuned by Gaussian mutation alongside the model's
    constant parameters.  ``RConst`` holds the current value plus the prior
    (mean/bounds) that governs its mutation; ``sigma_hint``, when set,
    fixes the mutation scale (used by anomaly-centre constants whose
    magnitudes are large but whose plausible moves are small).
    """

    value: float
    mean: float = 0.5
    minimum: float = -1000.0
    maximum: float = 1000.0
    sigma_hint: float | None = None

    def copy(self) -> "RConst":
        return RConst(
            self.value, self.mean, self.minimum, self.maximum, self.sigma_hint
        )


#: Instance-dict keys of :class:`ElementaryTree`'s address memos.
_ADDRESS_MEMOS = frozenset({"_substitution_addresses", "_adjunction_addresses"})


@dataclass(frozen=True)
class ElementaryTree:
    """Base class of alpha- and beta-trees: a named, validated template."""

    name: str
    root: TreeNode

    def node_at(self, address: Address) -> TreeNode:
        return self.root.node_at(address)

    def walk(self) -> Iterator[tuple[Address, TreeNode]]:
        return self.root.walk()

    # The templates are immutable, so their address lists are computed
    # once and memoised in the instance ``__dict__`` (the dataclass is
    # frozen); the memo never enters a pickle.

    def substitution_addresses(self) -> tuple[Address, ...]:
        """Addresses of all frontier substitution slots (``↓`` nodes)."""
        cached = self.__dict__.get("_substitution_addresses")
        if cached is None:
            cached = tuple(
                address for address, node in self.walk() if node.is_subst
            )
            self.__dict__["_substitution_addresses"] = cached
        return cached

    def adjunction_addresses(self, adjoinable: frozenset[Symbol]) -> tuple[Address, ...]:
        """Addresses where a beta-tree rooted at a symbol in ``adjoinable``
        may adjoin: non-terminal nodes excluding foot and substitution
        slots."""
        memo = self.__dict__.setdefault("_adjunction_addresses", {})
        cached = memo.get(adjoinable)
        if cached is None:
            cached = tuple(
                address
                for address, node in self.walk()
                if node.symbol in adjoinable
                and not node.is_foot
                and not node.is_subst
            )
            memo[adjoinable] = cached
        return cached

    def __getstate__(self) -> dict:
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in _ADDRESS_MEMOS
        }

    @property
    def size(self) -> int:
        return self.root.size


@dataclass(frozen=True)
class AlphaTree(ElementaryTree):
    """An initial tree: no foot node."""

    def __post_init__(self) -> None:
        for __, node in self.walk():
            if node.is_foot:
                raise TreeError(f"alpha-tree {self.name!r} contains a foot node")


@dataclass(frozen=True)
class BetaTree(ElementaryTree):
    """An auxiliary tree: exactly one frontier foot node matching the root."""

    def __post_init__(self) -> None:
        feet = [
            (address, node) for address, node in self.walk() if node.is_foot
        ]
        if len(feet) != 1:
            raise TreeError(
                f"beta-tree {self.name!r} must have exactly one foot node, "
                f"found {len(feet)}"
            )
        __, foot = feet[0]
        if foot.symbol != self.root.symbol:
            raise TreeError(
                f"beta-tree {self.name!r}: foot label {foot.symbol} does not "
                f"match root label {self.root.symbol}"
            )

    @property
    def foot_address(self) -> Address:
        for address, node in self.walk():
            if node.is_foot:
                return address
        raise AssertionError("validated beta-tree lost its foot")


@dataclass(frozen=True)
class Lexeme:
    """A childless alpha-tree used for restricted substitution.

    Under the derivation-tree formulation GMR uses (Section III-A2), a
    substituted alpha-tree has no children, so a lexeme is fully described
    by its root symbol and a terminal payload.
    """

    symbol: Symbol
    payload: Any = field(default=None)

    def instantiate(self) -> TreeNode:
        """Materialise the lexeme as a derived-tree leaf."""
        payload = self.payload
        if payload is not None and payload[0] == "rconst":
            payload = ("rconst", payload[1].copy())
        return TreeNode(self.symbol, payload=payload)
