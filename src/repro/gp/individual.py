"""Individuals: derivation-tree genomes plus constant parameters.

An individual couples the structural genome (a TAG derivation tree) with
the values of the expert model's constant parameters (Table III).  Random
constants introduced by revisions (``R`` lexemes) live inside the
derivation tree itself so they travel with subtrees under crossover.

Building a phenotype (derivation, translation, model construction) is
paid once per derivation *shape*: the model is memoised on the
derivation, handed on by copying, and reused while a walk over the
derivation finds the same shape -- as after a Gaussian move, which
changes only parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_

from repro.dynamics.system import ProcessModel
from repro.expr.ast import Expr
from repro.tag.derivation import PHENOTYPE_MEMO, DerivationTree
from repro.tag.derive import expressions_of
from repro.tag.trees import RConst

#: Stands in the signature for an ``rconst`` lexeme payload, whose value
#: does not shape the model.
_RCONST = object()


def _signature(
    derivation: DerivationTree,
) -> tuple[tuple, tuple, list[RConst]]:
    """The derivation's shape signature and its random constants.

    One pre-order walk over the derivation nodes.  ``refs`` holds, by
    reference, each node's elementary tree and every lexeme payload
    (``_RCONST`` for a random constant); callers compare it by identity,
    which cannot be fooled by reuse since the memo keeps the objects
    alive.  ``shape`` holds each node's child addresses in dict order,
    its lexeme count, and every lexeme's address and symbol.  Together
    they fix the derived tree, the expressions and every check
    ``DerivationTree.validate`` makes without a grammar.  The constants
    come in ``derivation.rconsts()`` order.
    """
    refs: list = []
    shape: list = []
    rconsts: list[RConst] = []
    stack = [derivation.root]
    while stack:
        node = stack.pop()
        refs.append(node.tree)
        children = node.children
        lexemes = node.lexemes
        shape.append(tuple(children))
        shape.append(len(lexemes))
        for address in sorted(lexemes):
            lexeme = lexemes[address]
            payload = lexeme.payload
            shape.append(address)
            shape.append(lexeme.symbol)
            if payload is not None and payload[0] == "rconst":
                refs.append(_RCONST)
                rconsts.append(payload[1])
            else:
                refs.append(payload)
        stack.extend(reversed(children.values()))
    return tuple(refs), tuple(shape), rconsts


@dataclass(frozen=True)
class _PhenotypeMemo:
    """A built phenotype and everything that fixed it.

    ``refs`` and ``shape`` are the derivation's :func:`_signature`;
    ``state_names``, ``var_order`` and ``param_names`` (the expert
    parameter names in order) are the other inputs of the build.
    ``sources`` follows ``model.param_order``: an expert parameter's
    name, or for ``_Rk`` the position of its constant in
    ``derivation.rconsts()``.  The model is shared by every relative
    that carries the memo, so it is read-only.
    """

    refs: tuple
    shape: tuple
    state_names: tuple[str, ...]
    var_order: tuple[str, ...]
    param_names: tuple[str, ...]
    model: ProcessModel
    sources: tuple[str | int, ...]

    def fits(
        self,
        refs: tuple,
        shape: tuple,
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
        param_names: tuple[str, ...],
    ) -> bool:
        return (
            self.state_names == state_names
            and self.var_order == var_order
            and self.param_names == param_names
            and self.shape == shape
            and len(self.refs) == len(refs)
            and all(map(is_, self.refs, refs))
        )


@dataclass
class Individual:
    """One candidate revised model.

    Attributes:
        derivation: The TAG derivation tree (structure genome).
        params: Values of the expert constant parameters, keyed by name.
        fitness: Last evaluated fitness (lower is better); None if stale.
        fully_evaluated: Whether the last evaluation ran all fitness cases
            (False when evaluation short-circuiting returned an estimate).
    """

    derivation: DerivationTree
    params: dict[str, float]
    fitness: float | None = field(default=None, compare=False)
    fully_evaluated: bool = field(default=False, compare=False)

    def copy(self) -> "Individual":
        """Deep copy; the copy's fitness is invalidated."""
        return Individual(
            derivation=self.derivation.copy(),
            params=dict(self.params),
        )

    def invalidate(self) -> None:
        """Mark cached fitness stale after a structural/parameter change."""
        self.fitness = None
        self.fully_evaluated = False

    @property
    def size(self) -> int:
        """Chromosome size (number of derivation nodes)."""
        return self.derivation.size

    def expressions(self) -> tuple[list[Expr], dict[str, float]]:
        """Derive the phenotype expressions and random-constant values."""
        return expressions_of(self.derivation)

    def phenotype(
        self,
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
    ) -> tuple[ProcessModel, tuple[float, ...]]:
        """Materialise the individual as a process model plus parameters.

        Returns the model and a parameter tuple following the model's
        ``param_order`` (expert parameters first, then ``_Rk`` constants).
        The model comes from the derivation's memo when its shape and the
        other inputs are unchanged, and is built and memoised otherwise;
        it may be shared with relatives and must not be modified.
        """
        derivation = self.derivation
        refs, shape, rconsts = _signature(derivation)
        state_names = tuple(state_names)
        var_order = tuple(var_order)
        param_names = tuple(self.params)
        memo = derivation.__dict__.get(PHENOTYPE_MEMO)
        if memo is None or not memo.fits(
            refs, shape, state_names, var_order, param_names
        ):
            memo = self._build_phenotype(
                refs, shape, state_names, var_order, param_names
            )
            derivation.__dict__[PHENOTYPE_MEMO] = memo
        params = self.params
        values = tuple(
            rconsts[source].value if isinstance(source, int) else params[source]
            for source in memo.sources
        )
        return memo.model, values

    def _build_phenotype(
        self,
        refs: tuple,
        shape: tuple,
        state_names: tuple[str, ...],
        var_order: tuple[str, ...],
        param_names: tuple[str, ...],
    ) -> _PhenotypeMemo:
        positions: list[int] = []
        expressions, __ = expressions_of(self.derivation, positions)
        if len(expressions) != len(state_names):
            raise ValueError(
                f"derived {len(expressions)} equations for "
                f"{len(state_names)} states"
            )
        model = ProcessModel.from_equations(
            dict(zip(state_names, expressions)),
            var_order=var_order,
            extra_params=param_names,
        )
        # A random constant shadows an expert parameter of the same name.
        rconst_at = {f"_R{k}": position for k, position in enumerate(positions)}
        return _PhenotypeMemo(
            refs=refs,
            shape=shape,
            state_names=state_names,
            var_order=var_order,
            param_names=param_names,
            model=model,
            sources=tuple(
                rconst_at.get(name, name) for name in model.param_order
            ),
        )

    def describe(self, state_names: tuple[str, ...]) -> str:
        """Render the revised equations with parameter values substituted."""
        expressions, rvalues = self.expressions()
        assignment = {**self.params, **rvalues}
        lines = [
            f"d{name}/dt = {expr}"
            for name, expr in zip(state_names, expressions)
        ]
        lines.append(
            "params: "
            + ", ".join(f"{k}={v:.4g}" for k, v in sorted(assignment.items()))
        )
        return "\n".join(lines)
