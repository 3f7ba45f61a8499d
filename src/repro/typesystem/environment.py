"""Security environments: the Gamma of the typing judgment.

Gamma maps variable and array names to security labels.  Expression typing
is the standard join over the labels of mentioned locations (Sec. 5.1 says
the expression rules are standard and omits them); for the array extension,
reading ``a[i]`` has label ``Gamma(a) join label(i)`` -- the element value
reveals the index too.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from ..lang import ast
from ..lattice import Label, Lattice


class UnboundVariable(KeyError):
    """A program mentions a name Gamma does not bind."""

    def __str__(self) -> str:
        # The message itself, not KeyError's quoted repr of it.
        return str(self.args[0]) if self.args else ""


class SecurityEnvironment(Mapping[str, Label]):
    """An immutable map from names to security labels."""

    def __init__(self, lattice: Lattice, bindings: Mapping[str, Label]):
        self.lattice = lattice
        self._bindings: Dict[str, Label] = dict(bindings)
        for name, label in self._bindings.items():
            if label.lattice is not lattice:
                raise ValueError(
                    f"label of {name!r} belongs to a different lattice"
                )

    @classmethod
    def from_names(
        cls, lattice: Lattice, **names: str
    ) -> "SecurityEnvironment":
        """Convenience constructor: ``from_names(lat, h="H", l="L")``."""
        return cls(lattice, {n: lattice[level] for n, level in names.items()})

    def __getitem__(self, name: str) -> Label:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundVariable(
                f"variable {name!r} has no security label"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def binding(self, name: str, label: Label) -> "SecurityEnvironment":
        """A copy with one binding added or replaced."""
        updated = dict(self._bindings)
        updated[name] = label
        return SecurityEnvironment(self.lattice, updated)

    # -- expression typing ------------------------------------------------------

    def label_of_expr(self, expr: ast.Expr) -> Label:
        """The label of an expression: join over every location it reads."""
        if isinstance(expr, ast.IntLit):
            return self.lattice.bottom
        if isinstance(expr, ast.Var):
            return self[expr.name]
        if isinstance(expr, ast.ArrayRead):
            return self.lattice.join(
                self[expr.array], self.label_of_expr(expr.index)
            )
        if isinstance(expr, (ast.BinOp, ast.UnOp)):
            return self.lattice.join_all(
                self.label_of_expr(child) for child in expr.children()
            )
        raise TypeError(f"not an expression: {expr!r}")

    def array_index_labels(self, expr: ast.Expr) -> Iterator[Label]:
        """Labels of every array-index subexpression inside ``expr``.

        The addresses of array accesses flow into cache state, so each index
        label must flow to the accessing command's write label (a constraint
        the paper does not need -- its language has only scalars, whose
        addresses are static).
        """
        if isinstance(expr, ast.ArrayRead):
            yield self.label_of_expr(expr.index)
            yield from self.array_index_labels(expr.index)
        else:
            for child in expr.children():
                yield from self.array_index_labels(child)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {label.name}" for name, label in self._bindings.items()
        )
        return f"SecurityEnvironment({{{inner}}})"
