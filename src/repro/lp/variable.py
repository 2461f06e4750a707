"""Decision variables for the linear-programming layer.

The LP layer stands in for the ``Flipy`` modelling library the paper's
artifact uses.  A :class:`Variable` is a named continuous decision variable
with optional lower/upper bounds.  Variables are created through
:meth:`repro.lp.model.Model.add_variable`, which assigns each one a dense
column index used by the solver backends.
"""

from __future__ import annotations

import math
from typing import Optional


class Variable:
    """A continuous LP decision variable.

    Variables compare and hash by identity: two variables with the same name
    are still distinct columns.  The owning :class:`~repro.lp.model.Model`
    enforces name uniqueness so solutions can be addressed by name.
    """

    __slots__ = ("name", "lower", "upper", "index")

    def __init__(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
        index: int = -1,
    ) -> None:
        if upper is not None and upper < lower:
            raise ValueError(
                f"variable {name!r}: upper bound {upper} < lower bound {lower}"
            )
        self.name = name
        self.lower = float(lower)
        self.upper = None if upper is None else float(upper)
        self.index = index

    # -- arithmetic: delegate to LinExpr ------------------------------------

    def _as_expr(self):
        from .expr import LinExpr

        return LinExpr({self: 1.0})

    def __add__(self, other):
        return self._as_expr() + other

    def __radd__(self, other):
        return self._as_expr() + other

    def __sub__(self, other):
        return self._as_expr() - other

    def __rsub__(self, other):
        return (-1.0) * self._as_expr() + other

    def __mul__(self, other):
        return self._as_expr() * other

    def __rmul__(self, other):
        return self._as_expr() * other

    def __neg__(self):
        return self._as_expr() * -1.0

    # -- comparisons build constraints --------------------------------------

    def __le__(self, other):
        return self._as_expr() <= other

    def __ge__(self, other):
        return self._as_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Variable):
            return self is other
        return self._as_expr() == other

    # Identity hash in C: variables key every expression, constraint and
    # objective dict, so a Python-level ``__hash__`` showed up in profiles.
    __hash__ = object.__hash__

    def is_binary_like(self) -> bool:
        """True when the variable is bounded to the unit interval."""
        return (
            self.lower == 0.0
            and self.upper is not None
            and math.isclose(self.upper, 1.0)
        )

    def __repr__(self) -> str:
        hi = "inf" if self.upper is None else f"{self.upper:g}"
        return f"Variable({self.name!r}, [{self.lower:g}, {hi}])"
