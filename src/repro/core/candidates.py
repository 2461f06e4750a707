"""Candidate variable registry.

Maps each (static operation, role) pair onto one LP variable in [0, 1]
whose value is the probability of the operation playing that role
(``read(f)^acq``, ``write(f)^rel``, ``begin(m)^acq``, ``end(m)^rel`` …).

The Read-Acquire & Write-Release property (Eq. 1) is enforced here by
construction: incapable combinations simply get no variable, which is
equivalent to pinning them at 0.  When the property is ablated
(Table 5 row "w/o Read-Acq & Write-Rel"), every combination is allowed.

The incremental encoder's hot path goes through :meth:`columns`, a
per-role ``OpRef -> column | None`` memo that skips building and hashing
a :class:`~repro.trace.optypes.SyncOp` per window-side entry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..lp import Model, Variable
from ..trace.optypes import OpRef, Role, SyncOp


_UNSEEN = object()


class CandidateRegistry:
    """Creates and indexes probability variables on demand."""

    def __init__(self, model: Model, enforce_capability: bool = True) -> None:
        self.model = model
        self.enforce_capability = enforce_capability
        self._vars: Dict[SyncOp, Variable] = {}
        #: Per role, ``OpRef -> column index`` (``None`` when the
        #: capability property rules the pair out).
        self._columns: Dict[Role, Dict[OpRef, Optional[int]]] = {
            Role.RELEASE: {},
            Role.ACQUIRE: {},
        }

    @staticmethod
    def var_name(ref: OpRef, role: Role) -> str:
        return f"{role.value}:{ref.optype.value}:{ref.name}"

    def var(self, ref: OpRef, role: Role) -> Optional[Variable]:
        """The variable for (ref, role), or None when the capability
        property rules the combination out."""
        if self.enforce_capability and not ref.can_play(role):
            return None
        key = SyncOp(ref, role)
        existing = self._vars.get(key)
        if existing is not None:
            return existing
        variable = self.model.add_variable(self.var_name(ref, role), 0.0, 1.0)
        self._vars[key] = variable
        return variable

    def release_vars(self, refs: Iterable[OpRef]) -> List[Variable]:
        out = []
        for ref in refs:
            v = self.var(ref, Role.RELEASE)
            if v is not None:
                out.append(v)
        return out

    def acquire_vars(self, refs: Iterable[OpRef]) -> List[Variable]:
        out = []
        for ref in refs:
            v = self.var(ref, Role.ACQUIRE)
            if v is not None:
                out.append(v)
        return out

    def columns(self, refs: Iterable[OpRef], role: Role) -> List[int]:
        """Column indexes of the variables for ``refs`` in ``role``,
        skipping incapable ones: the ``index`` of every variable
        :meth:`release_vars` / :meth:`acquire_vars` would return, created
        on first sight in the same order."""
        memo = self._columns[role]
        get = memo.get
        out = []
        for ref in refs:
            col = get(ref, _UNSEEN)
            if col is _UNSEEN:
                variable = self.var(ref, role)
                col = memo[ref] = None if variable is None else variable.index
            if col is not None:
                out.append(col)
        return out

    def items(self) -> Iterable[Tuple[SyncOp, Variable]]:
        return self._vars.items()

    def lookup(self, ref: OpRef, role: Role) -> Optional[Variable]:
        """Existing variable or None; never creates."""
        return self._vars.get(SyncOp(ref, role))

    def __len__(self) -> int:
        return len(self._vars)


__all__ = ["CandidateRegistry"]
