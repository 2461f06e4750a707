"""Static operation identities.

SherLock reasons about *static* operations: the read/write of a fully
qualified field (``Class::field``) or the entry/exit of a fully qualified
method (``Class::Method``).  All dynamic instances of an operation map onto
one :class:`OpRef`, exactly as in §4.2 of the paper ("SherLock identifies
the variables with the fully-qualified type of the field ... and assumes
that all dynamic instances behave the same").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpType(enum.Enum):
    """Kind of traced operation."""

    READ = "read"
    WRITE = "write"
    ENTER = "enter"  # method entry / invocation
    EXIT = "exit"    # method exit / return

    @property
    def is_memory(self) -> bool:
        return self in (OpType.READ, OpType.WRITE)

    @property
    def is_method(self) -> bool:
        return self in (OpType.ENTER, OpType.EXIT)


class Role(enum.Enum):
    """Synchronization role a candidate may play."""

    ACQUIRE = "acq"
    RELEASE = "rel"

    @property
    def opposite(self) -> "Role":
        return Role.RELEASE if self is Role.ACQUIRE else Role.ACQUIRE


#: Which (OpType, Role) combinations are possible at all, per the paper's
#: Read-Acquire & Write-Release property: a heap read can only acquire, a
#: heap write can only release; a method entry can only acquire, a method
#: exit can only release.
CAPABLE_ROLES = {
    OpType.READ: (Role.ACQUIRE,),
    OpType.WRITE: (Role.RELEASE,),
    OpType.ENTER: (Role.ACQUIRE,),
    OpType.EXIT: (Role.RELEASE,),
}


@dataclass(frozen=True, order=True)
class OpRef:
    """A static operation: a qualified name plus an operation type.

    ``name`` is ``"Class::member"``.  Display strings follow the paper's
    tables: ``Read-Class::field`` / ``Write-Class::field`` for memory ops,
    ``Class::Method-Begin`` / ``Class::Method-End`` for method ops.
    """

    name: str
    optype: OpType

    def __getstate__(self) -> dict:
        # String hashes are salted per interpreter (``PYTHONHASHSEED``):
        # the cached hash (see ``_cached_hash``) must not outlive a pickle
        # round trip, or lookups in the unpickled dicts and sets would
        # silently miss.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def class_name(self) -> str:
        """The ``Class`` part of ``Class::member`` (used by Mostly-Paired)."""
        return self.name.split("::", 1)[0]

    @property
    def member_name(self) -> str:
        parts = self.name.split("::", 1)
        return parts[1] if len(parts) > 1 else parts[0]

    def can_play(self, role: Role) -> bool:
        """Whether this op type is capable of the given role."""
        return role in CAPABLE_ROLES[self.optype]

    def display(self) -> str:
        if self.optype is OpType.READ:
            return f"Read-{self.name}"
        if self.optype is OpType.WRITE:
            return f"Write-{self.name}"
        if self.optype is OpType.ENTER:
            return f"{self.name}-Begin"
        return f"{self.name}-End"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.display()


_fields_hash = OpRef.__hash__


def _cached_hash(self: OpRef) -> int:
    """The generated dataclass hash of ``(name, optype)``, computed once
    per object.  It goes through the Python-level ``Enum.__hash__``, and
    every dict or set operation on an ``OpRef`` needs it.  The value is
    the generated one, so dict and set iteration orders do not change."""
    cached = self.__dict__.get("_hash")
    if cached is None:
        cached = self.__dict__["_hash"] = _fields_hash(self)
    return cached


OpRef.__hash__ = _cached_hash


@dataclass(frozen=True, order=True)
class SyncOp:
    """An operation together with the synchronization role it plays."""

    op: OpRef
    role: Role

    def display(self) -> str:
        return f"{self.op.display()} [{self.role.value}]"

    def __str__(self) -> str:  # pragma: no cover
        return self.display()


def read_of(name: str) -> OpRef:
    return OpRef(name, OpType.READ)


def write_of(name: str) -> OpRef:
    return OpRef(name, OpType.WRITE)


def begin_of(name: str) -> OpRef:
    return OpRef(name, OpType.ENTER)


def end_of(name: str) -> OpRef:
    return OpRef(name, OpType.EXIT)


__all__ = [
    "CAPABLE_ROLES",
    "OpRef",
    "OpType",
    "Role",
    "SyncOp",
    "begin_of",
    "end_of",
    "read_of",
    "write_of",
]
