"""Immutable value types for role-based trust policies.

A policy state is a finite set of statements, each populating a
principal-owned role either directly (simple membership) or by delegation
(role inclusion, linked roles, intersections).  Containment constraints,
role monitors, and change events round out the vocabulary shared by every
other module.  All types here compare structurally, carry no behaviour
beyond their own invariants, and are safe to share between threads.  A
state derives what every pass reads of it -- its one index: its
statements by head, each head's in text order -- on first use, once, and
keeps it, and it keeps what the other modules derive from it (membership
on a cone, the support worklist, the bounds and the trusted core) in one
memo, also filled on first use.  A state derived from another -- by
``add`` or ``remove``, or as a session's next snapshot -- carries over the
other's index, if it was built, with the changes between them replayed
onto a copy, and derives the rest afresh.  No pass reads a state's
principals: the upper bound reads ``TOP`` as every principal, so only the
listing of a state's roles collects them.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import (
    Callable, Container, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar,
    Union,
)

__all__ = [
    "RESERVED_PRINCIPAL",
    "TOP",
    "Principal",
    "RoleName",
    "Role",
    "SimpleMember",
    "SimpleInclusion",
    "LinkingInclusion",
    "IntersectionInclusion",
    "StatementBody",
    "Statement",
    "statement_principals",
    "PolicyState",
    "PrincipalSet",
    "RoleRef",
    "UnionExpr",
    "IntersectionExpr",
    "PositiveRoleExpr",
    "fold_expr",
    "roles_of",
    "principals_of_expr",
    "Constraint",
    "EVERY_ROLE",
    "RoleMonitor",
    "ChangeKind",
    "ChangeEvent",
]

_T = TypeVar("_T")

#: Name reserved for the "any principal" placeholder used by bound analysis.
RESERVED_PRINCIPAL = "TOP"

#: The names of principals and roles: the identifiers of the text formats,
#: so every statement built here prints as a line the parser reads back.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(kind: str, name: str) -> None:
    if not _IDENT.fullmatch(name):
        raise ValueError(f"{kind} name must be an identifier {_IDENT.pattern}, got {name!r}")


def _rebuilt(self) -> tuple:
    """``__reduce__`` of a type that keeps values derived from its fields:
    copy and pickle call the constructor, so a kept hash is recomputed where
    the object is loaded (string hashes differ between processes), and a
    cached map is built again only when it is read."""
    return self.__class__, tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _unchecked(cls: type[_T]) -> Callable[..., _T]:
    """The parser's constructor of ``cls``, a slotted type of one or two
    fields: the grammar has already made the checks of ``__post_init__``,
    so this one only writes the fields, and ``_hash``, where the type keeps
    one, as the hash of their tuple, the formula ``__post_init__`` uses,
    straight into their slots, past the frozen ``__setattr__``."""
    slots = [vars(cls)[f.name].__set__ for f in fields(cls) if f.init]
    set_hash = vars(cls)["_hash"].__set__ if "_hash" in vars(cls) else None
    new = object.__new__
    # One closure per field count, with or without a hash, chosen here so
    # that no call tests which it is.
    if len(slots) == 1:
        [set_a] = slots

        def make(a):
            self = new(cls)
            set_a(self, a)
            return self

        def make_hashed(a):
            self = new(cls)
            set_a(self, a)
            set_hash(self, hash((a,)))
            return self
    else:
        set_a, set_b = slots

        def make(a, b):
            self = new(cls)
            set_a(self, a)
            set_b(self, b)
            return self

        def make_hashed(a, b):
            self = new(cls)
            set_a(self, a)
            set_b(self, b)
            set_hash(self, hash((a, b)))
            return self

    return make if set_hash is None else make_hashed


@dataclass(frozen=True, order=True, slots=True)
class Principal:
    """A participant, identified by name (exact string equality).

    ``TOP`` is reserved: it stands for "any principal, including ones not
    seen yet" in analysis output and may never occur inside a policy,
    constraint, or monitor.
    """

    name: str
    # Principals, role names, roles and statements are hashed on every set
    # and dict access, so each computes its hash once, when it is built.
    # The value is the dataclass field-tuple hash, which keeps set and dict
    # iteration orders as they were.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_name("principal", self.name)
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _rebuilt

    @property
    def is_reserved(self) -> bool:
        return self.name == RESERVED_PRINCIPAL

    def __str__(self) -> str:
        return self.name


_unchecked_principal = _unchecked(Principal)

#: The reserved "any principal" marker.  Appears only in analysis results.
TOP = Principal(RESERVED_PRINCIPAL)


@dataclass(frozen=True, order=True, slots=True)
class RoleName:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_name("role", self.name)
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.name


_unchecked_role_name = _unchecked(RoleName)


@dataclass(frozen=True, order=True, slots=True)
class Role:
    """A named set of principals administered by its owner, written ``A.r``."""

    owner: Principal
    name: RoleName
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.owner, self.name)))

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.owner.name}.{self.name.name}"


_unchecked_role = _unchecked(Role)


@dataclass(frozen=True, slots=True)
class SimpleMember:
    """Body of ``A.r <- D``: the principal D is a member outright."""

    member: Principal

    def __str__(self) -> str:
        return self.member.name


_unchecked_member = _unchecked(SimpleMember)


@dataclass(frozen=True, slots=True)
class SimpleInclusion:
    """Body of ``A.r <- B.r1``: every member of B.r1 is a member of A.r."""

    source: Role

    def __str__(self) -> str:
        return str(self.source)


_unchecked_inclusion = _unchecked(SimpleInclusion)


@dataclass(frozen=True, slots=True)
class LinkingInclusion:
    """Body of ``A.r <- A.r1.r2``: members of Y.r2 for every Y in A.r1.

    The first component must be a role owned by the statement head's
    owner; ``Statement`` enforces that when the body is attached.
    """

    first: Role
    second: RoleName

    def __str__(self) -> str:
        return f"{self.first}.{self.second.name}"


_unchecked_linking = _unchecked(LinkingInclusion)


@dataclass(frozen=True, eq=False, slots=True)
class IntersectionInclusion:
    """Body of ``A.r <- B1.r1 & ... & Bn.rn``: members common to every part.

    Parts keep their written order for display.  ``reads`` holds the
    distinct parts once each in text order, the one read order of the
    body, built once, when the body is.  Two intersections compare and
    hash by it, so they are equal when they name the same set of roles,
    whatever the order or repeats of their parts.
    """

    parts: tuple[Role, ...]
    reads: tuple[Role, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValueError("intersection inclusion needs at least two roles")
        object.__setattr__(self, "reads", tuple(sorted(set(self.parts), key=str)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntersectionInclusion):
            return NotImplemented
        return self.reads == other.reads

    def __hash__(self) -> int:
        return hash(self.reads)

    def __str__(self) -> str:
        return " & ".join(str(p) for p in self.parts)


StatementBody = Union[SimpleMember, SimpleInclusion, LinkingInclusion, IntersectionInclusion]


@dataclass(frozen=True, slots=True)
class Statement:
    """One policy statement ``head <- body``; a value object.  Its text
    is rendered by every ``str`` and orders each head's statements in a
    state's index."""

    head: Role
    body: StatementBody
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.body, LinkingInclusion) and self.body.first.owner != self.head.owner:
            raise ValueError(
                f"linked role {self.body} must start from a role owned by {self.head.owner.name}"
            )
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return f"{self.head} <- {self.body}"


_unchecked_statement = _unchecked(Statement)


def statement_principals(stmt: Statement) -> frozenset[Principal]:
    """Every principal occurring in the statement (head owner included)."""
    head_owner, body = stmt.head.owner, stmt.body
    if isinstance(body, SimpleMember):
        return frozenset((head_owner, body.member))
    if isinstance(body, SimpleInclusion):
        return frozenset((head_owner, body.source.owner))
    if isinstance(body, LinkingInclusion):
        return frozenset((head_owner, body.first.owner))
    return frozenset((head_owner, *[part.owner for part in body.parts]))


def _reads(
    stmt: Statement, walk: Optional[Mapping[Role, Iterable[Principal]]] = None
) -> tuple[Role, ...]:
    """The roles ``stmt`` reads: the source of a simple inclusion, the first
    role of a linked one, an intersection's ``reads`` (its distinct parts
    in text order, kept on the body, so nothing is sorted here), none for
    a member fact.  With ``walk`` given, ``A.r <- A.r1.r2`` also reads
    ``Y.r2`` for every ``Y`` that ``walk`` holds for ``A.r1``.  This is
    the one place that says which roles a statement reads."""
    body = stmt.body
    if isinstance(body, SimpleInclusion):
        return (body.source,)
    if isinstance(body, LinkingInclusion):
        walked = walk.get(body.first, ()) if walk is not None else ()
        return (body.first, *(Role(y, body.second) for y in walked))
    if isinstance(body, IntersectionInclusion):
        return body.reads
    return ()


@dataclass(frozen=True)
class PolicyState:
    """A finite set of statements; all role semantics derive from it.

    Adding a present statement or removing an absent one yields the state
    unchanged (callers that care can compare identities).
    """

    statements: frozenset[Statement] = frozenset()

    def __post_init__(self) -> None:
        stmts = frozenset(self.statements)
        object.__setattr__(self, "statements", stmts)
        for stmt in stmts:
            _check_unreserved(stmt)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __contains__(self, stmt: object) -> bool:
        return stmt in self.statements

    # Copy and pickle carry the statements alone, none of the caches below
    # and not the memo.
    __reduce__ = _rebuilt

    def add(self, stmt: Statement) -> "PolicyState":
        if stmt in self.statements:
            return self
        _check_unreserved(stmt)
        return _successor(self, self.statements | {stmt}, [ChangeEvent(ChangeKind.ADD, stmt)])

    def remove(self, stmt: Statement) -> "PolicyState":
        if stmt not in self.statements:
            return self
        return _successor(self, self.statements - {stmt}, [ChangeEvent(ChangeKind.REMOVE, stmt)])

    @cached_property
    def principals(self) -> frozenset[Principal]:
        """Every principal a statement names.  Only :attr:`roles` reads it."""
        out: set[Principal] = set()
        for stmt in self.statements:
            out |= statement_principals(stmt)
        return frozenset(out)

    @cached_property
    def _index(self) -> dict[Role, list[Statement]]:
        """Every statement by head, member facts and rules alike, each
        head's list in text order: the one index the passes over this state
        read.  The heads in text order, each followed by its list, are the
        statements in text order: a head's text is a proper prefix of
        another's only where a name character or ``.`` follows, and each
        sorts after the space of `` <- ``.  Two threads may both build it
        cold; that is benign, because each stores an equal index."""
        index: dict[Role, list[Statement]] = {}
        for stmt in self.statements:
            index.setdefault(stmt.head, []).append(stmt)
        return _in_text_order(index)

    @cached_property
    def _memo(self) -> dict[tuple[str, Hashable], object]:
        """What other modules derive from this state, keyed by a kind (a
        plain string) and the argument it was derived for."""
        return {}

    def _derived(self, kind: str, arg: Hashable, compute: Callable[[], _T]) -> _T:
        """The ``kind`` of this state derived for ``arg``: ``compute()`` on
        first use, the kept result afterwards.  Two threads may both compute
        a cold entry; that is benign, because each stores an equal value."""
        memo = self._memo
        key = (kind, arg)
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    @cached_property
    def role_names(self) -> frozenset[RoleName]:
        out: set[RoleName] = set()
        for stmt in self.statements:
            out.add(stmt.head.name)
            out.update(r.name for r in _reads(stmt))
            if isinstance(stmt.body, LinkingInclusion):
                out.add(stmt.body.second)
        return frozenset(out)

    @cached_property
    def roles(self) -> frozenset[Role]:
        """Cross product of the state's principals and role names.

        Roles in here may have empty definitions.  Only the ``analyze``
        report (to list the core of a ``*`` monitor) and tests read it; no
        analysis or monitoring pass builds it.
        """
        return frozenset(
            Role(owner, name) for owner in self.principals for name in self.role_names
        )


def _check_unreserved(stmt: Statement) -> None:
    """Reject ``TOP`` in any principal position of the statement.  Every
    statement added in a session passes here, so the body is read in place:
    nothing is built, nothing hashed and no other function called."""
    reserved = stmt.head.owner.name == RESERVED_PRINCIPAL
    body = stmt.body
    if isinstance(body, SimpleMember):
        reserved = reserved or body.member.name == RESERVED_PRINCIPAL
    elif isinstance(body, SimpleInclusion):
        reserved = reserved or body.source.owner.name == RESERVED_PRINCIPAL
    elif isinstance(body, IntersectionInclusion):
        for part in body.parts:
            reserved = reserved or part.owner.name == RESERVED_PRINCIPAL
    # A linked role starts from a role of the head's owner, checked above.
    if reserved:
        raise ValueError(
            f"reserved principal {RESERVED_PRINCIPAL} cannot occur in a policy: {stmt}"
        )


def _checked_state(statements: frozenset[Statement]) -> PolicyState:
    """A state over statements already known to be free of ``TOP``.

    ``add`` and ``remove`` check only the statement they change, so they
    skip the constructor's pass over every statement.
    """
    state = object.__new__(PolicyState)
    object.__setattr__(state, "statements", statements)
    return state


def _in_text_order(index: dict[Role, list[Statement]]) -> dict[Role, list[Statement]]:
    """``index``, each head's statements grouped in any order, with every
    list of two or more sorted in place by text: a head with one statement
    is neither rendered nor sorted.  Every index built afresh is ordered
    here, however its state was made."""
    for items in index.values():
        if len(items) > 1:
            items.sort(key=str)
    return index


def _successor(
    prev: PolicyState, statements: frozenset[Statement], events: Sequence[ChangeEvent]
) -> PolicyState:
    """The state over ``statements``, already known to be free of ``TOP``,
    that ``events`` make of ``prev``, each changing the state it meets.

    When ``prev`` has built its index, the new state carries it over with
    the events replayed, in order, onto a copy: the map is copied, and the
    list of each head an event changes before it changes.  An addition
    enters its head's list by ``insort`` on its text; a removal drops the
    object the list holds, found by equality, whichever order an
    intersection was written in.  Nothing else is carried, not the memo,
    and nothing ``prev`` holds is changed.  ``PolicyState.add`` and
    ``remove`` and every snapshot of a session build their state here.
    """
    state = _checked_state(statements)
    index = vars(prev).get("_index")
    if index is not None:
        index = dict(index)
        copied: dict[Role, list[Statement]] = {}
        for ev in events:
            stmt = ev.statement
            items = copied.get(stmt.head)
            if items is None:
                items = copied[stmt.head] = index[stmt.head] = list(index.get(stmt.head, ()))
            if ev.kind is ChangeKind.ADD:
                insort(items, stmt, key=str)
            else:
                items.remove(stmt)
        # A head left without statements leaves the map, as in a fresh index.
        for head, items in copied.items():
            if not items:
                del index[head]
        object.__setattr__(state, "_index", index)
    return state


@dataclass(frozen=True, slots=True)
class PrincipalSet:
    """A literal set of principals; evaluates to itself in any state."""

    members: frozenset[Principal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))

    def __str__(self) -> str:
        inner = ", ".join(sorted(p.name for p in self.members))
        return "{" + inner + "}"


@dataclass(frozen=True, slots=True)
class RoleRef:
    role: Role

    def __str__(self) -> str:
        return str(self.role)


class _BinaryExpr:
    """Equality, hash and repr of a union or intersection node, without
    recursion, so expressions of any depth compare, hash and print.

    The hash is computed once, from the children's cached hashes, and equals
    the field-tuple hash a generated ``__hash__`` would give.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _rebuilt

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, _BinaryExpr):
                if a._hash != b._hash:
                    return False
                todo += ((a.right, b.right), (a.left, b.left))
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, _BinaryExpr):
                name = item.__class__.__qualname__
                todo += (")", item.right, ", right=", item.left, f"{name}(left=")
            else:
                out.append(repr(item))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class UnionExpr(_BinaryExpr):
    left: "PositiveRoleExpr"
    right: "PositiveRoleExpr"
    _hash: int = field(init=False, repr=False, compare=False)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class IntersectionExpr(_BinaryExpr):
    left: "PositiveRoleExpr"
    right: "PositiveRoleExpr"
    _hash: int = field(init=False, repr=False, compare=False)


PositiveRoleExpr = Union[PrincipalSet, RoleRef, UnionExpr, IntersectionExpr]


def fold_expr(
    expr: PositiveRoleExpr,
    leaf: Callable[[Union[PrincipalSet, RoleRef]], _T],
    union: Callable[[_T, _T], _T],
    intersection: Callable[[_T, _T], _T],
) -> _T:
    """Fold ``expr`` bottom-up: ``leaf`` maps each principal set and role
    reference, ``union`` and ``intersection`` combine the results of a
    node's two sides.  An explicit stack replaces recursion, so any nesting
    depth folds.  Raises ``TypeError`` on a node of unknown type."""
    done: list[_T] = []
    todo: list[tuple[PositiveRoleExpr, bool]] = [(expr, False)]
    while todo:
        node, sides_done = todo.pop()
        if isinstance(node, (UnionExpr, IntersectionExpr)):
            if sides_done:
                right = done.pop()
                combine = union if isinstance(node, UnionExpr) else intersection
                done.append(combine(done.pop(), right))
            else:
                todo += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, (PrincipalSet, RoleRef)):
            done.append(leaf(node))
        else:
            raise TypeError(f"unknown expression node: {node!r}")
    return done[0]


def _merge(a: set, b: set) -> set:
    """Union of two fresh sets, copying the smaller into the larger, so a
    fold over n leaves copies O(n log n) elements, not O(n^2)."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def roles_of(expr: PositiveRoleExpr) -> frozenset[Role]:
    """The finite set of roles occurring in the expression."""
    return frozenset(
        fold_expr(expr, lambda e: {e.role} if isinstance(e, RoleRef) else set(), _merge, _merge)
    )


def principals_of_expr(expr: PositiveRoleExpr) -> frozenset[Principal]:
    """Every principal occurring in the expression, role owners included."""

    def leaf(e: Union[PrincipalSet, RoleRef]) -> set[Principal]:
        return {e.role.owner} if isinstance(e, RoleRef) else set(e.members)

    return frozenset(fold_expr(expr, leaf, _merge, _merge))


@dataclass(frozen=True, slots=True)
class Constraint:
    """Containment requirement ``lhs <= rhs`` registered by ``owner``."""

    owner: Principal
    lhs: PositiveRoleExpr
    rhs: PositiveRoleExpr
    id: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("constraint id must be non-empty")
        mentioned = (
            {self.owner} | principals_of_expr(self.lhs) | principals_of_expr(self.rhs)
        )
        if any(p.is_reserved for p in mentioned):
            raise ValueError(
                f"reserved principal {RESERVED_PRINCIPAL} cannot occur in a constraint"
            )


class _EveryRole:
    """The container of every role not owned by ``TOP``: the symbolic ``*``
    of a monitor.  Compares equal only to itself; copy and pickle return
    the module's one instance."""

    __slots__ = ()

    def __contains__(self, role: object) -> bool:
        return isinstance(role, Role) and not role.owner.is_reserved

    def __reduce__(self) -> str:
        return "EVERY_ROLE"

    def __repr__(self) -> str:
        return "EVERY_ROLE"


#: Every role, including roles of principals that appear later.
EVERY_ROLE = _EveryRole()


def _frozen(roles: Container[Role]) -> Container[Role]:
    """A set of trusted or admissible roles as a hashable value:
    :data:`EVERY_ROLE` itself, any finite set as a ``frozenset``."""
    return roles if roles is EVERY_ROLE else frozenset(roles)


@dataclass(frozen=True, slots=True)
class RoleMonitor:
    """Trust declaration: which roles report growth, which report shrinkage.

    Each side is a finite set of roles or :data:`EVERY_ROLE`, the ``*`` of
    a monitor document, which trusts every role of every state, including
    roles of principals that appear later.  A role is trusted exactly when
    it is ``in`` its side.  The two sides may overlap and either may be
    empty.
    """

    growth_trusted: Container[Role] = frozenset()
    shrink_trusted: Container[Role] = frozenset()

    def __post_init__(self) -> None:
        for side in ("growth_trusted", "shrink_trusted"):
            roles = _frozen(getattr(self, side))
            object.__setattr__(self, side, roles)
            if roles is not EVERY_ROLE and any(role.owner.is_reserved for role in roles):
                raise ValueError(
                    f"reserved principal {RESERVED_PRINCIPAL} cannot own a monitored role"
                )


class ChangeKind(Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True, slots=True)
class ChangeEvent:
    """One discrete policy change: a statement added or removed."""

    kind: ChangeKind
    statement: Statement

    def __str__(self) -> str:
        sign = "+" if self.kind is ChangeKind.ADD else "-"
        return f"{sign} {self.statement}"


_unchecked_event = _unchecked(ChangeEvent)
