"""Parsing and serialization of the textual policy formats.

Four line-oriented formats share one lexical layer (``#`` starts a comment,
blank lines are ignored, identifiers match ``[A-Za-z_][A-Za-z0-9_]*``):

* policy document -- one statement per line: ``Head <- Body`` with Body one
  of ``D`` | ``B.r1`` | ``A.r1.r2`` | ``B1.r1 & B2.r2 [& ...]``
* constraint line -- ``constraint <id> owner <Principal>: <expr> <= <expr>``
  where expressions combine ``{A, B}`` literals and roles with ``&`` and
  ``|`` (``&`` binds tighter) and parentheses
* monitor document -- optional ``growth-trusted:`` / ``shrink-trusted:``
  sections, each a comma-separated role list or ``*`` for every role
* change log -- one event per line: ``+ <statement>`` or ``- <statement>``

Every parse either returns a value or raises :class:`ParseError` with a
position; serializers are exact inverses (``parse(serialize(x)) == x``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Container

from .model import (
    EVERY_ROLE,
    ChangeEvent,
    ChangeKind,
    Constraint,
    IntersectionExpr,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    PrincipalSet,
    RESERVED_PRINCIPAL,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
    fold_expr,
)

__all__ = [
    "SourceSpan",
    "ParseErrorKind",
    "ParseError",
    "parse_statement",
    "parse_policy",
    "parse_constraint",
    "parse_constraints",
    "parse_expr",
    "parse_monitor",
    "parse_changelog",
    "serialize_statement",
    "serialize_policy",
    "serialize_expr",
    "serialize_constraint",
    "serialize_monitor",
    "serialize_changelog",
    "lint_conventions",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SECTION = re.compile(r"\s*(growth-trusted|shrink-trusted)\s*:")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token inside the originating document."""

    line: int
    column: int
    length: int = 1


class ParseErrorKind(Enum):
    SYNTAX = "syntax"
    DUPLICATE_STATEMENT = "duplicate-statement"
    LINKED_ROLE_OWNER_MISMATCH = "linked-role-owner-mismatch"
    RESERVED_PRINCIPAL = "reserved-principal"


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, kind: ParseErrorKind = ParseErrorKind.SYNTAX):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.span = span
        self.message = message
        self.kind = kind


class _Scanner:
    """Single-line cursor with whitespace skipping and span reporting.

    ``names`` is shared by the scanners of one parse call, so every
    occurrence of a principal, role name or role in that call is one
    object.
    """

    def __init__(self, text: str, line: int = 1, names: dict | None = None):
        self.text = text
        self.line = line
        self.pos = 0
        self.names = {} if names is None else names

    def make(self, cls, *args):
        """The one ``cls(*args)`` of this parse call."""
        key = (cls, *args)
        obj = self.names.get(key)
        if obj is None:
            obj = self.names[key] = cls(*args)
        return obj

    def role(self, owner: str, name: str) -> Role:
        return self.make(Role, self.make(Principal, owner), self.make(RoleName, name))

    def fail(self, message: str, start: int | None = None, length: int = 1,
             kind: ParseErrorKind = ParseErrorKind.SYNTAX) -> None:
        pos = self.pos if start is None else start
        raise ParseError(SourceSpan(self.line, pos + 1, max(length, 1)), message, kind)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.try_literal(lit):
            self.fail(f"expected '{lit}'")

    def ident(self, what: str = "identifier") -> tuple[str, int]:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(), m.start()

    def end(self) -> None:
        if not self.at_end():
            self.fail("unexpected trailing input")


def _principal(sc: _Scanner, what: str = "principal name") -> Principal:
    name, start = sc.ident(what)
    if name == RESERVED_PRINCIPAL:
        sc.fail(
            f"'{RESERVED_PRINCIPAL}' is reserved and cannot be used as a principal",
            start=start,
            length=len(name),
            kind=ParseErrorKind.RESERVED_PRINCIPAL,
        )
    return sc.make(Principal, name)


def _role(sc: _Scanner) -> Role:
    owner = _principal(sc)
    sc.expect(".")
    name, _ = sc.ident("role name")
    return sc.make(Role, owner, sc.make(RoleName, name))


def _dotted(sc: _Scanner) -> list[tuple[str, int]]:
    """An identifier chain ``a``, ``a.b``, or ``a.b.c``."""
    parts = [sc.ident("principal name")]
    while sc.try_literal("."):
        parts.append(sc.ident("role name"))
        if len(parts) > 3:
            sc.fail("too many role components (at most A.r1.r2)")
    return parts


def _reserved_check(sc: _Scanner, name: str, start: int) -> None:
    if name == RESERVED_PRINCIPAL:
        sc.fail(
            f"'{RESERVED_PRINCIPAL}' is reserved and cannot be used as a principal",
            start=start,
            length=len(name),
            kind=ParseErrorKind.RESERVED_PRINCIPAL,
        )


def _statement(sc: _Scanner) -> Statement:
    owner_name, owner_start = sc.ident("principal name")
    _reserved_check(sc, owner_name, owner_start)
    sc.expect(".")
    head_name, _ = sc.ident("role name")
    sc.expect("<-")

    atoms = [_dotted(sc)]
    while sc.try_literal("&"):
        atoms.append(_dotted(sc))
    sc.end()

    head = sc.role(owner_name, head_name)

    def as_role(parts: list[tuple[str, int]]) -> Role:
        (oname, ostart), (rname, _) = parts
        _reserved_check(sc, oname, ostart)
        return sc.role(oname, rname)

    if len(atoms) == 1:
        parts = atoms[0]
        if len(parts) == 1:
            name, start = parts[0]
            _reserved_check(sc, name, start)
            return Statement(head, SimpleMember(sc.make(Principal, name)))
        if len(parts) == 2:
            return Statement(head, SimpleInclusion(as_role(parts)))
        (oname, ostart), (n1, _), (n2, _) = parts
        _reserved_check(sc, oname, ostart)
        if oname != owner_name:
            sc.fail(
                f"linked role must start from a role owned by {owner_name}",
                start=ostart,
                length=len(oname),
                kind=ParseErrorKind.LINKED_ROLE_OWNER_MISMATCH,
            )
        return Statement(
            head, LinkingInclusion(sc.role(oname, n1), sc.make(RoleName, n2))
        )

    roles = []
    for parts in atoms:
        if len(parts) != 2:
            sc.fail(
                "intersection parts must be roles (B.r)",
                start=parts[0][1],
                length=len(parts[0][0]),
            )
        roles.append(as_role(parts))
    return Statement(head, IntersectionInclusion(tuple(roles)))


def _code_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        if code.strip():
            yield line_no, code


def parse_statement(text: str, line: int = 1) -> Statement:
    """Parse one statement line (comments allowed)."""
    code = text.split("#", 1)[0]
    return _statement(_Scanner(code, line))


def parse_policy(text: str) -> PolicyState:
    """Parse a policy document; duplicate statements are an error."""
    seen: dict[Statement, int] = {}
    names: dict = {}
    for line_no, code in _code_lines(text):
        stmt = _statement(_Scanner(code, line_no, names))
        if stmt in seen:
            raise ParseError(
                SourceSpan(line_no, 1, max(len(code.rstrip()), 1)),
                f"duplicate statement (first occurrence at line {seen[stmt]})",
                ParseErrorKind.DUPLICATE_STATEMENT,
            )
        seen[stmt] = line_no
    return PolicyState(frozenset(seen))


def _expr(sc: _Scanner) -> PositiveRoleExpr:
    """``expr := term ('|' term)*``, ``term := atom ('&' atom)*`` and
    ``atom := '(' expr ')' | set | role``, read without recursion: each
    open parenthesis pushes the union and the term read so far around it,
    so any nesting depth parses."""
    enclosing: list[tuple[PositiveRoleExpr | None, PositiveRoleExpr | None]] = []
    union: PositiveRoleExpr | None = None
    term: PositiveRoleExpr | None = None
    while True:
        if sc.try_literal("("):
            enclosing.append((union, term))
            union = term = None
            continue
        node = _operand(sc)
        while True:
            term = node if term is None else IntersectionExpr(term, node)
            if sc.try_literal("&"):
                break
            union = term if union is None else UnionExpr(union, term)
            term = None
            if sc.try_literal("|"):
                break
            if not enclosing:
                return union
            sc.expect(")")
            node = union
            union, term = enclosing.pop()


def _operand(sc: _Scanner) -> PositiveRoleExpr:
    """A principal set literal or a role reference."""
    if sc.try_literal("{"):
        members: list[Principal] = []
        if sc.try_literal("}"):
            return PrincipalSet(frozenset())
        while True:
            members.append(_principal(sc))
            if sc.try_literal("}"):
                return PrincipalSet(frozenset(members))
            sc.expect(",")
    owner = _principal(sc, "role or principal set")
    sc.expect(".")
    name, _ = sc.ident("role name")
    return RoleRef(sc.make(Role, owner, sc.make(RoleName, name)))


def parse_expr(text: str, line: int = 1) -> PositiveRoleExpr:
    """Parse a positive role expression on its own (used by query)."""
    sc = _Scanner(text.split("#", 1)[0], line)
    node = _expr(sc)
    sc.end()
    return node


def parse_constraint(text: str, line: int = 1) -> Constraint:
    """Parse one constraint line."""
    return _constraint(_Scanner(text.split("#", 1)[0], line))


def _constraint(sc: _Scanner) -> Constraint:
    kw, start = sc.ident("keyword 'constraint'")
    if kw != "constraint":
        sc.fail("expected keyword 'constraint'", start=start, length=len(kw))
    cid, _ = sc.ident("constraint id")
    kw, start = sc.ident("keyword 'owner'")
    if kw != "owner":
        sc.fail("expected keyword 'owner'", start=start, length=len(kw))
    owner = _principal(sc)
    sc.expect(":")
    lhs = _expr(sc)
    sc.expect("<=")
    rhs = _expr(sc)
    sc.end()
    return Constraint(owner, lhs, rhs, cid)


def parse_constraints(text: str) -> list[Constraint]:
    """Parse a constraints document, one constraint per line."""
    out: list[Constraint] = []
    seen: dict[str, int] = {}
    names: dict = {}
    for line_no, code in _code_lines(text):
        q = _constraint(_Scanner(code, line_no, names))
        if q.id in seen:
            raise ParseError(
                SourceSpan(line_no, 1, max(len(code.rstrip()), 1)),
                f"duplicate constraint id '{q.id}' (first at line {seen[q.id]})",
                ParseErrorKind.DUPLICATE_STATEMENT,
            )
        seen[q.id] = line_no
        out.append(q)
    return out


def parse_monitor(text: str) -> RoleMonitor:
    """Parse a role-monitor document.  A ``*`` section becomes
    :data:`~rtmon.model.EVERY_ROLE`, which stays symbolic: it is never
    expanded against a state, so it covers roles of principals that appear
    later."""
    sections: dict[str, Container[Role]] = {}
    names: dict = {}
    for line_no, code in _code_lines(text):
        m = _SECTION.match(code)
        if not m:
            raise ParseError(
                SourceSpan(line_no, 1, max(len(code.rstrip()), 1)),
                "expected 'growth-trusted:' or 'shrink-trusted:'",
            )
        sc = _Scanner(code, line_no, names)
        sc.pos = m.end()
        value: Container[Role]
        if sc.try_literal("*"):
            sc.end()
            value = EVERY_ROLE
        elif sc.at_end():
            value = frozenset()
        else:
            roles = [_role(sc)]
            while sc.try_literal(","):
                roles.append(_role(sc))
            sc.end()
            value = frozenset(roles)
        section = m.group(1)
        if section in sections:
            raise ParseError(SourceSpan(line_no, 1, 1), f"duplicate {section} section")
        sections[section] = value
    return RoleMonitor(
        growth_trusted=sections.get("growth-trusted", frozenset()),
        shrink_trusted=sections.get("shrink-trusted", frozenset()),
    )


def parse_changelog(text: str) -> list[ChangeEvent]:
    """Parse a change log into an ordered event list."""
    events: list[ChangeEvent] = []
    names: dict = {}
    for line_no, code in _code_lines(text):
        sc = _Scanner(code, line_no, names)
        if sc.try_literal("+"):
            kind = ChangeKind.ADD
        elif sc.try_literal("-"):
            kind = ChangeKind.REMOVE
        else:
            sc.fail("expected '+' or '-'")
        events.append(ChangeEvent(kind, _statement(sc)))
    return events


def serialize_statement(stmt: Statement) -> str:
    return str(stmt)


def serialize_policy(p: PolicyState) -> str:
    """Statements, one per line, in lexicographic order."""
    return "".join(line + "\n" for line in sorted(str(s) for s in p.statements))


def serialize_expr(expr: PositiveRoleExpr) -> str:
    """Render ``expr`` in the syntax :func:`parse_expr` reads, with only the
    parentheses that precedence and left association need."""

    def join(op: str, prec: int):
        def combine(left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
            text_l = left[0] if left[1] >= prec else f"({left[0]})"
            text_r = right[0] if right[1] > prec else f"({right[0]})"
            return text_l + op + text_r, prec

        return combine

    return fold_expr(expr, lambda e: (str(e), 2), join(" | ", 0), join(" & ", 1))[0]


def serialize_constraint(q: Constraint) -> str:
    return (
        f"constraint {q.id} owner {q.owner.name}: "
        f"{serialize_expr(q.lhs)} <= {serialize_expr(q.rhs)}"
    )


def serialize_monitor(m: RoleMonitor) -> str:
    lines = []
    sections = (("growth-trusted", m.growth_trusted), ("shrink-trusted", m.shrink_trusted))
    for section, roles in sections:
        if roles is EVERY_ROLE:
            lines.append(f"{section}: *")
        elif roles:
            lines.append(f"{section}: " + ", ".join(sorted(str(r) for r in roles)))
    return "".join(line + "\n" for line in lines)


def serialize_changelog(events: list[ChangeEvent]) -> str:
    return "".join(f"{ev}\n" for ev in events)


def lint_conventions(p: PolicyState) -> list[str]:
    """Case-convention warnings (never errors): principals should start
    uppercase, role names lowercase."""
    warnings = []
    for principal in sorted(p.principals, key=str):
        if not principal.name[0].isupper():
            warnings.append(f"principal '{principal.name}' should start with an uppercase letter")
    for name in sorted(p.role_names, key=str):
        if not name.name[0].islower():
            warnings.append(f"role name '{name.name}' should start with a lowercase letter")
    return warnings
