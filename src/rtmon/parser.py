"""Parsing and serialization of the textual policy formats.

Four line-oriented formats share one lexical layer: lines end at LF, CR LF
or CR, ``#`` starts a comment, a line of spaces and tabs only is blank, and
tokens (identifiers ``[A-Za-z_][A-Za-z0-9_]*``, ``<-``, ``<=``, single
characters) are separated by spaces and tabs only.  The grammars:

* policy document -- one statement per line: ``Head <- Body`` with Body one
  of ``D`` | ``B.r1`` | ``A.r1.r2`` | ``B1.r1 & B2.r2 [& ...]``
* constraint line -- ``constraint <id> owner <Principal>: <expr> <= <expr>``
  where expressions combine ``{A, B}`` literals and roles with ``&`` and
  ``|`` (``&`` binds tighter) and parentheses
* monitor document -- optional ``growth-trusted:`` / ``shrink-trusted:``
  sections, each a comma-separated role list or ``*`` for every role
* change log -- one event per line: ``+ <statement>`` or ``- <statement>``

A statement line, signed or not, is matched whole by one compiled pattern
and built from the identifiers it captures.  Tokens serve constraints,
expressions and monitors, and the diagnosis of a statement line that the
pattern rejects or whose statement is refused (``TOP`` in a principal
position, a linked role of another owner): that walk finds the error and
builds nothing.

Every parse either returns a value or raises :class:`ParseError` with a
position; serializers are exact inverses (``parse(serialize(x)) == x``).
Within one parse call each principal, role name, role, member,
inclusion and linked body, and statement is one object (a statement per
sequence of identifiers, so a reordered intersection keeps its written
order), built once from one table of the call by the model's unchecked
constructors, since the grammar has made their checks; so is each event.
The table keeps a statement by its identifiers in a policy and in a
change log alike.  A change-log line repeated verbatim is matched once
per call, though each line still gets an event of its own.  Separate
calls share nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterator, NoReturn

from .model import (
    EVERY_ROLE,
    ChangeEvent,
    ChangeKind,
    Constraint,
    IntersectionExpr,
    IntersectionInclusion,
    PolicyState,
    PositiveRoleExpr,
    Principal,
    PrincipalSet,
    RESERVED_PRINCIPAL,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    Statement,
    StatementBody,
    UnionExpr,
    _IDENT,
    _checked_state,
    _unchecked_event,
    _unchecked_inclusion,
    _unchecked_linking,
    _unchecked_member,
    _unchecked_principal,
    _unchecked_role,
    _unchecked_role_name,
    _unchecked_statement,
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
]

# One token: an identifier, an arrow, or any other single character.  Only
# spaces and tabs separate tokens; any other character, whitespace or not,
# is a token of its own that no grammar accepts.
_TOKEN = re.compile(rf"[ \t]*({_IDENT.pattern}|<[-=]|[^ \t])")
# A whole statement line, the same language as the token grammar.  Groups:
# the sign, the head's owner and name, the body's first, second and third
# identifier (``D``, ``B.r1``, ``A.r1.r2``), and, in an intersection, the
# text of the parts after the first, ``& B2.r2 [& ...]``.
_STATEMENT = re.compile(
    r"""
    [ \t]* (?: ([+-]) [ \t]* )?
    (ID) [ \t]* \. [ \t]* (ID) [ \t]* <- [ \t]*
    (ID) (?: [ \t]* \. [ \t]* (ID)
             (?: [ \t]* \. [ \t]* (ID)
               | ( (?: [ \t]* & [ \t]* ID [ \t]* \. [ \t]* ID )+ ) )? )?
    [ \t]*
    """.replace("ID", _IDENT.pattern),
    re.VERBOSE,
)
_IDENT_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_SECTION = re.compile(r"[ \t]*(growth-trusted|shrink-trusted)[ \t]*:")


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


# Each parse call builds its values from one table, a dict keyed by source
# text: a principal by its name, a role name by its name in a 1-tuple, a
# role by its owner and name, a member, inclusion or linked body by the
# three identifiers after the arrow (``None`` where a shorter body ends),
# and a statement by all its identifiers.  No two kinds share a key length.


def _principal(made: dict, name: str) -> Principal:
    got = made.get(name)
    if got is None:
        got = made[name] = _unchecked_principal(name)
    return got


def _role_name(made: dict, name: str) -> RoleName:
    got = made.get((name,))
    if got is None:
        got = made[name,] = _unchecked_role_name(name)
    return got


def _role_of(made: dict, owner: str, name: str) -> Role:
    key = (owner, name)
    got = made.get(key)
    if got is None:
        got = made[key] = _unchecked_role(_principal(made, owner), _role_name(made, name))
    return got


class _Tokens:
    """The tokens of one line, with a cursor ``i``.

    The list ends with ``""``, which no grammar accepts, so reading stops
    there.  Token columns are recovered only to report an error.
    """

    __slots__ = ("code", "line", "toks", "i", "made")

    def __init__(self, code: str, line: int, made: dict):
        self.code, self.line, self.made = code, line, made
        self.toks = _TOKEN.findall(code)
        self.toks.append("")
        self.i = 0

    def fail(self, message: str, at: int | None = None, length: int = 1,
             kind: ParseErrorKind = ParseErrorKind.SYNTAX, offset: int = 0) -> NoReturn:
        """Raise at token ``at`` (the current one by default), ``offset``
        characters into it; the end of the line is its last column + 1."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.code)]
        starts.append(len(self.code))
        pos = starts[self.i if at is None else at] + offset
        raise ParseError(SourceSpan(self.line, pos + 1, length), message, kind)

    def take(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def need(self, tok: str) -> None:
        if not self.take(tok):
            self.fail(f"expected '{tok}'")

    def name(self, what: str) -> str:
        tok = self.toks[self.i]
        if tok[:1] not in _IDENT_START:
            self.fail(f"expected {what}")
        self.i += 1
        return tok

    def unreserved(self, at: int) -> str:
        """Token ``at``, a principal name, which must not be ``TOP``."""
        tok = self.toks[at]
        if tok == RESERVED_PRINCIPAL:
            self.fail(
                f"'{RESERVED_PRINCIPAL}' is reserved and cannot be used as a principal",
                at, len(tok), ParseErrorKind.RESERVED_PRINCIPAL,
            )
        return tok

    def principal_name(self, what: str = "principal name") -> str:
        self.name(what)
        return self.unreserved(self.i - 1)

    def done(self) -> None:
        if self.toks[self.i]:
            self.fail("unexpected trailing input")


def _role(tk: _Tokens, what: str = "principal name") -> Role:
    owner = tk.principal_name(what)
    tk.need(".")
    return _role_of(tk.made, owner, tk.name("role name"))


def _dotted(tk: _Tokens) -> list[int]:
    """Token indexes of an identifier chain ``a``, ``a.b``, or ``a.b.c``."""
    parts = [tk.i]
    tk.name("principal name")
    while tk.take("."):
        parts.append(tk.i)
        last = tk.name("role name")
        if len(parts) > 3:
            tk.fail("too many role components (at most A.r1.r2)", tk.i - 1, offset=len(last))
    return parts


def _read(code: str, line: int, made: dict, signed: bool) -> tuple[str | None, Statement]:
    """The sign (``None`` unless ``signed``) and the statement of one line,
    one statement object per sequence of identifiers, kept in ``made`` by
    them.  A line that the pattern rejects, or whose statement is refused,
    is diagnosed on its tokens."""
    m = _STATEMENT.fullmatch(code)
    if m is not None:
        sign, owner, name, source, first, second, more = m.groups()
        if (sign is not None) is signed:
            # Five slots, ``None`` where a shorter body ends; an
            # intersection lists the identifiers of every part instead,
            # split off without a second match.
            if more is None:
                key: tuple[str | None, ...] = (owner, name, source, first, second)
            else:
                parts = more.replace("&", " ").replace(".", " ").split()
                key = (owner, name, source, first, *parts)
            # A change log may repeat a statement, spaced or signed
            # otherwise; in a policy a repeat is a duplicate, which
            # ``parse_policy`` reports.
            stmt = made.get(key)
            if stmt is None:
                stmt = made[key] = _built(made, key)
            if stmt is not None:
                return sign, stmt
    _diagnose(_Tokens(code, line, made), signed)


def _built(made: dict, key: tuple[str | None, ...]) -> Statement | None:
    """The statement of ``key``, built of what ``made`` holds, and of what
    it lacks, built and kept there; ``None`` when a principal position
    holds ``TOP`` or a linked role starts from a role of another owner."""
    owner, name, source, first, second = key[:5]
    if len(key) > 5:
        # The head's owner and each part's owner.
        if RESERVED_PRINCIPAL in key[::2]:
            return None
        body: StatementBody = IntersectionInclusion(
            tuple(_role_of(made, *part) for part in zip(key[2::2], key[3::2]))
        )
    elif RESERVED_PRINCIPAL in (owner, source) or (second is not None and source != owner):
        return None
    else:
        body_key = key[2:]
        body = made.get(body_key)
        if body is None:
            if first is None:
                body = _unchecked_member(_principal(made, source))
            elif second is None:
                body = _unchecked_inclusion(_role_of(made, source, first))
            else:
                body = _unchecked_linking(_role_of(made, source, first), _role_name(made, second))
            made[body_key] = body
    return _unchecked_statement(_role_of(made, owner, name), body)


def _diagnose(tk: _Tokens, signed: bool) -> NoReturn:
    """Raise the first error of a statement line, as the token grammar
    finds it.  Builds nothing."""
    if signed and not (tk.take("+") or tk.take("-")):
        tk.fail("expected '+' or '-'")
    owner = tk.principal_name()
    tk.need(".")
    tk.name("role name")
    tk.need("<-")
    atoms = [_dotted(tk)]
    while tk.take("&"):
        atoms.append(_dotted(tk))
    tk.done()
    if len(atoms) == 1:
        [parts] = atoms
        source = tk.unreserved(parts[0])
        if len(parts) == 3 and source != owner:
            tk.fail(
                f"linked role must start from a role owned by {owner}",
                parts[0], len(source), ParseErrorKind.LINKED_ROLE_OWNER_MISMATCH,
            )
    else:
        for parts in atoms:
            if len(parts) != 2:
                tk.fail("intersection parts must be roles (B.r)", parts[0], len(tk.toks[parts[0]]))
            tk.unreserved(parts[0])
    raise AssertionError(f"line {tk.line}: the statement pattern rejected a legal statement")


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The number and the code (the text before any ``#``) of each line
    that holds more than a comment.  Lines end at LF, CR LF or CR only; a
    line of spaces and tabs only is blank.  A document without CR or
    without ``#`` skips the rewrite or the split that it would need."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for line_no, code in enumerate(lines, 1):
        if code.strip(" \t"):
            yield line_no, code


def _whole_line(line: int, code: str) -> SourceSpan:
    return SourceSpan(line, 1, max(len(code.rstrip()), 1))


def _one_line(text: str) -> str:
    """The code of a line given on its own.  Like a document line, it may
    carry a comment and end in one line terminator: LF, CR LF or CR."""
    return text.removesuffix("\n").removesuffix("\r").split("#", 1)[0]


def parse_statement(text: str) -> Statement:
    """Parse one statement line (comments allowed)."""
    return _read(_one_line(text), 1, {}, False)[1]


def parse_policy(text: str) -> PolicyState:
    """Parse a policy document; duplicate statements are an error."""
    made: dict = {}
    seen: dict[Statement, int] = {}
    for line, code in _lines(text):
        stmt = _read(code, line, made, False)[1]
        first = seen.setdefault(stmt, line)
        if first != line:
            raise ParseError(
                _whole_line(line, code),
                f"duplicate statement (first occurrence at line {first})",
                ParseErrorKind.DUPLICATE_STATEMENT,
            )
    # The grammar has rejected ``TOP``: skip the constructor's rescan.
    return _checked_state(frozenset(seen))


def _expr(tk: _Tokens) -> PositiveRoleExpr:
    """``expr := term ('|' term)*``, ``term := atom ('&' atom)*`` and
    ``atom := '(' expr ')' | set | role``, read without recursion: each
    open parenthesis pushes the union and the term read so far around it,
    so any nesting depth parses."""
    enclosing: list[tuple[PositiveRoleExpr | None, PositiveRoleExpr | None]] = []
    union: PositiveRoleExpr | None = None
    term: PositiveRoleExpr | None = None
    while True:
        if tk.take("("):
            enclosing.append((union, term))
            union = term = None
            continue
        node = _operand(tk)
        while True:
            term = node if term is None else IntersectionExpr(term, node)
            if tk.take("&"):
                break
            union = term if union is None else UnionExpr(union, term)
            term = None
            if tk.take("|"):
                break
            if not enclosing:
                return union
            tk.need(")")
            node = union
            union, term = enclosing.pop()


def _operand(tk: _Tokens) -> PositiveRoleExpr:
    """A principal set literal or a role reference."""
    if not tk.take("{"):
        return RoleRef(_role(tk, "role or principal set"))
    members: list[Principal] = []
    if tk.take("}"):
        return PrincipalSet(frozenset())
    while True:
        members.append(_principal(tk.made, tk.principal_name()))
        if tk.take("}"):
            return PrincipalSet(frozenset(members))
        tk.need(",")


def parse_expr(text: str) -> PositiveRoleExpr:
    """Parse a positive role expression on its own (used by query)."""
    tk = _Tokens(_one_line(text), 1, {})
    node = _expr(tk)
    tk.done()
    return node


def parse_constraint(text: str) -> Constraint:
    """Parse one constraint line."""
    return _constraint(_Tokens(_one_line(text), 1, {}))


def _keyword(tk: _Tokens, word: str) -> None:
    kw = tk.name(f"keyword '{word}'")
    if kw != word:
        tk.fail(f"expected keyword '{word}'", tk.i - 1, len(kw))


def _constraint(tk: _Tokens) -> Constraint:
    _keyword(tk, "constraint")
    cid = tk.name("constraint id")
    _keyword(tk, "owner")
    owner = _principal(tk.made, tk.principal_name())
    tk.need(":")
    lhs = _expr(tk)
    tk.need("<=")
    rhs = _expr(tk)
    tk.done()
    return Constraint(owner, lhs, rhs, cid)


def parse_constraints(text: str) -> list[Constraint]:
    """Parse a constraints document, one constraint per line."""
    made: dict = {}
    out: list[Constraint] = []
    seen: dict[str, int] = {}
    for line, code in _lines(text):
        q = _constraint(_Tokens(code, line, made))
        if q.id in seen:
            raise ParseError(
                _whole_line(line, code),
                f"duplicate constraint id '{q.id}' (first at line {seen[q.id]})",
                ParseErrorKind.DUPLICATE_STATEMENT,
            )
        seen[q.id] = line
        out.append(q)
    return out


def parse_monitor(text: str) -> RoleMonitor:
    """Parse a role-monitor document.  A ``*`` section becomes
    :data:`~rtmon.model.EVERY_ROLE`, which stays symbolic: it is never
    expanded against a state, so it covers roles of principals that appear
    later."""
    made: dict = {}
    sections: dict[str, Container[Role]] = {}
    for line, code in _lines(text):
        m = _SECTION.match(code)
        if not m:
            raise ParseError(
                _whole_line(line, code), "expected 'growth-trusted:' or 'shrink-trusted:'"
            )
        tk = _Tokens(code, line, made)
        tk.i = len(_TOKEN.findall(code, 0, m.end()))  # the tokens after the colon
        value: Container[Role]
        if tk.take("*"):
            tk.done()
            value = EVERY_ROLE
        elif not tk.toks[tk.i]:
            value = frozenset()
        else:
            roles = [_role(tk)]
            while tk.take(","):
                roles.append(_role(tk))
            tk.done()
            value = frozenset(roles)
        section = m.group(1)
        if section in sections:
            raise ParseError(SourceSpan(line, 1, 1), f"duplicate {section} section")
        sections[section] = value
    return RoleMonitor(
        growth_trusted=sections.get("growth-trusted", frozenset()),
        shrink_trusted=sections.get("shrink-trusted", frozenset()),
    )


def parse_changelog(text: str) -> list[ChangeEvent]:
    """Parse a change log into an ordered event list, one event per line.
    A line repeated verbatim is matched once per call."""
    made: dict = {}
    kinds = {"+": ChangeKind.ADD, "-": ChangeKind.REMOVE}
    # Each distinct line's code, with the kind and statement it gives.
    parsed: dict[str, tuple[ChangeKind, Statement]] = {}
    events: list[ChangeEvent] = []
    for line, code in _lines(text):
        got = parsed.get(code)
        if got is None:
            sign, stmt = _read(code, line, made, True)
            got = parsed[code] = (kinds[sign], stmt)
        events.append(_unchecked_event(*got))
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
