import copy
import dataclasses
import gc
import json
import pickle
import random
import re
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rtmon.model import (
    EVERY_ROLE,
    ChangeEvent,
    ChangeKind,
    IntersectionExpr,
    IntersectionInclusion,
    LinkingInclusion,
    PolicyState,
    PrincipalSet,
    Principal,
    Role,
    RoleMonitor,
    RoleName,
    RoleRef,
    SimpleInclusion,
    SimpleMember,
    Statement,
    UnionExpr,
)
from rtmon import model, parser
from rtmon.parser import (
    ParseError,
    ParseErrorKind,
    SourceSpan,
    parse_changelog,
    parse_constraint,
    parse_constraints,
    parse_monitor,
    parse_expr,
    parse_policy,
    parse_statement,
    serialize_changelog,
    serialize_constraint,
    serialize_expr,
    serialize_monitor,
    serialize_policy,
    serialize_statement,
)

from helpers import (
    HAZMAT_CONSTRAINT_TEXT,
    HAZMAT_POLICY_TEXT,
    hazmat_policy,
    prin,
    role,
    stmt,
)
from randgen import (
    random_constraint,
    random_fan_state,
    random_monitor,
    random_state,
    random_statement_for_state,
)

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


class TestStatements:
    def test_simple_member(self):
        s = parse_statement("ATF.hazmatDB <- Rollins")
        assert s == Statement(role("ATF.hazmatDB"), SimpleMember(prin("Rollins")))

    def test_intersection(self):
        s = parse_statement(
            "Emergency.hazmatPersonnel <- Emergency.responsePersonnel & ATF.hazmatTraining"
        )
        assert isinstance(s.body, IntersectionInclusion)
        assert set(s.body.parts) == {
            role("Emergency.responsePersonnel"), role("ATF.hazmatTraining")
        }
        assert s.body.reads == (role("ATF.hazmatTraining"), role("Emergency.responsePersonnel"))

    def test_linked_role(self):
        s = parse_statement("A.r <- A.r1.r2")
        assert s.body == LinkingInclusion(role("A.r1"), RoleName("r2"))

    def test_linked_role_owner_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_statement("A.r <- B.r1.r2")
        assert err.value.kind is ParseErrorKind.LINKED_ROLE_OWNER_MISMATCH

    def test_comments_and_blanks(self):
        p = parse_policy("# header\n\nA.r <- B  # trailing\n")
        assert p == PolicyState(frozenset({stmt("A.r <- B")}))

    def test_duplicates_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_policy("A.r <- B\nA.r <- B\n")
        assert err.value.kind is ParseErrorKind.DUPLICATE_STATEMENT
        assert err.value.span.line == 2

    def test_reordered_intersection_is_a_duplicate(self):
        with pytest.raises(ParseError) as err:
            parse_policy("A.r <- B.r & C.r\nA.r <- C.r & B.r\n")
        assert err.value.kind is ParseErrorKind.DUPLICATE_STATEMENT

    def test_reserved_principal_rejected(self):
        for text in ("TOP.r <- B", "A.r <- TOP", "A.r <- TOP.r1", "A.r <- B.r & TOP.s"):
            with pytest.raises(ParseError) as err:
                parse_statement(text)
            assert err.value.kind is ParseErrorKind.RESERVED_PRINCIPAL

    # "A.r <- B\n" and "A.r <- B\r" were parse-error golden entries
    # ("unexpected trailing input" at column 9) until a lone line, like a
    # document line, could end in a line terminator.
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", " # note\n", "\t\r\n"])
    def test_lone_lines_accept_one_line_terminator(self, end):
        for text in ("A.r <- B", "A.r <- A.s.t"):
            [in_document] = parse_policy(text + end)
            assert parse_statement(text + end) == in_document == parse_statement(text)
        line = "constraint q owner O: A.r | {B} <= C.s"
        assert parse_constraint(line + end) == parse_constraint(line)
        assert parse_expr("A.r & (B.s | {C})" + end) == parse_expr("A.r & (B.s | {C})")

    @pytest.mark.parametrize("end", ["\n\n", "\r\r", "\n\r", "\r\n\n", "\x0b", "\u2028"])
    def test_lone_lines_reject_a_second_or_other_terminator(self, end):
        for parse, text in (
            (parse_statement, "A.r <- B"),
            (parse_expr, "A.r | B.s"),
            (parse_constraint, "constraint q owner O: A.r <= B.s"),
        ):
            with pytest.raises(ParseError) as err:
                parse(text + end)
            assert err.value.span.column == len(text) + 1
            assert err.value.message == "unexpected trailing input"

    def test_error_spans_point_into_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_policy("A.r <- B\nA.r <-\n")
        assert err.value.span.line == 2
        assert err.value.span.column >= 7


# One line of each document format, a second one, and the format's parser.
_DOCUMENTS = {
    "policy": (parse_policy, "A.r <- B", "A.s <- C.t & D.u"),
    "constraints": (
        parse_constraints, "constraint a owner O: A.r <= B.s", "constraint b owner O: {} <= {}"
    ),
    "monitor": (parse_monitor, "growth-trusted: A.r", "shrink-trusted: *"),
    "changelog": (parse_changelog, "+ A.r <- B", "- A.s <- A.t.u"),
}


class TestLineEnds:
    @pytest.mark.parametrize("fmt", _DOCUMENTS)
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_at_lf_crlf_and_cr(self, fmt, end):
        parse, first, second = _DOCUMENTS[fmt]
        assert parse(first + end + second + end) == parse(first + "\n" + second + "\n")
        with pytest.raises(ParseError) as err:
            parse(first + end + end + second + end + "!" + end)
        assert err.value.span.line == 4

    # Only LF, CR LF and CR end a line.  The other line boundaries that
    # ``str.splitlines`` knows are characters inside it, in a document as in
    # a lone line.
    @pytest.mark.parametrize("fmt", _DOCUMENTS)
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_other_line_separators_are_syntax_errors(self, fmt, sep):
        parse, first, second = _DOCUMENTS[fmt]
        with pytest.raises(ParseError) as err:
            parse(first + sep + second + "\n")
        assert (err.value.span.line, err.value.span.column) == (1, len(first) + 1)
        assert err.value.message == "unexpected trailing input"

    @pytest.mark.parametrize("fmt", _DOCUMENTS)
    def test_lines_of_spaces_tabs_and_comments_are_blank(self, fmt):
        parse, first, second = _DOCUMENTS[fmt]
        padded = first + "\n \t\n\t# note\n\n" + second + "  \t\n \n"
        assert parse(padded) == parse(first + "\n" + second + "\n")

    # Only spaces and tabs make a line blank; other whitespace, which
    # ``str.strip`` would remove, is a syntax error like any other character.
    @pytest.mark.parametrize("fmt", _DOCUMENTS)
    @pytest.mark.parametrize("blank", ["\xa0", " \xa0\t", "\u3000", "\x0b"])
    def test_other_whitespace_is_not_blank(self, fmt, blank):
        parse, first, second = _DOCUMENTS[fmt]
        with pytest.raises(ParseError) as err:
            parse(first + "\n" + blank + "\n" + second + "\n")
        assert err.value.span.line == 2
        assert err.value.kind is ParseErrorKind.SYNTAX


    # Tokens are separated by spaces and tabs only, so other whitespace
    # before a line's first token, or before a monitor section's colon, is
    # a syntax error too.
    @pytest.mark.parametrize("fmt", _DOCUMENTS)
    @pytest.mark.parametrize("space", ["\xa0", "\u3000", "\x0b", "\x0c"])
    def test_other_whitespace_does_not_separate_tokens(self, fmt, space):
        parse, first, second = _DOCUMENTS[fmt]
        texts = [
            (space + first + "\n" + second + "\n", 1),
            (first + "\n" + space + second + "\n", 2),
        ]
        if fmt == "monitor":
            texts.append((first + "\n" + second.replace(":", space + ":") + "\n", 2))
        for text, line in texts:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.span.line == line
            assert err.value.kind is ParseErrorKind.SYNTAX


def _token_statement(code: str, signed: bool):
    """Reference reader of one statement line: its sign and statement read
    off the tokenizer's tokens with plain string splits, or ``None`` where
    the token grammar rejects the line.  Builds fresh, unshared values."""
    toks = parser._TOKEN.findall(code)
    sign = None
    if signed:
        if toks[:1] not in (["+"], ["-"]):
            return None
        sign = toks.pop(0)
    head, body = toks[:4], toks[4:]
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch
    if len(head) < 4 or head[1::2] != [".", "<-"] or not (ident(head[0]) and ident(head[2])):
        return None
    if len(body) % 2 == 0 or not all(map(ident, body[0::2])) or not set(body[1::2]) <= {".", "&"}:
        return None
    atoms = [atom.split(".") for atom in "".join(body).split("&")]
    owner = head[0]
    if "TOP" in (owner, *(atom[0] for atom in atoms)):
        return None

    def role_of(pair):
        return Role(Principal(pair[0]), RoleName(pair[1]))

    if len(atoms) > 1:
        if any(len(atom) != 2 for atom in atoms):
            return None
        stmt_body = IntersectionInclusion(tuple(map(role_of, atoms)))
    elif len(atoms[0]) == 1:
        stmt_body = SimpleMember(Principal(atoms[0][0]))
    elif len(atoms[0]) == 2:
        stmt_body = SimpleInclusion(role_of(atoms[0]))
    elif len(atoms[0]) == 3 and atoms[0][0] == owner:
        stmt_body = LinkingInclusion(role_of(atoms[0]), RoleName(atoms[0][2]))
    else:
        return None
    return sign, Statement(role_of(head[::2]), stmt_body)


def _respaced(rng: random.Random, line: str) -> str:
    """``line`` with random spaces and tabs around its tokens and, at
    times, a comment."""
    gaps = ["", "", " ", "\t", "  ", " \t "]
    toks = parser._TOKEN.findall(line.split("#", 1)[0])
    text = rng.choice(gaps) + "".join(tok + rng.choice(gaps) for tok in toks)
    return text + rng.choice(["", "", " # note", "\t#& A.r <- B", "#"])


def _as_parsed(code: str, signed: bool):
    """What the parser makes of one line, as ``_token_statement`` does, or
    ``None`` where it raises."""
    try:
        if signed:
            [ev] = parse_changelog(code)
            return ("+" if ev.kind is ChangeKind.ADD else "-"), ev.statement
        return None, parse_statement(code)
    except ParseError:
        return None


def _same_statement(got: Statement, want: Statement) -> bool:
    """Equal, with the same body type and parts in the same written order."""
    return got == want and type(got.body) is type(want.body) and str(got) == str(want)


class TestStatementPattern:
    """The full-line pattern against the token grammar it replaces."""

    def test_fixture_lines_read_as_the_token_grammar_reads_them(self):
        rng = random.Random(1212)
        checked = 0
        for path in sorted(FIXTURES.iterdir()):
            signed = path.suffix == ".changes"
            for line in path.read_text(encoding="utf-8").splitlines():
                for text in (line, _respaced(rng, line), _respaced(rng, line)):
                    code = text.split("#", 1)[0]
                    if not code.strip(" \t"):
                        continue
                    want, got = _token_statement(code, signed), _as_parsed(text, signed)
                    assert (got is None) == (want is None), text
                    if want is not None:
                        assert got[0] == want[0] and _same_statement(got[1], want[1]), text
                        checked += 1
        assert checked >= 60

    def test_random_policies_and_logs_read_as_the_token_grammar_reads_them(self):
        rng = random.Random(1213)
        for n in range(300):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, 4, 2, 12)
            texts = sorted(str(s) for s in p)
            # Each intersection also in another written order: equal, but
            # its own object.
            for s in p:
                if isinstance(s.body, IntersectionInclusion):
                    parts = list(s.body.parts)
                    rng.shuffle(parts)
                    texts.append(str(Statement(s.head, IntersectionInclusion(tuple(parts)))))
            end = rng.choice(["\n", "\r\n", "\r\n", "\r"])
            lines = [rng.choice("+-") + " " + rng.choice(texts) for _ in range(3 * len(texts))]
            written = [_respaced(rng, line) for line in lines]
            padding = ["", " \t", "# comment"]
            document = "".join(
                text + end + (rng.choice(padding) + end if rng.random() < 0.2 else "")
                for text in written
            )
            events = parse_changelog(document)
            assert len(events) == len(written)
            by_text: dict[str, Statement] = {}
            for ev, text in zip(events, written):
                sign, want = _token_statement(text.split("#", 1)[0], True)
                assert ev.kind is (ChangeKind.ADD if sign == "+" else ChangeKind.REMOVE)
                assert _same_statement(ev.statement, want), text
                assert ev.statement is by_text.setdefault(str(want), ev.statement), text
            assert len({id(s) for s in by_text.values()}) == len(by_text)

            policy = "".join(_respaced(rng, line) + end for line in sorted(str(s) for s in p))
            assert parse_policy(policy) == p
            for line in policy.split(end):
                if line:
                    _, want = _token_statement(line.split("#", 1)[0], False)
                    assert _same_statement(parse_statement(line), want), line

    def test_a_legal_line_the_pattern_rejects_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(parser, "_STATEMENT", re.compile("(?!)"))
        legal = ((parse_statement, "A.r <- B"), (parse_changelog, "+ A.r <- B.s & C.t\n"))
        for parse, text in legal:
            with pytest.raises(AssertionError):
                parse(text)

    @pytest.mark.parametrize(
        "bad",
        ["A.r <- B.", "A.r <- TOP", "A.r <- B.s.t", "A.r <- B.s & TOP.t", "A.r <- B.s & C", "A.r"],
    )
    def test_only_a_rejected_line_is_read_as_tokens(self, monkeypatch, bad):
        made = []

        class Counted(parser._Tokens):
            def __init__(self, code, line, names):
                made.append(line)
                super().__init__(code, line, names)

        monkeypatch.setattr(parser, "_Tokens", Counted)
        forms = [
            "A.r <- B", "A.s <- B.r", "A.t <- A.r.s", "A.u <- B.r & C.s & A.r",
            "TOP_.TOP <- TOP_.TOP.TOP",
        ]
        policy = "".join(line + "\n" for line in forms)
        log = "".join(f"{sign} {line}\n" for line in forms for sign in "+-")
        assert len(parse_policy(policy)) == len(forms)
        assert len(parse_changelog(log)) == 2 * len(forms)
        for line in forms:
            parse_statement(line)
        assert made == []

        for parse, text in ((parse_policy, policy + bad), (parse_changelog, log + "+ " + bad)):
            with pytest.raises(ParseError):
                parse(text)
        with pytest.raises(ParseError):
            parse_statement(bad)
        assert made == [len(forms) + 1, 2 * len(forms) + 1, 1]


class TestConstraints:
    def test_hazmat_constraint(self):
        q = parse_constraint(HAZMAT_CONSTRAINT_TEXT)
        assert q.id == "c1"
        assert q.owner == prin("Emergency")
        assert q.lhs == RoleRef(role("Emergency.hazmatPersonnel"))
        assert q.rhs == RoleRef(role("ATF.hazmatDB"))

    def test_safety_constraint_with_empty_rhs(self):
        q = parse_constraint("constraint c2 owner O: {Bob} & A.r <= {}")
        assert q.lhs == IntersectionExpr(
            PrincipalSet(frozenset({prin("Bob")})), RoleRef(role("A.r"))
        )
        assert q.rhs == PrincipalSet(frozenset())

    def test_missing_rhs_is_a_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_constraint("constraint c3 owner O: A.r <=")
        assert err.value.kind is ParseErrorKind.SYNTAX

    def test_precedence_and_parens(self):
        q = parse_constraint("constraint q owner O: A.r | B.r & C.r <= (A.r | B.r) & C.r")
        assert isinstance(q.lhs, UnionExpr)
        assert isinstance(q.lhs.right, IntersectionExpr)
        assert isinstance(q.rhs, IntersectionExpr)
        assert isinstance(q.rhs.left, UnionExpr)

    def test_deep_parentheses_parse_without_recursion(self):
        deep = "(" * 5000 + "A.r | (B.r & {C})" + ")" * 5000
        q = parse_constraint(f"constraint q owner O: {deep} <= {deep} & D.r")
        inner = parse_expr("A.r | B.r & {C}")
        assert q.lhs == inner
        assert q.rhs == IntersectionExpr(inner, RoleRef(role("D.r")))

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ("(" * 3000 + "A.r" + ")" * 2999, 6003, "expected ')'"),
            ("(" * 3000 + "A.r" + ")" * 3001, 6004, "unexpected trailing input"),
            ("(" * 3000 + "A.r |" + ")" * 3000, 3006, "expected role or principal set"),
            ("((A.r & ) | B.r)", 9, "expected role or principal set"),
            ("(A.r B.r)", 6, "expected ')'"),
        ],
        ids=["unclosed", "overclosed", "dangling-union", "dangling-and", "missing-operator"],
    )
    def test_nesting_errors_keep_their_spans(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.span.column == column
        assert err.value.message == message
        assert err.value.kind is ParseErrorKind.SYNTAX

    def test_duplicate_ids_rejected(self):
        text = "constraint a owner O: {} <= {}\nconstraint a owner O: {} <= {}\n"
        with pytest.raises(ParseError):
            parse_constraints(text)


class TestMonitors:
    def test_star_sections(self):
        m = parse_monitor("growth-trusted: *\nshrink-trusted: *\n")
        assert m.growth_trusted is EVERY_ROLE and m.shrink_trusted is EVERY_ROLE

    def test_explicit_roles(self):
        m = parse_monitor("shrink-trusted: ATF.hazmatDB\n")
        assert m.shrink_trusted == frozenset({role("ATF.hazmatDB")})
        assert m.growth_trusted == frozenset()
        # A section that lists no role trusts none.
        assert parse_monitor("growth-trusted:\n") == RoleMonitor()

    def test_all_but_one_role_listing(self):
        p = hazmat_policy()
        keep = sorted(str(r) for r in p.roles if r != role("Emergency.dept"))
        m = parse_monitor("growth-trusted: " + ", ".join(keep) + "\n")
        assert m.growth_trusted == p.roles - {role("Emergency.dept")}

    def test_duplicate_section_rejected(self):
        with pytest.raises(ParseError):
            parse_monitor("growth-trusted: *\ngrowth-trusted: A.r\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_monitor("trusted: A.r\n")


class TestChangelogs:
    def test_add_and_remove(self):
        events = parse_changelog(
            "+ Police.responsePersonnel <- Rollins\n- ATF.hazmatDB <- Rollins\n"
        )
        assert events == [
            ChangeEvent(ChangeKind.ADD, stmt("Police.responsePersonnel <- Rollins")),
            ChangeEvent(ChangeKind.REMOVE, stmt("ATF.hazmatDB <- Rollins")),
        ]

    def test_unknown_operator(self):
        with pytest.raises(ParseError) as err:
            parse_changelog("~ A.r <- B\n")
        assert err.value.kind is ParseErrorKind.SYNTAX


class TestInterning:
    def test_one_object_per_name_within_a_parse(self):
        events = parse_changelog("+ A.r <- B\n+ C.r <- A.r\n- B.s <- A\n")
        first, second, third = (ev.statement for ev in events)
        assert first.head is second.body.source
        assert first.head.owner is third.body.member
        assert first.body.member is third.head.owner
        assert first.head.name is second.head.name

    def test_one_member_body_per_principal_within_a_parse(self):
        p = parse_policy("A.r <- M\nB.s <- M\nC.t <- N\n")
        by_head = {str(s.head): s for s in p}
        assert by_head["A.r"].body is by_head["B.s"].body
        assert by_head["A.r"].body is not by_head["C.t"].body
        events = parse_changelog("+ A.r <- M\n- B.s <- M\n")
        assert events[0].statement.body is events[1].statement.body

    def test_policy_parse_shares_names_across_lines(self):
        p = parse_policy("A.r <- B\nC.r <- A.r\n")
        by_head = {str(s.head): s for s in p}
        assert by_head["A.r"].head is by_head["C.r"].body.source

    def test_repeated_statement_is_one_object_whatever_its_spacing(self):
        events = parse_changelog(
            "+ A.r <- B.s & C.t\n- A.r<-B.s&C.t\n+\tA . r  <-  B.s\t& C.t  # again\n"
        )
        first, second, third = (ev.statement for ev in events)
        assert first is second and second is third
        assert [ev.kind for ev in events] == [ChangeKind.ADD, ChangeKind.REMOVE, ChangeKind.ADD]

    def test_reordered_intersection_keeps_its_written_order(self):
        first, second = (
            ev.statement for ev in parse_changelog("+ A.r <- B.s & C.t\n+ A.r <- C.t & B.s\n")
        )
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert str(first) == "A.r <- B.s & C.t"
        assert str(second) == "A.r <- C.t & B.s"

    def test_repeated_policy_line_is_still_a_duplicate(self):
        with pytest.raises(ParseError) as err:
            parse_policy("A.r <- B.s\nC.r <- D\nA.r  <-\tB.s\n")
        assert err.value.kind is ParseErrorKind.DUPLICATE_STATEMENT
        assert err.value.span == SourceSpan(3, 1, len("A.r  <-\tB.s"))
        assert err.value.message == "duplicate statement (first occurrence at line 1)"

    def test_policy_equals_the_checking_constructor(self):
        rng = random.Random(808)
        for n in range(300):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, 4, 2, 12)
            parsed = parse_policy(serialize_policy(p))
            built = PolicyState(frozenset(p.statements))
            assert parsed == built
            assert parsed.principals == built.principals
            assert parsed.roles == built.roles

    def test_separate_parses_share_nothing(self):
        first = parse_changelog("+ A.r <- B\n")[0].statement
        second = parse_changelog("+ A.r <- B\n")[0].statement
        assert first == second
        assert first.head is not second.head
        assert first.head.owner is not second.head.owner
        assert first.head.name is not second.head.name
        assert first.body.member is not second.body.member



def _built(value):
    """``value`` built afresh by the checking constructors, all the way
    down: what the parser's unchecked constructors must equal."""
    if isinstance(value, (tuple, frozenset)):
        return type(value)(map(_built, value))
    if isinstance(value, (str, Enum)) or value is EVERY_ROLE:
        return value
    fields = [f for f in dataclasses.fields(value) if f.init]
    return type(value)(**{f.name: _built(getattr(value, f.name)) for f in fields})


def _assert_built_alike(got, want) -> int:
    """``got`` equals ``want`` with the same type and hash, and so does each
    part of it, down to the names; returns the number of values compared."""
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want), (got, want)
    if isinstance(got, tuple):
        return 1 + sum(_assert_built_alike(g, w) for g, w in zip(got, want))
    if isinstance(got, frozenset):
        mine = {w: w for w in want}
        return 1 + sum(_assert_built_alike(g, mine[g]) for g in got)
    if not dataclasses.is_dataclass(got):
        return 1
    fields = [f.name for f in dataclasses.fields(got) if f.init]
    return 1 + sum(_assert_built_alike(getattr(got, f), getattr(want, f)) for f in fields)


def _parsed_values(fmt: str, text: str) -> list:
    """What the parse of a document yields, as a list of values."""
    if fmt == "policy":
        return sorted(parse_policy(text), key=str)
    if fmt == "constraints":
        return parse_constraints(text)
    if fmt == "monitor":
        return [parse_monitor(text)]
    return parse_changelog(text)


_FORMAT_BY_SUFFIX = {".rt": "policy", ".cst": "constraints", ".mon": "monitor", ".changes": "changelog"}


class TestUncheckedConstructors:
    """The parser builds principals, role names, roles and statements past
    their checks; each must equal, and hash as, the checked one."""

    def test_fixture_values_equal_the_checking_constructors(self):
        compared = 0
        for path in sorted(FIXTURES.iterdir()):
            values = _parsed_values(_FORMAT_BY_SUFFIX[path.suffix], path.read_text(encoding="utf-8"))
            for value in values:
                compared += _assert_built_alike(value, _built(value))
        assert compared >= 500

    def test_random_documents_equal_the_checking_constructors(self):
        rng = random.Random(3301)
        texts = 0
        for n in range(260):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, 4, 2, 12)
            statements = sorted(p, key=str)
            log = [ChangeEvent(rng.choice(list(ChangeKind)), rng.choice(statements)) for _ in range(12)]
            documents = {
                "policy": serialize_policy(p),
                "changelog": serialize_changelog(log),
                "constraints": "".join(
                    serialize_constraint(random_constraint(rng, p, f"q{i}")) + "\n" for i in range(3)
                ),
                "monitor": serialize_monitor(random_monitor(rng, p, 0.5, 0.5)),
            }
            for fmt, text in documents.items():
                for value in _parsed_values(fmt, text):
                    _assert_built_alike(value, _built(value))
                texts += 1
        assert texts >= 1000

    def test_parsed_values_copy_and_pickle_as_checked_ones(self):
        [ev] = parse_changelog("+ A.r <- A.s.t\n")
        policy = parse_policy("A.r <- B\nA.r <- B.s & C.t\nA.r <- B.s\nA.r <- A.s.t\n")
        for value in [ev, *sorted(policy, key=str)]:
            want = _built(value)
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                _assert_built_alike(twin, want)
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_bodies_and_events_equal_the_checked_ones(self):
        """The unchecked constructors of member, inclusion and linked bodies
        and of events: each value equals, and hashes as, the checked one,
        and its copies and pickles do too."""
        a, b = Principal("A"), Principal("B")
        r, s = Role(a, RoleName("r")), RoleName("s")
        st = Statement(r, SimpleMember(b))
        pairs = [
            (model._unchecked_member(b), SimpleMember(b)),
            (model._unchecked_inclusion(r), SimpleInclusion(r)),
            (model._unchecked_linking(r, s), LinkingInclusion(r, s)),
            (model._unchecked_event(ChangeKind.ADD, st), ChangeEvent(ChangeKind.ADD, st)),
            (model._unchecked_event(ChangeKind.REMOVE, st), ChangeEvent(ChangeKind.REMOVE, st)),
        ]
        for got, want in pairs:
            _assert_built_alike(got, want)
            for twin in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
                _assert_built_alike(twin, want)

    def test_a_parse_calls_no_checked_constructor_but_the_intersections(self, monkeypatch):
        checked = []
        for cls in (Principal, RoleName, Role, SimpleMember, SimpleInclusion, LinkingInclusion,
                    Statement, ChangeEvent):
            def init(self, *args, _real=cls.__init__, **kwargs):
                checked.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        lines = ["A.r <- B", "A.r <- B.s", "A.r <- A.s.t", "A.u <- B.s & C.t"]
        policy = parse_policy("".join(line + "\n" for line in lines))
        events = parse_changelog("".join(f"{sign} {line}\n" for line in lines for sign in "+-"))
        assert len(policy) == 4 and len(events) == 8
        assert {type(s.body) for s in policy} == {
            SimpleMember, SimpleInclusion, LinkingInclusion, IntersectionInclusion
        }
        assert checked == []


def _written(rng: random.Random, p: PolicyState) -> str:
    """A document of ``p``: its statements in a random order, respaced, at
    times with a comment or a blank line after, all ending in one of LF,
    CR LF and CR."""
    lines = sorted(str(s) for s in p)
    rng.shuffle(lines)
    end = rng.choice(["\n", "\r\n", "\r"])
    padding = ["", " \t", "# note"]
    return "".join(
        _respaced(rng, line) + end + (rng.choice(padding) + end if rng.random() < 0.2 else "")
        for line in lines
    )


def _assert_indexed_in_text_order(p: PolicyState) -> None:
    """``p``'s index holds its statements by head, each head's list in
    the order of their text, whether or not it has been read before."""
    want: dict = {}
    for s in sorted(p.statements, key=str):
        want.setdefault(s.head, []).append(s)
    got = p._index
    assert got.keys() == want.keys()
    for head, items in want.items():
        assert [id(s) for s in got[head]] == [id(s) for s in items]


class TestIndex:
    """A state's index, parsed or derived, holds each head's statements in
    text order, however the document was written."""

    def test_fixture_policies_index_in_text_order(self):
        rng = random.Random(3501)
        multi = 0
        for path in sorted(FIXTURES.glob("*.rt")):
            text = path.read_text(encoding="utf-8")
            for document in (text, _written(rng, parse_policy(text))):
                p = parse_policy(document)
                assert "_index" not in vars(p)
                _assert_indexed_in_text_order(p)
                multi += sum(len(items) > 1 for items in p._index.values())
        assert multi > 0

    def test_random_policies_index_in_text_order(self):
        rng = random.Random(3502)
        multi = 0
        for n in range(3000):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, 4, 2, 12)
            parsed = parse_policy(_written(rng, p))
            assert parsed == p
            _assert_indexed_in_text_order(parsed)
            multi += any(len(items) > 1 for items in parsed._index.values())
            # A state derived by ``add`` and ``remove`` carries the index
            # over, as a fresh build of its statements would give it.
            state = parsed
            for _ in range(3):
                change = random_statement_for_state(rng, parsed)
                state = state.remove(change) if change in state else state.add(change)
                assert "_index" in vars(state) or state is parsed
                _assert_indexed_in_text_order(state)
            # Copy and pickle carry the statements alone.
            for twin in (copy.copy(parsed), copy.deepcopy(parsed),
                         pickle.loads(pickle.dumps(parsed))):
                assert twin == parsed and "_index" not in vars(twin)
        assert multi >= 1000


def _rendered(monkeypatch) -> list:
    """The statements whose text is rendered from now on, one entry per
    rendering."""
    rendered = []
    real = Statement.__str__

    def counted(self):
        rendered.append(self)
        return real(self)

    monkeypatch.setattr(Statement, "__str__", counted)
    return rendered


class TestRendering:
    """Building an index orders each head's statements by text, which
    renders only the statements of heads with two or more."""

    def test_loading_renders_no_single_statement_head(self, monkeypatch):
        rng = random.Random(3503)
        documents = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.rt"))]
        for n in range(300):
            p = random_fan_state(rng) if n % 3 == 0 else random_state(rng, 4, 2, 12)
            documents.append(_written(rng, p))
        rendered = _rendered(monkeypatch)
        for document in documents:
            del rendered[:]
            # Loading: the parse and the first read of the index, on the
            # parsed state and on one built by the constructor.
            p = parse_policy(document)
            for state in (p, PolicyState(p.statements)):
                multi = {id(s) for items in state._index.values() if len(items) > 1 for s in items}
                assert {id(s) for s in rendered} <= multi
                assert len(rendered) == len({id(s) for s in rendered})
                del rendered[:]

    def test_set_up_renders_each_statement_of_a_shared_head_at_most_once(self, monkeypatch):
        from rtmon.monitor import FullTrust, FullTrustCredential, RestrictedTrust, run_session

        rendered = _rendered(monkeypatch)
        families = sorted({path.stem for path in FIXTURES.glob("*.rt")})
        multi_total = 0
        for family in families:
            read = lambda suffix: (FIXTURES / f"{family}{suffix}").read_text(encoding="utf-8")
            modes = [FullTrust(), FullTrustCredential()]
            if (FIXTURES / f"{family}.mon").exists():
                modes.append(RestrictedTrust(parse_monitor(read(".mon"))))
            for mode in modes:
                del rendered[:]
                p = parse_policy(read(".rt"))
                constraints = parse_constraints(read(".cst"))
                log = parse_changelog(read(".changes"))
                # Set-up: the loads and each constraint's registration,
                # which ``run_session`` makes before it asks for an event.
                run_session(p, [(q, mode) for q in constraints], iter(()))
                multi = {id(s) for items in p._index.values() if len(items) > 1 for s in items}
                multi_total += len(multi)
                assert {id(s) for s in rendered} <= multi, family
                assert len(rendered) == len({id(s) for s in rendered}), family
                assert log
        assert multi_total > 0


_PARSERS = {
    "statement": parse_statement,
    "policy": parse_policy,
    "expr": parse_expr,
    "constraint": parse_constraint,
    "constraints": parse_constraints,
    "monitor": parse_monitor,
    "changelog": parse_changelog,
}
# Malformed inputs of every format: dropped, doubled and swapped tokens,
# TOP in each principal position, shapes, whitespace, sets, parentheses.
_PARSE_ERRORS = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))


def test_parse_error_golden_covers_every_format():
    assert len(_PARSE_ERRORS) >= 150
    assert {case["format"] for case in _PARSE_ERRORS} == set(_PARSERS)
    assert {case["kind"] for case in _PARSE_ERRORS} == {kind.value for kind in ParseErrorKind}


def test_parse_errors_match_the_golden():
    """Each entry's span, kind and message, as the character scanner that
    preceded the token reader reported them."""
    wrong = []
    for case in _PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            _PARSERS[case["format"]](case["text"])
        got = err.value
        found = (got.span.line, got.span.column, got.span.length, got.kind.value, got.message)
        if found != tuple(case[k] for k in ("line", "column", "length", "kind", "message")):
            wrong.append((case["format"], case["text"], found))
    assert wrong == []


def test_a_parse_leaves_no_reference_cycles():
    """What a parse call builds is freed by reference counting alone."""
    cases = [
        (parse_policy, HAZMAT_POLICY_TEXT),
        (parse_constraints, HAZMAT_CONSTRAINT_TEXT + "\nconstraint c2 owner O: {B} & A.r <= (C.s | D.t)\n"),
        (parse_monitor, "growth-trusted: A.r, B.s\nshrink-trusted: *\n"),
        (parse_changelog, "+ A.r <- B\n- A.r <- B.s & C.t\n+ A.r <- A.s.t\n+ C.r <- A.r\n"),
        (parse_statement, "A.r <- B.s & C.t"),
        (parse_expr, "A.r & {B} | (C.s | D.t)"),
        (parse_constraint, HAZMAT_CONSTRAINT_TEXT),
    ]
    gc.collect()
    gc.disable()
    try:
        for parse, text in cases:
            assert parse(text) is not None
            assert gc.collect() == 0, parse.__name__
    finally:
        gc.enable()


class TestSerialization:
    def test_policy_round_trip(self):
        p = hazmat_policy()
        assert parse_policy(serialize_policy(p)) == p

    def test_empty_policy_serializes_to_empty_document(self):
        assert serialize_policy(PolicyState()) == ""

    def test_policy_output_is_sorted(self):
        text = serialize_policy(hazmat_policy())
        lines = text.splitlines()
        assert lines == sorted(lines)

    def test_constraint_round_trips_byte_identically(self):
        q = parse_constraint(HAZMAT_CONSTRAINT_TEXT)
        assert serialize_constraint(q) == HAZMAT_CONSTRAINT_TEXT
        assert parse_constraint(serialize_constraint(q)) == q

    def test_monitor_round_trip(self):
        for text in (
            "growth-trusted: *\nshrink-trusted: ATF.hazmatDB\n",
            "shrink-trusted: A.r, B.s\n",
            "",
        ):
            m = parse_monitor(text)
            assert parse_monitor(serialize_monitor(m)) == m

    def test_changelog_round_trip(self):
        events = parse_changelog("+ A.r <- B\n- A.r <- B.r1 & C.r2\n+ A.r <- A.s.t\n")
        assert parse_changelog(serialize_changelog(events)) == events


# Every name the model accepts, up to four characters (so no keyword).
_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s != "TOP"
)
_principals = st.builds(Principal, _ident)
_role_names = st.builds(RoleName, _ident)
_roles = st.builds(Role, _principals, _role_names)


@st.composite
def _statements(draw):
    head = draw(_roles)
    which = draw(st.integers(0, 3))
    if which == 0:
        body = SimpleMember(draw(_principals))
    elif which == 1:
        body = SimpleInclusion(draw(_roles))
    elif which == 2:
        body = LinkingInclusion(Role(head.owner, draw(_role_names)), draw(_role_names))
    else:
        parts = draw(st.lists(_roles, min_size=2, max_size=4))
        body = IntersectionInclusion(tuple(parts))
    return Statement(head, body)


_exprs = st.recursive(
    st.one_of(
        st.builds(RoleRef, _roles),
        st.builds(PrincipalSet, st.frozensets(_principals, max_size=3)),
    ),
    lambda children: st.one_of(
        st.builds(UnionExpr, children, children),
        st.builds(IntersectionExpr, children, children),
    ),
    max_leaves=6,
)


@given(_statements())
def test_round_trip_statements_built_from_the_model(s):
    text = serialize_statement(s)
    back = parse_statement(text)
    assert back == s and serialize_statement(back) == text


@given(st.frozensets(_statements(), max_size=8))
def test_round_trip_random_policies(statements):
    p = PolicyState(statements)
    assert parse_policy(serialize_policy(p)) == p


@given(_exprs, _exprs, _ident)
def test_round_trip_random_constraints(lhs, rhs, cid):
    q = parse_constraint(
        f"constraint {cid} owner O: {serialize_expr(lhs)} <= {serialize_expr(rhs)}"
    )
    assert q.lhs == lhs and q.rhs == rhs


@given(
    st.frozensets(_roles, max_size=5),
    st.frozensets(_roles, max_size=5),
    st.booleans(),
    st.booleans(),
)
def test_round_trip_random_monitors(growth, shrink, g_all, s_all):
    m = RoleMonitor(EVERY_ROLE if g_all else growth, EVERY_ROLE if s_all else shrink)
    assert parse_monitor(serialize_monitor(m)) == m


@given(st.text(max_size=200))
def test_parsing_arbitrary_text_is_total(text):
    for parse in (parse_policy, parse_constraints, parse_monitor, parse_changelog):
        try:
            parse(text)
        except ParseError as err:
            assert err.span.line >= 1
            assert err.span.column >= 1

