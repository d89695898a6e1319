import copy
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from rtmon.deps import support_for_constraint
from rtmon.engine import eval_expr, evaluate
from rtmon.model import (
    ChangeEvent,
    ChangeKind,
    Constraint,
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
    EVERY_ROLE,
    TOP,
    UnionExpr,
    fold_expr,
    principals_of_expr,
    roles_of,
    _successor,
)
from rtmon.monitor import FullTrust, RestrictedTrust, register, run_session
from rtmon.parser import parse_constraint, parse_expr, parse_statement, serialize_expr

from helpers import (
    HAZMAT_ADD_9,
    hazmat_constraint,
    hazmat_policy,
    index_texts,
    prin,
    role,
    role_strs,
    self_link_policy,
    stmt,
)
from randgen import random_state, random_statement_for_state


def test_value_equality_is_structural():
    assert Principal("A") == Principal("A")
    assert role("A.r") == role("A.r")
    assert stmt("A.r <- B") == stmt("A.r <- B")
    assert stmt("A.r <- B") != stmt("A.r <- C")


def test_policy_state_set_semantics():
    p = PolicyState(frozenset({stmt("A.r <- B")}))
    assert p.add(stmt("A.r <- B")) == p
    assert len(p.add(stmt("A.r <- B"))) == 1
    assert p.remove(stmt("A.r <- C")) == p
    assert len(p.remove(stmt("A.r <- B"))) == 0


def test_linking_inclusion_owner_must_match_head():
    body = LinkingInclusion(role("B.r1"), RoleName("r2"))
    with pytest.raises(ValueError):
        Statement(role("A.r"), body)
    # same owner is fine
    Statement(role("B.r"), body)


def test_intersection_compares_as_a_set():
    a = IntersectionInclusion((role("B.r1"), role("C.r2")))
    b = IntersectionInclusion((role("C.r2"), role("B.r1")))
    dup = IntersectionInclusion((role("B.r1"), role("C.r2"), role("B.r1")))
    assert a == b
    assert a == dup
    assert hash(a) == hash(b) == hash(dup)
    assert str(dup) == "B.r1 & C.r2 & B.r1"  # display keeps source order
    with pytest.raises(ValueError):
        IntersectionInclusion((role("B.r1"),))


def test_roles_of_state_empty():
    assert PolicyState().roles == frozenset()


def test_roles_of_state_is_cross_product():
    p = self_link_policy()
    # six principals, one role name
    assert role_strs(p.roles) == {f"{x}.r" for x in "ABCDEF"}


def test_roles_of_state_hazmat():
    p = hazmat_policy()
    rs = p.roles
    assert len(p.principals) == 7
    assert len(p.role_names) == 5
    assert len(rs) == 35
    assert role("ATF.hazmatDB") in rs
    assert role("Fire.responsePersonnel") in rs  # not defined, still a role


def test_top_cannot_enter_a_policy_state():
    with pytest.raises(ValueError):
        PolicyState(frozenset({Statement(role("A.r"), SimpleMember(TOP))}))
    with pytest.raises(ValueError):
        PolicyState(frozenset({Statement(Role(TOP, RoleName("r")), SimpleMember(prin("B")))}))


def test_top_cannot_be_added_to_a_policy_state():
    p = PolicyState(frozenset({stmt("A.r <- B")}))
    with pytest.raises(ValueError):
        p.add(Statement(role("A.r"), SimpleMember(TOP)))
    with pytest.raises(ValueError):
        p.add(Statement(role("A.r"), IntersectionInclusion((role("B.r"), Role(TOP, RoleName("r"))))))


def test_constructor_checks_every_statement():
    clean = [stmt(f"A.r <- B{i}") for i in range(50)]
    PolicyState(frozenset(clean))
    with pytest.raises(ValueError):
        PolicyState(frozenset(clean + [Statement(role("C.r"), SimpleMember(TOP))]))


def test_add_and_remove_match_a_constructed_state():
    p = hazmat_policy()
    extra = stmt(HAZMAT_ADD_9)
    grown = p.add(extra)
    assert grown == PolicyState(p.statements | {extra})
    assert grown.principals == p.principals
    assert role("Police.responsePersonnel") in grown.roles
    shrunk = grown.remove(extra)
    assert shrunk == p
    assert hash(shrunk) == hash(p)


def test_add_and_remove_carry_the_by_head_map():
    # A state derived by ``add`` or ``remove`` from one whose index is built
    # carries it over, equal to a fresh build's list for list; the state it
    # came from keeps its own.
    rng = random.Random(921)
    steps = readded = 0
    for _ in range(200):
        p = random_state(rng, max_statements=12)
        start = index_texts(p)
        state = p
        for _ in range(8):
            if state.statements and rng.random() < 0.5:
                gone = rng.choice(sorted(state.statements, key=str))
                nxt = state.remove(gone)
                if rng.random() < 0.3:
                    # Removed and added again: the map ends as it began.
                    before = index_texts(state)
                    nxt = nxt.add(gone)
                    assert index_texts(nxt) == before
                    readded += 1
            else:
                nxt = state.add(random_statement_for_state(rng, state, "E"))
            if nxt is state:
                continue
            assert "_index" in vars(nxt)
            assert index_texts(nxt) == index_texts(PolicyState(nxt.statements))
            state = nxt
            steps += 1
        assert index_texts(p) == start
    assert steps >= 1000 and readded >= 100


def test_a_bulk_change_carries_the_by_head_map():
    # However many statements change at once, the index is carried over,
    # equal to a fresh build's.
    p = hazmat_policy()
    p._index
    extra = [stmt(f"X{i:03d}.r <- Y") for i in range(300)]
    gone = sorted(p.statements, key=str)[::2]
    changed = (p.statements | set(extra)) - set(gone)
    events = [ChangeEvent(ChangeKind.REMOVE, s) for s in gone]
    state = _successor(p, changed, events + [ChangeEvent(ChangeKind.ADD, s) for s in extra])
    assert "_index" in vars(state)
    assert index_texts(state) == index_texts(PolicyState(changed))


def test_a_carried_map_lists_the_statement_it_inserts_at_its_text():
    # A change log's statement enters its head's list itself, in text order
    # among the statements already there.
    p = hazmat_policy()
    p._index
    cold = stmt("ATF.hazmatTraining <- Kim")
    grown = p.add(cold)
    items = grown._index[cold.head]
    assert [s.body.member.name for s in items] == ["Burke", "Kim", "OConnel", "Rollins"]
    assert items[1] is cold
    back = grown.remove(cold)
    assert index_texts(back) == index_texts(p)


def test_an_intersection_added_back_in_another_order_replaces_the_carried_one():
    # ``A.r <- C.t & B.s`` equals ``A.r <- B.s & C.t`` but prints otherwise.
    # Removed by its other spelling and added back as the statement a
    # derived state holds, it replaces the one its predecessor lists.
    p = PolicyState(
        {stmt("A.r <- B.s & C.t"), stmt("B.s <- X"), stmt("C.t <- X"), stmt("Q.q <- A.r")}
    )
    p._index
    respelled = stmt("A.r <- C.t & B.s")
    statements = (p.statements - {respelled}) | {respelled}
    assert any(s is respelled for s in statements)
    fresh = PolicyState(statements)
    events = [ChangeEvent(ChangeKind.REMOVE, respelled), ChangeEvent(ChangeKind.ADD, respelled)]
    assert index_texts(_successor(p, statements, events)) == index_texts(fresh)
    assert index_texts(p) == index_texts(PolicyState(p.statements)) != index_texts(fresh)


def test_names_hash_once_to_the_field_tuple_hash():
    a, r = Principal("A"), RoleName("r")
    assert hash(a) == hash(("A",))
    assert hash(r) == hash(("r",))
    assert hash(Role(a, r)) == hash((a, r))
    assert sorted([Principal("B"), a]) == [a, Principal("B")]
    assert not hasattr(a, "__dict__")
    with pytest.raises(FrozenInstanceError):
        a.name = "B"


def test_statements_hash_once_to_the_field_tuple_hash():
    rng = random.Random(9)
    forms = set()
    for _ in range(300):
        for s in random_state(rng, max_statements=10):
            forms.add(type(s.body))
            assert hash(s) == s._hash == hash((s.head, s.body))
    assert forms == {SimpleMember, SimpleInclusion, LinkingInclusion, IntersectionInclusion}
    s = stmt("A.r <- B")
    assert not hasattr(s, "__dict__")
    assert "_hash" not in repr(s)
    with pytest.raises(FrozenInstanceError):
        s.head = role("C.r")


@pytest.mark.parametrize("text", ["A.r <- B", "A.r <- B.s", "A.r <- A.s.t", "A.r <- B.s & C.t"])
def test_statements_of_separate_parses_are_equal_and_hash_equal(text):
    a, b = parse_statement(text), parse_statement(text)
    assert a is not b and a.head is not b.head
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and a in {b}


def test_a_reordered_intersection_hashes_like_the_written_one():
    a, b = parse_statement("A.r <- B.s & C.t"), parse_statement("A.r <- C.t & B.s")
    assert str(a) != str(b)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("text", ["A.r <- B", "A.r <- B.s", "A.r <- A.s.t", "A.r <- B.s & C.t"])
def test_copy_and_pickle_keep_statement_equality_and_hash(text):
    s = parse_statement(text)
    rendered = str(s)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s) == hash(parse_statement(text))
        assert str(twin) == rendered == text


def test_copy_and_pickle_carry_a_state_without_its_caches():
    p = hazmat_policy()
    cold = len(pickle.dumps(p))
    for cache in ("principals", "_index", "role_names", "roles"):
        getattr(p, cache)
    # A registration under each kind of trust fills the memo: the cone, the
    # support worklist, each bound and the core.
    q = hazmat_constraint()
    register(p, q, FullTrust())
    register(p, q, RestrictedTrust(RoleMonitor(EVERY_ROLE, EVERY_ROLE)))
    assert {kind for kind, _ in p._memo} == {"cone", "worklist", "lower", "upper", "core"}
    assert len(pickle.dumps(p)) == cold
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin is not p
        assert vars(twin) == {"statements": p.statements}
        assert twin.principals == p.principals
        # Each head's list is in text order, whatever order an equal
        # frozenset rebuilt by a copy or by unpickling iterates in.
        assert index_texts(twin) == index_texts(p)


@pytest.mark.parametrize("text", ["A.r <- B", "A.r <- B.s", "A.r <- A.s.t", "A.r <- B.s & C.t"])
def test_statements_render_their_text_once(text):
    a, b = parse_statement(text), parse_statement(text)
    assert str(a) == str(b) == text
    # The text takes no part in equality, hashing, repr or rebuilding.
    c = parse_statement(text)
    assert a == c and hash(a) == hash(c) and repr(a) == repr(c)
    assert text not in repr(a)
    assert {f.name for f in fields(Statement) if f.init} == {"head", "body"}
    assert a.__reduce__() == (Statement, (a.head, a.body))


_LOAD_PICKLED = """
import pickle, sys
from rtmon.parser import parse_statement, parse_expr
stmts, texts, expr = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert [str(s) for s in stmts] == texts
fresh = [parse_statement(str(s)) for s in stmts]
assert stmts == fresh and set(stmts) == set(fresh)
assert all(s.head in {f.head} and s.head.owner in {f.head.owner} for s, f in zip(stmts, fresh))
assert expr in {parse_expr("A.r | (B.s & {C})")}
print("ok")
"""


def test_pickled_values_rehash_under_another_hash_seed():
    """The hash a value computed once is not carried into a process whose
    string hashes differ: loading rebuilds it."""
    stmts = [parse_statement(t) for t in ("A.r <- B", "A.r <- B.s", "A.r <- A.s.t", "A.r <- B.s & C.t")]
    texts = [str(s) for s in stmts]
    data = pickle.dumps((stmts, texts, parse_expr("A.r | (B.s & {C})"))).hex()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONHASHSEED"] = "12345" if os.environ.get("PYTHONHASHSEED") != "12345" else "54321"
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PICKLED],
        input=data, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _top_in_every_position():
    """A statement with ``TOP`` in each principal position of each form."""
    a, top = prin("A"), TOP
    r, s, t = RoleName("r"), RoleName("s"), RoleName("t")
    return [
        Statement(Role(top, r), SimpleMember(a)),
        Statement(Role(a, r), SimpleMember(top)),
        Statement(Role(top, r), SimpleInclusion(Role(a, s))),
        Statement(Role(a, r), SimpleInclusion(Role(top, s))),
        Statement(Role(top, r), LinkingInclusion(Role(top, s), t)),
        Statement(Role(top, r), IntersectionInclusion((Role(a, s), Role(a, t)))),
        Statement(Role(a, r), IntersectionInclusion((Role(top, s), Role(a, t)))),
        Statement(Role(a, r), IntersectionInclusion((Role(a, s), Role(top, t)))),
        Statement(Role(a, r), IntersectionInclusion((Role(a, s), Role(a, t), Role(top, r)))),
    ]


@pytest.mark.parametrize("bad", _top_in_every_position(), ids=str)
def test_top_in_any_principal_position_is_rejected_everywhere(bad):
    message = f"reserved principal TOP cannot occur in a policy: {bad}"
    good = stmt("A.r <- B")
    with pytest.raises(ValueError) as err:
        PolicyState(frozenset({good, bad}))
    assert str(err.value) == message
    p = PolicyState(frozenset({good}))
    with pytest.raises(ValueError) as err:
        p.add(bad)
    assert str(err.value) == message
    pulled = []

    def log():
        for ev in [ChangeEvent(ChangeKind.ADD, stmt("A.r <- C")), ChangeEvent(ChangeKind.ADD, bad),
                   ChangeEvent(ChangeKind.ADD, stmt("A.r <- D"))]:
            pulled.append(ev)
            yield ev

    q = parse_constraint("constraint q owner A: A.r <= A.r")
    with pytest.raises(ValueError) as err:
        run_session(p, [(q, FullTrust())], log())
    assert str(err.value) == message
    assert len(pulled) == 2


def test_top_cannot_enter_a_constraint():
    with pytest.raises(ValueError):
        Constraint(prin("O"), PrincipalSet(frozenset({TOP})), RoleRef(role("A.r")), "q")


@pytest.mark.parametrize("side", ["growth_trusted", "shrink_trusted"])
def test_top_cannot_own_a_monitored_role(side):
    roles = frozenset({role("A.r"), Role(TOP, RoleName("r"))})
    with pytest.raises(ValueError, match="^reserved principal TOP cannot own a monitored role$"):
        RoleMonitor(**{side: roles})


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Principal(""),
            "principal name must be an identifier [A-Za-z_][A-Za-z0-9_]*, got ''",
        ),
        (lambda: RoleName(""), "role name must be an identifier [A-Za-z_][A-Za-z0-9_]*, got ''"),
        (
            lambda: Constraint(prin("O"), RoleRef(role("A.r")), RoleRef(role("B.r")), ""),
            "constraint id must be non-empty",
        ),
    ],
    ids=["principal", "role-name", "constraint-id"],
)
def test_empty_names_and_ids_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("name", ["B.x", "1a", "a b", "x-y", "caf\u00e9", "a\n", "TOP.r"])
@pytest.mark.parametrize("make", [Principal, RoleName])
def test_names_outside_the_identifiers_are_rejected(make, name):
    # A name the text formats cannot read back would print a statement that
    # no policy line parses to, or two statements as one text.
    with pytest.raises(ValueError, match="name must be an identifier"):
        make(name)


def test_every_statement_the_model_builds_reads_back_from_its_text():
    with pytest.raises(ValueError, match="^principal name must be an identifier"):
        Statement(role("A.r"), SimpleInclusion(Role(Principal("B.x"), RoleName("y"))))
    assert Principal("TOP") == TOP and Principal("_a9").name == "_a9"


def test_expression_static_and_roles():
    static = PrincipalSet(frozenset({prin("A")}))
    assert roles_of(static) == frozenset()
    compound = UnionExpr(RoleRef(role("A.r")), IntersectionExpr(static, RoleRef(role("B.s"))))
    assert role_strs(roles_of(compound)) == {"A.r", "B.s"}


def test_fold_visits_sides_left_to_right():
    expr = UnionExpr(
        IntersectionExpr(RoleRef(role("A.r")), PrincipalSet(frozenset({prin("B")}))),
        RoleRef(role("C.s")),
    )
    got = fold_expr(expr, str, lambda a, b: f"({a} | {b})", lambda a, b: f"({a} & {b})")
    assert got == "((A.r & {B}) | C.s)"
    with pytest.raises(TypeError):
        fold_expr(UnionExpr(RoleRef(role("A.r")), "A.r"), str, max, max)


def chain(n: int, right: bool):
    """A union of ``n`` terms nested ``n - 1`` deep to the left or right:
    roles ``Pi.r`` for i < n - 1 and a principal set ``{Q}`` at the end."""
    leaves = [RoleRef(role(f"P{i}.r")) for i in range(n - 1)]
    leaves.append(PrincipalSet(frozenset({prin("Q")})))
    node = leaves.pop() if right else leaves.pop(0)
    while leaves:
        node = UnionExpr(leaves.pop(), node) if right else UnionExpr(node, leaves.pop(0))
    return node


@pytest.mark.parametrize("right", [False, True], ids=["left-nested", "right-nested"])
def test_expression_walkers_fold_a_1500_deep_union(right):
    expr = chain(1500, right)
    wanted = {f"P{i}.r" for i in range(1499)}
    assert role_strs(roles_of(expr)) == wanted
    owners = {f"P{i}" for i in range(1499)}
    assert {p.name for p in principals_of_expr(expr)} == owners | {"Q"}
    p = PolicyState(frozenset({stmt("P7.r <- M")}))
    assert eval_expr(evaluate(p), expr) == {prin("M"), prin("Q")}
    assert support_for_constraint(p, {prin("M"), prin("Q")}, expr) == {role("P7.r")}
    text = serialize_expr(expr)
    if right:
        assert text.count("(") == 1498
    else:
        assert text == " | ".join([f"P{i}.r" for i in range(1499)] + ["{Q}"])
        assert serialize_expr(parse_expr(text)) == text


class _SameHash:
    """An expression leaf whose hash ignores its value."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _SameHash) and other.value == self.value

    def __hash__(self):
        return 0


def _deep_union(bottom, intersect_at=None):
    """``P1499.r | (... | (P0.r | bottom))``, with the node at depth
    ``intersect_at`` from the bottom an intersection instead."""
    node = bottom
    for i in range(1500):
        node = (IntersectionExpr if i == intersect_at else UnionExpr)(RoleRef(role(f"P{i}.r")), node)
    return node


def test_deep_unions_compare_hash_and_print_without_recursion():
    text = " | ".join(f"P{i}.r" for i in range(1500))
    a, b = parse_expr(text), parse_expr(text)
    assert a is not b
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != parse_expr(text + " | Q.r")
    assert a != parse_expr(text.replace("P700.r |", "P700.r &"))
    # A union and an intersection of the same parts hash alike, and so do
    # two ``_SameHash`` leaves, so every node above the one difference hashes
    # alike and only the walk down to it tells the two expressions apart.
    q = PrincipalSet(frozenset({prin("Q")}))
    assert _deep_union(q) == _deep_union(q)
    for x, y in [(_deep_union(q), _deep_union(q, intersect_at=0)),
                 (_deep_union(_SameHash(1)), _deep_union(_SameHash(2)))]:
        assert hash(x) == hash(y)
        assert x != y and y != x
    assert repr(a).startswith("UnionExpr(left=UnionExpr(left=")
    assert repr(a).count("RoleRef(") == 1500
    line = f"constraint deep owner Q: {text} <= Q.r"
    qa, qb = parse_constraint(line), parse_constraint(line)
    assert qa == qb and hash(qa) == hash(qb) and repr(qa) == repr(qb)
    p = PolicyState(frozenset({stmt("P7.r <- M"), stmt("Q.r <- M")}))
    ra, rb = register(p, qa, FullTrust()), register(p, qb, FullTrust())
    assert ra == rb and hash(ra) == hash(rb) and repr(ra) == repr(rb)


def test_expression_dunders_match_the_generated_ones():
    x, y = RoleRef(role("A.r")), PrincipalSet(frozenset({prin("B")}))
    u, i = UnionExpr(x, y), IntersectionExpr(x, y)
    assert hash(u) == hash((x, y)) == hash(i)
    assert u != i and i != u and u == UnionExpr(x, y)
    assert UnionExpr(x, y) != UnionExpr(y, x)
    assert repr(u) == f"UnionExpr(left={x!r}, right={y!r})"
    assert repr(IntersectionExpr(u, x)) == f"IntersectionExpr(left={u!r}, right={x!r})"
    assert not hasattr(u, "__dict__")
    with pytest.raises(FrozenInstanceError):
        u.left = y


def test_every_role_contains_every_unreserved_role():
    p = self_link_policy()
    assert all(r in EVERY_ROLE for r in p.roles)
    # Roles of principals and names no state has seen yet are in too.
    assert role("Zed.fresh") in EVERY_ROLE
    assert Role(TOP, RoleName("r")) not in EVERY_ROLE
    assert prin("A") not in EVERY_ROLE and "A.r" not in EVERY_ROLE
    m = RoleMonitor(growth_trusted=EVERY_ROLE, shrink_trusted=frozenset({role("A.r")}))
    assert m.growth_trusted is EVERY_ROLE
    assert m.shrink_trusted == frozenset({role("A.r")})
    # One symbolic value: equal only to itself, kept by copy and pickle.
    assert EVERY_ROLE != p.roles and EVERY_ROLE != frozenset()
    assert copy.copy(EVERY_ROLE) is EVERY_ROLE and copy.deepcopy(EVERY_ROLE) is EVERY_ROLE
    assert pickle.loads(pickle.dumps(EVERY_ROLE)) is EVERY_ROLE
    assert pickle.loads(pickle.dumps(m)) == m
    assert copy.deepcopy(m).growth_trusted is EVERY_ROLE
    assert m != RoleMonitor(growth_trusted=p.roles, shrink_trusted=frozenset({role("A.r")}))


def test_change_event_rendering():
    ev = ChangeEvent(ChangeKind.ADD, stmt("A.r <- B"))
    assert str(ev) == "+ A.r <- B"
    ev = ChangeEvent(ChangeKind.REMOVE, stmt("A.r <- B"))
    assert str(ev) == "- A.r <- B"
