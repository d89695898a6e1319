"""Shared builders and canonical scenario states used across the suite."""

import functools
import sys

import rtmon.engine
import rtmon.model
from rtmon.deps import DEFAULT_SUPPORT_CAP, justified_semantics
from rtmon.model import PolicyState, Principal, Role, RoleName, TOP
from rtmon.parser import parse_constraint, parse_policy, parse_statement

# Emergency-response scenario: a tightly-held database role, a personnel
# role built from an intersection, and a linked role walking over the
# departments.  The two extra statements turn the containment constraint
# from satisfied to violated.
HAZMAT_POLICY_TEXT = """\
ATF.hazmatDB <- Rollins
Emergency.hazmatPersonnel <- Emergency.responsePersonnel & ATF.hazmatTraining
Emergency.responsePersonnel <- Emergency.dept.responsePersonnel
Emergency.dept <- Fire
Emergency.dept <- Police
ATF.hazmatTraining <- Rollins
ATF.hazmatTraining <- Burke
ATF.hazmatTraining <- OConnel
"""
HAZMAT_ADD_9 = "Police.responsePersonnel <- Rollins"
HAZMAT_ADD_10 = "Police.responsePersonnel <- Burke"
HAZMAT_CONSTRAINT_TEXT = (
    "constraint c1 owner Emergency: "
    "Emergency.hazmatPersonnel <= ATF.hazmatDB"
)

# A self-referencing linked role: growth of A.r cascades through the chain
# B.r, C.r, D.r but never touches E.r.
SELF_LINK_POLICY_TEXT = """\
A.r <- A.r.r
A.r <- B
B.r <- C
C.r <- D.r
E.r <- F
"""

# F is provable through two independent inclusion chains, so its minimal
# support is not unique.
REDUNDANT_SUPPORT_POLICY_TEXT = """\
A.r <- B.r
A.r <- C.r
B.r <- F
C.r <- F
"""

# Adding A.r <- F keeps A.r <= B.r satisfied but forces the support to
# pick up D.r, the only chain proving F's membership in B.r.
SUPPORT_SHIFT_POLICY_TEXT = """\
A.r <- E
B.r <- C.r
B.r <- D.r
C.r <- E
D.r <- F
"""
SUPPORT_SHIFT_CONSTRAINT_TEXT = "constraint cs owner A: A.r <= B.r"


def role(text: str) -> Role:
    owner, name = text.split(".")
    return Role(Principal(owner), RoleName(name))


def prin(name: str) -> Principal:
    return Principal(name)


def stmt(text: str):
    return parse_statement(text)


def hazmat_policy():
    return parse_policy(HAZMAT_POLICY_TEXT)


def hazmat_policy_extended():
    return parse_policy(HAZMAT_POLICY_TEXT + HAZMAT_ADD_9 + "\n" + HAZMAT_ADD_10 + "\n")


def hazmat_constraint():
    return parse_constraint(HAZMAT_CONSTRAINT_TEXT)


def self_link_policy():
    return parse_policy(SELF_LINK_POLICY_TEXT)


def redundant_support_policy():
    return parse_policy(REDUNDANT_SUPPORT_POLICY_TEXT)


def support_shift_policy():
    return parse_policy(SUPPORT_SHIFT_POLICY_TEXT)


def support_shift_constraint():
    return parse_constraint(SUPPORT_SHIFT_CONSTRAINT_TEXT)


def names(principals) -> set[str]:
    return {p.name for p in principals}


def role_strs(roles) -> set[str]:
    return {str(r) for r in roles}


def core_roles(coreset) -> frozenset:
    """The roles of a core over a finite trusted set."""
    return coreset.trusted - coreset.expelled


def member_supports(p, member, target, cap=DEFAULT_SUPPORT_CAP) -> frozenset:
    """The supports of ``member`` in ``target``: those of the entries of
    ``justified_semantics`` at ``cap`` for ``target`` whose member it is."""
    js = justified_semantics(p, max_entries_per_member=cap)
    return frozenset(e.support for e in js.for_role(target) if e.member == member)


def index_texts(p):
    """The index of ``p`` as texts: each head's statements in the order of
    its list.  Texts, not values, because two equal intersections may be
    written differently."""
    return {head: [str(s) for s in items] for head, items in p._index.items()}


def patch_everywhere(monkeypatch, real, spy) -> None:
    """Replace ``real`` by ``spy`` under every name the ``rtmon`` modules
    look it up by."""
    for name, mod in list(sys.modules.items()):
        if name == "rtmon" or name.startswith("rtmon."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)


def count_calls(monkeypatch, real) -> list:
    """Record the first argument of every call to ``real``, under every
    name the ``rtmon`` modules look it up by."""
    calls = []

    def counted(p, *args, **kwargs):
        calls.append(p)
        return real(p, *args, **kwargs)

    patch_everywhere(monkeypatch, real, counted)
    return calls


# A role no monitor trusts: the lower bound holds it at the empty set, the
# upper bound at the universe, which holds ``TOP``.
_TOP_ROLE = Role(TOP, RoleName("r"))


def count_saturations(monkeypatch) -> list:
    """What each run of the one membership loop computes, in call order:
    ``"cone"`` or ``"whole"`` membership, or the ``"lower"`` or ``"upper"``
    bound, told apart by the set their held rule gives a role of ``TOP``,
    with the index it reads."""
    calls = []
    real = rtmon.engine._saturate

    def spy(index, roots=None, held=None):
        if held is not None:
            kind = "upper" if TOP in held(_TOP_ROLE) else "lower"
        else:
            kind = "whole" if roots is None else "cone"
        calls.append((kind, index))
        return real(index, roots, held)

    patch_everywhere(monkeypatch, real, spy)
    return calls


def count_snapshots(monkeypatch, record=None) -> list:
    """Every state ``rtmon.model._successor`` builds, in build order: each
    snapshot of a session, and each state ``PolicyState.add`` or ``remove``
    derives.  A session's final state, when it is not its last snapshot, is
    built afresh and not counted.  With ``record`` given, what
    ``record(state)`` returns is kept instead of the state, so the states
    are not kept alive."""
    calls = []
    real = rtmon.model._successor

    def spy(prev, statements, events):
        state = real(prev, statements, events)
        calls.append(state if record is None else record(state))
        return state

    patch_everywhere(monkeypatch, real, spy)
    return calls


def count_index_builds(monkeypatch) -> list:
    """Every state that builds its index afresh, in build order; a state
    that carries one over from the state it was derived from builds none."""
    builds = []
    real = vars(PolicyState)["_index"].func

    def build(self):
        builds.append(self)
        return real(self)

    prop = functools.cached_property(build)
    prop.__set_name__(PolicyState, "_index")
    monkeypatch.setattr(PolicyState, "_index", prop)
    return builds
