"""Contact structure decisions for poset algebras.

Covers the determinant criterion, the cycle obstruction, the twelve gluing
rules with their index offsets, block sequences whose limits are the contact
posets of height two, the recursively built contact form, and the complete
height-at-most-two classifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    Disconnected,
    HeightBound,
    InternalInvariant,
    InvalidSequence,
    NotFrobenius,
    PolarityMismatch,
    RegularSearchExhausted,
    RuleBlockMismatch,
    RulePreconditionViolated,
    ShapeMismatch,
)
from .liealg import (
    Functional,
    LieAlgebra,
    build_type_a,
    is_frobenius_h2,
    kirillov_rows,
    random_functional,
    symbolic_kirillov,
)
from .linalg import nonsingular, pfaffian_expansion, rank_at_least
from .posets import (
    Poset,
    _bits,
    _canonical_encoding,
    disjoint_sum,
    interior_shape,
    is_forest,
    json_int,
    make_poset,
    split_components,
)

SYMBOLIC_PFAFFIAN_BOUND = 9


# ---------------------------------------------------------------------------
# building blocks and gluing rules


@dataclass(frozen=True)
class Block:
    kind: str
    poset: Poset
    roles: tuple[tuple[str, int], ...]  # role name -> local element
    a_roles: tuple[str, ...]
    c_polarity: str  # polarity of the solo extremal role "x"
    index: int


BLOCKS = {
    "P11": Block("P11", make_poset(2, [(1, 2)]), (("x", 1), ("y", 2)), ("y",), "min", 0),
    "P111": Block(
        "P111",
        make_poset(3, [(1, 2), (2, 3)]),
        (("x", 1), ("m", 2), ("y", 3)),
        ("y",),
        "min",
        1,
    ),
    "P112": Block(
        "P112",
        make_poset(4, [(1, 2), (2, 3), (2, 4)]),
        (("x", 1), ("m", 2), ("y", 3), ("z", 4)),
        ("y", "z"),
        "min",
        0,
    ),
    "P211": Block(
        "P211",
        make_poset(4, [(1, 3), (2, 3), (3, 4)]),
        (("y", 1), ("z", 2), ("m", 3), ("x", 4)),
        ("y", "z"),
        "max",
        0,
    ),
}

BLOCK_KINDS = tuple(BLOCKS)


@dataclass(frozen=True)
class Rule:
    tag: str
    id_c: bool
    id_a1: bool
    id_a2: bool
    cond_y: Optional[bool]  # required relatedness of the a1 target to the c target
    cond_z: Optional[bool]
    offset: int


RULES = {
    "A1": Rule("A1", False, True, False, None, None, 0),
    "A2": Rule("A2", False, False, True, None, None, 0),
    "B": Rule("B", False, True, True, None, None, 1),
    "C": Rule("C", True, False, False, None, None, 0),
    "D1": Rule("D1", True, True, False, True, None, 0),
    "D2": Rule("D2", True, False, True, None, True, 0),
    "E1": Rule("E1", True, True, False, False, None, 1),
    "E2": Rule("E2", True, False, True, None, False, 1),
    "F": Rule("F", True, True, True, True, True, 0),
    "G1": Rule("G1", True, True, True, True, False, 1),
    "G2": Rule("G2", True, True, True, False, True, 1),
    "H": Rule("H", True, True, True, False, False, 2),
}

#: Rules a contact sequence may use.
CONTACT_RULES = ("A1", "A2", "C", "D1", "D2", "F")


def rule_applies_to_block(rule_tag: str, block_kind: str) -> bool:
    """Blocks with a single a-extremal (P(1,1), P(1,1,1)) only admit the
    rules that never touch a2."""
    rule = RULES[rule_tag]
    block = BLOCKS[block_kind]
    if len(block.a_roles) == 1:
        return not rule.id_a2 and rule.cond_z is None
    return True


def index_contribution(block_kind: str, rule_tag: str) -> int:
    """Index change caused by adjoining the block under the rule: the
    block's own index plus the rule's offset."""
    if block_kind not in BLOCKS:
        raise RuleBlockMismatch(f"unknown block {block_kind!r}")
    if rule_tag not in RULES:
        raise RuleBlockMismatch(f"unknown rule {rule_tag!r}")
    if not rule_applies_to_block(rule_tag, block_kind):
        raise RuleBlockMismatch(f"rule {rule_tag} does not apply to block {block_kind}")
    return BLOCKS[block_kind].index + RULES[rule_tag].offset


# ---------------------------------------------------------------------------
# gluing


@dataclass(frozen=True)
class GluingStep:
    """One step of a block sequence.  The initial step carries no rule;
    later steps name the rule and the identification targets, as labels of
    the poset being extended."""

    block: str
    rule: Optional[str] = None
    target_x: Optional[int] = None
    target_y: Optional[int] = None
    target_z: Optional[int] = None


@dataclass(frozen=True)
class GluingResult:
    poset: Poset
    q_map: dict[int, int]  # old label in the host -> label in the glued poset
    role_labels: dict[str, int]  # block role -> label in the glued poset


def apply_gluing(Q: Poset, step: GluingStep) -> GluingResult:
    """Adjoin a building block to Q under a gluing rule, identifying the
    named extremal elements, and relabel the result naturally."""
    if step.block not in BLOCKS:
        raise RuleBlockMismatch(f"unknown block {step.block!r}")
    if step.rule not in RULES:
        raise RuleBlockMismatch(f"unknown rule {step.rule!r}")
    block = BLOCKS[step.block]
    rule = RULES[step.rule]
    if not rule_applies_to_block(rule.tag, block.kind):
        raise RuleBlockMismatch(f"rule {rule.tag} does not apply to block {block.kind}")
    if Q.height > 2:
        raise HeightBound("gluing requires a host of height <= 2")
    if not Q.is_connected:
        raise Disconnected("gluing requires a connected host")

    targets = {"x": step.target_x, "y": step.target_y, "z": step.target_z}
    wanted = {"x": rule.id_c, "y": rule.id_a1, "z": rule.id_a2}
    for name, want in wanted.items():
        if want and targets[name] is None:
            raise RulePreconditionViolated(
                f"rule {rule.tag} identifies {name} but no target was given"
            )
        if not want and targets[name] is not None:
            raise RulePreconditionViolated(
                f"rule {rule.tag} does not identify {name}, drop that target"
            )

    mins, maxs = set(Q.minimal), set(Q.maximal)
    a_polarity = "max" if block.c_polarity == "min" else "min"
    for name, pol in (("x", block.c_polarity), ("y", a_polarity), ("z", a_polarity)):
        if not wanted[name]:
            continue
        pool = mins if pol == "min" else maxs
        if targets[name] not in pool:
            raise PolarityMismatch(
                f"target {targets[name]} for {name} must be a {pol}imal element of the host"
            )
    if wanted["y"] and wanted["z"] and targets["y"] == targets["z"]:
        raise RulePreconditionViolated("a1 and a2 must identify distinct elements")
    for cond, name in ((rule.cond_y, "y"), (rule.cond_z, "z")):
        if cond is None:
            continue
        if Q.related(targets["x"], targets[name]) != cond:
            want = "related" if cond else "unrelated"
            raise RulePreconditionViolated(
                f"rule {rule.tag} requires the {name} target to be {want} to the x target"
            )

    # assemble the union on Q's labels plus fresh labels for unidentified roles
    assign: dict[str, int] = {}
    fresh = 0
    for role, _local in block.roles:
        if wanted.get(role, False):
            assign[role] = targets[role]
        else:
            fresh += 1
            assign[role] = Q.n + fresh
    n_total = Q.n + fresh
    local_role = {local: role for role, local in block.roles}
    pairs = set(Q.pairs)
    for a, b in block.poset.pairs:
        pairs.add((assign[local_role[a]], assign[local_role[b]]))

    # peel layers: an element whose generator predecessors are all placed
    # goes next, by label; a longest generator chain is a longest chain of
    # the closure, so this is the (height, label) order
    pred = [0] * (n_total + 1)
    for a, b in pairs:
        pred[b] |= 1 << a
    order: list[int] = []
    placed = 0
    while len(order) < n_total:
        layer = [
            v for v in range(1, n_total + 1) if not placed >> v & 1 and not pred[v] & ~placed
        ]
        if not layer:
            raise InternalInvariant("gluing produced a directed cycle")
        order += layer
        placed |= sum(1 << v for v in layer)
    new_label = {v: k + 1 for k, v in enumerate(order)}
    glued = make_poset(n_total, [(new_label[a], new_label[b]) for a, b in pairs])
    return GluingResult(
        poset=glued,
        q_map={v: new_label[v] for v in range(1, Q.n + 1)},
        role_labels={role: new_label[assign[role]] for role, _ in block.roles},
    )


# ---------------------------------------------------------------------------
# sequences and their replay


@dataclass(frozen=True)
class ContactSequence:
    """An ordered build script: initial block plus gluing steps."""

    steps: tuple[GluingStep, ...]

    def to_json(self) -> dict:
        out = []
        for step in self.steps:
            d: dict = {"block": step.block}
            if step.rule is not None:
                d["rule"] = step.rule
                if step.target_x is not None:
                    d["c"] = step.target_x
                if step.target_y is not None:
                    d["a1"] = step.target_y
                if step.target_z is not None:
                    d["a2"] = step.target_z
            out.append(d)
        return {"steps": out}

    @classmethod
    def from_json(cls, data: dict) -> "ContactSequence":
        try:
            raw = list(data["steps"])
        except (KeyError, TypeError) as exc:
            raise InvalidSequence(0, f"malformed sequence JSON: {exc}") from exc
        steps = []
        for k, entry in enumerate(raw):
            if not isinstance(entry, dict) or "block" not in entry:
                raise InvalidSequence(k, "step is missing its block")
            block, rule = entry["block"], entry.get("rule")
            if type(block) is not str or not (rule is None or type(rule) is str):
                raise InvalidSequence(k, "block and rule must be strings")
            try:
                targets = [json_int(entry[t]) if t in entry else None for t in ("c", "a1", "a2")]
            except TypeError as exc:
                raise InvalidSequence(k, f"malformed target: {exc}") from exc
            steps.append(GluingStep(block, rule, *targets))
        return cls(tuple(steps))


class Replay:
    """Replayed state of a block sequence: the running poset together with
    every step's role labels, carried through the natural relabelings."""

    __slots__ = ("poset", "steps", "roles", "p111_pos")

    def __init__(self, poset, steps, roles, p111_pos):
        self.poset = poset
        self.steps = steps
        self.roles = roles
        self.p111_pos = p111_pos

    @classmethod
    def start(cls, block_kind: str) -> "Replay":
        if block_kind not in BLOCKS:
            raise InvalidSequence(0, f"unknown block {block_kind!r}")
        block = BLOCKS[block_kind]
        return cls(
            block.poset,
            (GluingStep(block_kind),),
            (dict(block.roles),),
            0 if block_kind == "P111" else None,
        )

    def apply_with_map(self, step: GluingStep) -> tuple["Replay", GluingResult]:
        res = apply_gluing(self.poset, step)
        roles = tuple(
            {r: res.q_map[v] for r, v in d.items()} for d in self.roles
        ) + (res.role_labels,)
        p111 = self.p111_pos
        if step.block == "P111" and p111 is None:
            p111 = len(self.steps)
        return Replay(res.poset, self.steps + (step,), roles, p111), res

    def apply(self, step: GluingStep) -> "Replay":
        return self.apply_with_map(step)[0]

    @property
    def p111_used(self) -> bool:
        return self.p111_pos is not None

    def sequence(self) -> ContactSequence:
        return ContactSequence(self.steps)


def validate_contact_sequence(seq: ContactSequence) -> None:
    """Raise InvalidSequence unless `seq` is a contact sequence in the form
    the contact-form recursion accepts: contact rules only, the P(1,1,1)
    block used exactly once and placed first."""
    steps = seq.steps
    if not steps:
        raise InvalidSequence(0, "sequence has no steps")
    if steps[0].rule is not None:
        raise InvalidSequence(0, "the initial step must not carry a rule")
    if steps[0].block not in BLOCKS:
        raise InvalidSequence(0, f"unknown block {steps[0].block!r}")
    p111 = [k for k, s in enumerate(steps) if s.block == "P111"]
    if len(p111) != 1:
        raise InvalidSequence(
            p111[1] if len(p111) > 1 else len(steps) - 1,
            f"a contact sequence uses the P(1,1,1) block exactly once, found {len(p111)}",
        )
    if p111[0] != 0:
        raise InvalidSequence(
            p111[0], "the P(1,1,1) block must be the initial step (reorder the script)"
        )
    for k, s in enumerate(steps[1:], start=1):
        if s.block not in BLOCKS:
            raise InvalidSequence(k, f"unknown block {s.block!r}")
        if s.rule not in CONTACT_RULES:
            raise InvalidSequence(k, f"rule {s.rule!r} is not a contact gluing rule")
        if not rule_applies_to_block(s.rule, s.block):
            raise InvalidSequence(k, f"rule {s.rule} does not apply to block {s.block}")


def replay_sequence(seq: ContactSequence) -> Replay:
    validate_contact_sequence(seq)
    rep = Replay.start(seq.steps[0].block)
    for k, step in enumerate(seq.steps[1:], start=1):
        try:
            rep = rep.apply(step)
        except (RulePreconditionViolated, PolarityMismatch, RuleBlockMismatch) as exc:
            raise InvalidSequence(k, str(exc)) from exc
    return rep


# ---------------------------------------------------------------------------
# the recursive contact form


_FORM_TERMS = {
    ("A", "P11"): (("x", "y"),),
    ("A", "P211"): (("y", "x"), ("z", "x"), ("z", "m")),
    ("A", "P112"): (("x", "y"), ("x", "z"), ("m", "z")),
    ("D1", "P112"): (("x", "z"), ("m", "z")),
    ("D1", "P211"): (("z", "x"), ("z", "m")),
    ("D2", "P112"): (("x", "y"), ("m", "z")),
    ("D2", "P211"): (("y", "x"), ("z", "m")),
    ("F", "P112"): (("m", "z"),),
    ("F", "P211"): (("z", "m"),),
}


def _form_pairs(rep: Replay) -> list[tuple[int, int]]:
    """The off-diagonal positions of the recursive contact form, in the
    final labels, for a replay whose P(1,1,1) block comes first."""
    r0 = rep.roles[0]
    pairs = [(r0["x"], r0["y"]), (r0["m"], r0["y"])]
    for step, roles in zip(rep.steps[1:], rep.roles[1:]):
        if step.block == "P11" and step.rule == "D1":
            continue  # both endpoints identified over an existing relation
        group = "A" if step.rule in ("A1", "A2", "C") else step.rule
        pairs.extend((roles[ra], roles[rb]) for ra, rb in _FORM_TERMS[(group, step.block)])
    return pairs


def contact_form_from_replay(rep: Replay) -> Functional:
    """The recursively accumulated one-form of a replayed contact sequence,
    in the final labels; every coefficient is 1."""
    if rep.p111_pos != 0:
        raise InvalidSequence(0, "the contact form recursion needs the P(1,1,1) block first")
    m = rep.roles[0]["m"]
    terms: dict[tuple[int, int], int] = {(m, m): 1}
    for pos in _form_pairs(rep):
        if pos in terms:
            raise InternalInvariant("duplicate contact-form term")
        terms[pos] = 1
    return Functional.on_positions(terms)


def build_contact_form(seq: ContactSequence) -> Functional:
    """Replay a contact sequence and emit its contact form."""
    return contact_form_from_replay(replay_sequence(seq))


def translate_functional(phi: Functional, mapping: dict[int, int]) -> Functional:
    if phi.kind != "positions":
        raise InternalInvariant("only a form on matrix positions can be relabelled")
    return Functional.on_positions(
        {(mapping[i], mapping[j]): c for (i, j), c in phi.coeffs.items()}
    )


# ---------------------------------------------------------------------------
# verification primitives


def verify_contact_form(alg: LieAlgebra, phi: Functional) -> bool:
    """Determinant criterion: the bordered Kirillov matrix is nonsingular
    (EvenDimension in even dimension)."""
    return nonsingular(kirillov_rows(alg, phi, bordered=True)[0])


def cycle_obstruction(P: Poset) -> Optional[list[int]]:
    """A witness cycle in the Ext-restricted Hasse diagram, when one exists."""
    acyclic, cycle = is_forest(P, restrict_to_ext=True)
    return None if acyclic else cycle


def expected_kernel_coords(P: Poset, block_min: int, block_mid: int) -> list[int]:
    """Integer coordinates of the predicted kernel generator over the type-A basis

        sum over p of E_{p,p}  (p != b)  +  (1 - |P|) E_{b,b}  +  |P| E_{a,b}

    where a = block_min and b = block_mid locate the sequence's P(1,1,1)
    block inside P.  Trace-zero by construction.  The basis is that of
    `build_type_a`: the n - 1 diagonals, then one E_{p,q} per relation in
    the order of P.pairs."""
    n = P.n
    coords = [-1] * (n - 1) + [0] * len(P.pairs)
    coords[block_mid - 2] = n - 1
    coords[n - 1 + P.pairs.index((block_min, block_mid))] = n
    return coords


def expected_kernel(P: Poset) -> list[int]:
    """Kernel generator of the contact form's Kirillov matrix, for a
    connected height-two contact poset, in P's own labels."""
    found = _find_with_replay(P)
    if found is None:
        raise ValueError("poset is not contact, no kernel prediction applies")
    r0 = found.replay.roles[0]
    emb = found.embedding
    return expected_kernel_coords(P, emb[r0["x"]], emb[r0["m"]])


def _annihilates(rows: list[dict[int, int]], coords, off: int = 0) -> bool:
    """coords != 0 and B coords == 0, where B is the square matrix of the
    sparse `rows` without its first `off` rows and columns (exact for
    integer or Fraction coords)."""
    if len(coords) != len(rows) - off:
        raise ShapeMismatch(f"vector length {len(coords)} != {len(rows) - off} columns")
    L = {k + off: c for k, c in enumerate(coords) if c}
    return bool(L) and not any(sum(x * L.get(j, 0) for j, x in row.items()) for row in rows[off:])


def kernel_is_span_of(alg: LieAlgebra, phi: Functional, coords) -> bool:
    """ker(B_phi) == span{coords}: containment plus rank at least dim - 1
    (B is skew with coords != 0 in its kernel, so its rank is at most
    dim - 1)."""
    rows, _ = kirillov_rows(alg, phi)
    return _annihilates(rows, coords) and rank_at_least(rows, alg.dim - 1)


def verify_replay(rep: Replay) -> bool:
    """Check the two facts the constructive direction promises for a
    replayed contact sequence: the accumulated one-form has a nonsingular
    bordered Kirillov matrix, and the predicted generator spans the kernel.

    B L = 0 is checked exactly on the integer rows; a nonsingular bordered
    matrix then pins the rank of B at dim - 1 (skew matrices have even
    rank, and removing the border changes rank by at most two), so the
    kernel is exactly span{L}.
    """
    alg = build_type_a(rep.poset)
    r0 = rep.roles[0]
    coords = expected_kernel_coords(rep.poset, r0["x"], r0["m"])
    rows, _ = kirillov_rows(alg, contact_form_from_replay(rep), bordered=True)
    return _annihilates(rows, coords, off=1) and nonsingular(rows)


# ---------------------------------------------------------------------------
# block decomposition and the sequence search


@dataclass(frozen=True)
class FoundSequence:
    sequence: ContactSequence
    replay: Replay
    embedding: dict[int, int]  # final replay label -> label in the input poset


def _decompose_blocks(P: Poset):
    """The construction block set: one block per interior element, one edge
    block per cover between extremal elements.  Returns None when some
    interior neighborhood is not one of the four building blocks."""
    blocks = []
    for i in P.interior:
        d, _, u = interior_shape(P, i)
        preds = sorted(_bits(P.pred[i - 1]))
        succs = sorted(_bits(P.succ[i - 1]))
        if (d, u) == (1, 1):
            blocks.append(("P111", {"x": preds[0], "m": i, "y": succs[0]}))
        elif (d, u) == (1, 2):
            blocks.append(("P112", {"x": preds[0], "m": i, "y": succs[0], "z": succs[1]}))
        elif (d, u) == (2, 1):
            blocks.append(("P211", {"y": preds[0], "z": preds[1], "m": i, "x": succs[0]}))
        else:
            return None
    ext = set(P.ext)
    for p, q in P.covers:
        if p in ext and q in ext:
            blocks.append(("P11", {"x": p, "y": q}))
    return blocks


def _match_rule(kind, role_map, host, host_label):
    """Decide which contact rule attaches the block to the running poset,
    given which of its elements are already covered (the keys of
    `host_label`, which maps them to labels of `host`).  Returns
    (rule tag, role_map with a-roles normalized) or None when no contact
    rule attaches the block right now."""
    x_cov = role_map["x"] in host_label
    if kind in ("P11", "P111"):
        y_cov = role_map["y"] in host_label
        if not x_cov and not y_cov:
            return None
        if not x_cov:
            return "A1", role_map
        if not y_cov:
            return "C", role_map
        related = host.related(host_label[role_map["x"]], host_label[role_map["y"]])
        return ("D1", role_map) if related else None  # unrelated would be E1
    y, z = role_map["y"], role_map["z"]
    y_cov, z_cov = y in host_label, z in host_label
    if not x_cov and not y_cov and not z_cov:
        return None
    if not x_cov:
        if y_cov and z_cov:
            return None  # pattern B
        if z_cov:  # normalize: the identified a-element plays the a1 role
            role_map = {**role_map, "y": z, "z": y}
        return "A1", role_map
    if not y_cov and not z_cov:
        return "C", role_map
    if y_cov and z_cov:
        rel_y = host.related(host_label[role_map["x"]], host_label[y])
        rel_z = host.related(host_label[role_map["x"]], host_label[z])
        return ("F", role_map) if rel_y and rel_z else None  # G1/G2/H otherwise
    if z_cov:
        role_map = {**role_map, "y": z, "z": y}
    related = host.related(host_label[role_map["x"]], host_label[role_map["y"]])
    return ("D1", role_map) if related else None  # unrelated would be E1


def _find_with_replay(P: Poset) -> Optional[FoundSequence]:
    """Search for a contact sequence decomposing P, the P(1,1,1) block
    placed first: attach the lowest-index remaining block for which
    `_match_rule` gives a rule, until none remains (or none matches).

    Greedy attachment never needs to backtrack.  Under the classifier's
    bullets the Ext-restricted Hasse diagram is a tree.  The running poset
    is connected, and every Ext relation in it is a relation of P.  If a
    block met the running poset in two unrelated extremal elements (the
    patterns B, E, G and H that `_match_rule` refuses), its relation
    between them would close a cycle with a path through the running
    poset.  So while blocks remain, one of them meets the running poset
    (P is connected) in a pattern that a contact rule attaches, and
    attaching it never blocks another."""
    if not P.is_connected:
        raise Disconnected("sequence search requires a connected poset")
    if P.height != 2:
        raise HeightBound("contact sequences build height-two posets")
    blocks = _decompose_blocks(P)
    if blocks is None:
        return None
    p111s = [k for k, (kind, _) in enumerate(blocks) if kind == "P111"]
    if len(p111s) != 1:
        return None
    kind, role_map = blocks.pop(p111s[0])
    replay = Replay.start(kind)
    host_label = {p_elem: dict(BLOCKS[kind].roles)[role] for role, p_elem in role_map.items()}
    while blocks:
        for k, (kind, role_map) in enumerate(blocks):
            match = _match_rule(kind, role_map, replay.poset, host_label)
            if match is not None:
                break
        else:
            return None
        del blocks[k]
        tag, roles = match
        rule = RULES[tag]
        step = GluingStep(
            kind,
            tag,
            target_x=host_label[roles["x"]] if rule.id_c else None,
            target_y=host_label[roles["y"]] if rule.id_a1 else None,
            target_z=host_label[roles["z"]] if rule.id_a2 else None,
        )
        replay, res = replay.apply_with_map(step)
        host_label = {v: res.q_map[lbl] for v, lbl in host_label.items()}
        for role, p_elem in roles.items():
            host_label[p_elem] = res.role_labels[role]
    mapped = {(host_label[a], host_label[b]) for a, b in P.pairs}
    if mapped != set(replay.poset.pairs):
        raise InternalInvariant("replayed poset does not match")
    embedding = {lbl: v for v, lbl in host_label.items()}
    return FoundSequence(replay.sequence(), replay, embedding)


def find_contact_sequence(P: Poset) -> Optional[ContactSequence]:
    """A contact sequence whose replay reproduces P up to isomorphism, or
    None when no such sequence exists."""
    found = _find_with_replay(P)
    return None if found is None else found.sequence


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Obstruction:
    kind: str
    witness: object = None
    message: str = ""


@dataclass(frozen=True)
class Classification:
    contact: bool
    obstruction: Optional[Obstruction] = None
    sequence: Optional[ContactSequence] = None
    components: Optional[tuple[Poset, Poset]] = None
    # internal replay cache; not part of the verdict's identity
    found: Optional[FoundSequence] = field(default=None, compare=False, repr=False)


def classify_h2(P: Poset) -> Classification:
    """Complete combinatorial contact test for height <= 2.

    Disconnected posets are contact exactly when they split into two
    Frobenius components; connected height-two posets exactly when every
    interior neighborhood has two or three extremal elements, exactly one
    has two, and the Ext-restricted Hasse diagram is a tree.  Connected
    posets of height zero or one are never contact.
    """
    if P.height > 2:
        raise HeightBound("classification requires height <= 2")
    if not P.is_connected:
        if P.components != 2:
            return Classification(
                False,
                obstruction=Obstruction(
                    "component-count",
                    P.components,
                    f"{P.components} components, a contact poset has exactly 2",
                ),
            )
        comps = split_components(P)
        for comp, cmap in comps:
            if not is_frobenius_h2(comp):
                members = sorted(cmap)
                return Classification(
                    False,
                    obstruction=Obstruction(
                        "component-not-frobenius",
                        members,
                        f"component {members} is not Frobenius",
                    ),
                )
        return Classification(True, components=(comps[0][0], comps[1][0]))
    if P.height == 0:
        return Classification(
            False,
            obstruction=Obstruction(
                "connected-height-zero", None, "connected height-zero poset (single point)"
            ),
        )
    if P.height == 1:
        return Classification(
            False,
            obstruction=Obstruction(
                "connected-height-one", None, "connected height-one poset"
            ),
        )
    shapes = {i: interior_shape(P, i) for i in P.interior}
    bad = [i for i, (d, _, u) in sorted(shapes.items()) if d + u not in (2, 3)]
    if bad:
        i = bad[0]
        return Classification(
            False,
            obstruction=Obstruction(
                "interior-shape",
                (i, shapes[i]),
                f"interior element {i} has neighborhood shape {shapes[i]}",
            ),
        )
    ones = [i for i, (d, _, u) in sorted(shapes.items()) if d + u == 2]
    if len(ones) != 1:
        return Classification(
            False,
            obstruction=Obstruction(
                "chain-block-count",
                tuple(ones),
                f"{len(ones)} interior elements with a two-point extremal "
                "neighborhood, need exactly one",
            ),
        )
    cyc = cycle_obstruction(P)
    if cyc is not None:
        return Classification(
            False,
            obstruction=Obstruction(
                "ext-cycle", cyc, f"Ext-restricted Hasse diagram contains cycle {cyc}"
            ),
        )
    found = _find_with_replay(P)
    if found is None:
        raise InternalInvariant("classifier bullets hold but no sequence was found")
    return Classification(True, sequence=found.sequence, found=found)


# ---------------------------------------------------------------------------
# the contact decision for algebras


@dataclass(frozen=True)
class ContactVerdict:
    kind: str  # "witness" | "not-contact" | "not-contact-certified"
    form: Optional[Functional] = None
    confidence: Optional[Fraction] = None  # failure bound of a sampled verdict
    reason: Optional[str] = None

    @property
    def is_contact(self) -> bool:
        return self.kind == "witness"


def _witness(form: Functional) -> ContactVerdict:
    return ContactVerdict("witness", form=form)


def classifier_contact_form(P: Poset, classification: Classification, seed: int = 0) -> Functional:
    """A verified contact form for a poset the classifier accepted."""
    if classification.components is not None:
        return _disconnected_form_on(P, seed)
    found = classification.found or _find_with_replay(P)
    phi = contact_form_from_replay(found.replay)
    return translate_functional(phi, found.embedding)


def is_contact(alg: LieAlgebra, trials: int = 3, seed: int = 0, bound: int = 10**6) -> ContactVerdict:
    """Random search for a contact form, upgraded to a certified verdict
    whenever one is available (height <= 2 classifier for poset algebras,
    symbolic Pfaffian for dimension <= 9)."""
    if alg.dim % 2 == 0:
        return ContactVerdict(
            "not-contact-certified", reason=f"even dimension {alg.dim}"
        )
    rng = random.Random(seed)
    for _ in range(trials):
        phi = random_functional(alg, rng, bound)
        if verify_contact_form(alg, phi):
            return _witness(phi)
    if alg.is_matrix_based and alg.origin.height <= 2:
        cls = classify_h2(alg.origin)
        if cls.contact:
            phi = classifier_contact_form(alg.origin, cls, seed=seed)
            if not verify_contact_form(alg, phi):
                raise InternalInvariant("classifier contact form has zero determinant")
            return _witness(phi)
        return ContactVerdict(
            "not-contact-certified", reason=cls.obstruction.message
        )
    if alg.dim <= SYMBOLIC_PFAFFIAN_BOUND:
        mat = symbolic_kirillov(alg, bordered=True)
        if not pfaffian_expansion(mat):
            return ContactVerdict(
                "not-contact-certified",
                reason="extended Pfaffian identically zero",
            )
        # a contact form exists; escalate the sampling range until one is hit
        big = bound
        for _ in range(200):
            big *= 2
            phi = random_functional(alg, rng, big)
            if verify_contact_form(alg, phi):
                return _witness(phi)
        raise RegularSearchExhausted("nonzero Pfaffian but no witness sampled")
    per_trial = min(Fraction(alg.dim + 1, bound), Fraction(1))
    return ContactVerdict("not-contact", confidence=per_trial**trials)


# ---------------------------------------------------------------------------
# disconnected contact forms


def _central_element_data(P1: Poset, P2: Poset):
    """Diagonal coefficients of the canonical central element of the sum."""
    n1, n2 = P1.n, P2.n
    return [n2] * n1 + [-n1] * n2


def disconnected_contact_form(P1: Poset, P2: Poset, seed: int = 0, bound: int = 10**6) -> Functional:
    """A contact form on the algebra of the disjoint sum of two Frobenius
    posets: sample a regular one-form, then move its value on the central
    element to a nonzero point avoiding the finitely many bad values."""
    for comp in (P1, P2):
        if comp.height > 2:
            raise HeightBound("components must have height <= 2")
        if not is_frobenius_h2(comp):
            raise NotFrobenius(f"component {comp!r} is not Frobenius")
    S = disjoint_sum(P1, P2)
    alg = build_type_a(S)
    if alg.dim % 2 != 1:
        raise InternalInvariant(f"sum of two Frobenius algebras has even dimension {alg.dim}")
    diag = _central_element_data(P1, P2)
    n = S.n
    rng = random.Random(seed)
    for _attempt in range(64):
        phi = random_functional(alg, rng, bound)
        if not rank_at_least(kirillov_rows(alg, phi)[0], alg.dim - 1):
            continue  # not regular (odd dimension: the rank is at most dim - 1)
        phi_z = sum(diag[i - 1] * phi.coeffs.get((i, i), Fraction(0)) for i in range(1, n + 1))
        # move along the dual of the central direction: adjusting the
        # (n, n) diagonal coefficient by -delta/|P1| changes phi(z) by delta
        for v in range(1, alg.dim + 3):
            delta = Fraction(v) - phi_z
            coeffs = dict(phi.coeffs)
            coeffs[(n, n)] = coeffs.get((n, n), Fraction(0)) - delta / Fraction(P1.n)
            candidate = Functional.on_positions(coeffs)
            if verify_contact_form(alg, candidate):
                return candidate
    raise RegularSearchExhausted("no regular one-form found within the retry budget")


def _disconnected_form_on(P: Poset, seed: int = 0) -> Functional:
    """Contact form on g_A(P) for a disconnected contact P, translated back
    to P's own labels."""
    comps = split_components(P)
    if len(comps) != 2:
        raise InternalInvariant(f"disconnected contact poset has {len(comps)} components, not 2")
    (C1, map1), (C2, map2) = comps
    phi = disconnected_contact_form(C1, C2, seed=seed)
    # disjoint_sum(C1, C2) uses C1's labels then C2's shifted by |C1|
    back: dict[int, int] = {}
    for orig, local in map1.items():
        back[local] = orig
    for orig, local in map2.items():
        back[local + C1.n] = orig
    return translate_functional(phi, back)


# ---------------------------------------------------------------------------
# exhaustive sequence generation (verification harness)


def _replay_orbit_key(rep: Replay, include_form: bool = True):
    """Canonical key identifying replays up to a relabeling symmetry of the
    accumulated poset that preserves everything the contact form depends on.
    Only a replay whose P(1,1,1) block comes first carries a contact form;
    any other replay is keyed as with `include_form` off."""
    P = rep.poset
    if not include_form or rep.p111_pos != 0:
        return (_canonical_encoding(P), rep.p111_used)
    r0 = rep.roles[0]
    marks = {r0["x"]: "a", r0["m"]: "b", r0["y"]: "c"}
    term_pairs = _form_pairs(rep)
    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for a, b in term_pairs:
        out_deg[a] = out_deg.get(a, 0) + 1
        in_deg[b] = in_deg.get(b, 0) + 1

    def extra_color(v):
        return (out_deg.get(v, 0), in_deg.get(v, 0), marks.get(v, ""))

    def decorate(new):
        return (
            tuple(sorted((new[a], new[b]) for a, b in term_pairs)),
            tuple(sorted((new[v], m) for v, m in marks.items())),
        )

    return _canonical_encoding(P, extra_color, decorate)


def _enumerate_steps(
    poset: Poset,
    kind: str,
    allow_p111: bool = True,
    rules=CONTACT_RULES,
    include_noops: bool = False,
):
    """All gluing steps from the given rule set that attach `kind` to
    `poset`, with every admissible target choice."""
    if kind == "P111" and not allow_p111:
        return
    block = BLOCKS[kind]
    mins, maxs = list(poset.minimal), list(poset.maximal)
    c_pool = mins if block.c_polarity == "min" else maxs
    a_pool = maxs if block.c_polarity == "min" else mins
    for tag in rules:
        if not rule_applies_to_block(tag, kind):
            continue
        if kind == "P11" and tag == "D1" and not include_noops:
            continue  # no-op gluing, never generates a new poset
        rule = RULES[tag]
        xs = c_pool if rule.id_c else [None]
        ys = a_pool if rule.id_a1 else [None]
        zs = a_pool if rule.id_a2 else [None]
        for x in xs:
            for y in ys:
                if rule.cond_y is not None and poset.related(x, y) != rule.cond_y:
                    continue
                for z in zs:
                    if z is not None and z == y:
                        continue
                    if rule.cond_z is not None and poset.related(x, z) != rule.cond_z:
                        continue
                    yield GluingStep(kind, tag, target_x=x, target_y=y, target_z=z)


def generate_contact_replays(
    max_steps: int,
    p111_first: bool = True,
    max_elements: Optional[int] = None,
    include_form: bool = True,
):
    """Exhaustively generate contact-sequence states with at most
    `max_steps` steps (the initial block counts as a step), deduplicated up
    to symmetry of the target choices.  Yields Replay objects; every prefix
    of a contact sequence is itself one, so intermediate states are yielded
    as they are found."""
    starts = ("P111",) if p111_first else BLOCK_KINDS
    seen = set()
    frontier: list[Replay] = []
    for kind in starts:
        rep = Replay.start(kind)
        key = _replay_orbit_key(rep, include_form)
        if key in seen:
            continue
        seen.add(key)
        frontier.append(rep)
        yield rep
    depth = 1
    while frontier and depth < max_steps:
        nxt: list[Replay] = []
        for rep in frontier:
            for kind in BLOCK_KINDS:
                for step in _enumerate_steps(rep.poset, kind, allow_p111=not rep.p111_used):
                    child = rep.apply(step)
                    if max_elements is not None and child.poset.n > max_elements:
                        continue
                    key = _replay_orbit_key(child, include_form)
                    if key in seen:
                        continue
                    seen.add(key)
                    if depth + 1 < max_steps:
                        nxt.append(child)
                    yield child
        frontier = nxt
        depth += 1
