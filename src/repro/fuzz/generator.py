"""Pathology-biased random program generator for differential fuzzing.

Promoted and generalized from the PR-1 differential-oracle test: random
short programs over the MIPS-like ISA, biased toward the memory-dependence
corner cases where store-load communication machinery breaks -- the
distributions named by the paper's hardest structures (store-set training,
T-SSBF membership, BAB partial overlaps, predicated CMOV + re-execution).

Programs are generated as a serializable *IR* (plain JSON-able dict):
a data segment, register initializers, a loop body of abstract ops, and a
list of callable functions.  :func:`materialize` lowers the IR to a
:class:`~repro.isa.Program` through :class:`~repro.isa.ProgramBuilder`.
The split is what makes campaigns reproducible and minimizable:

* a failure artifact embeds the IR verbatim, so the reproducer survives
  generator edits (see :mod:`repro.fuzz.artifacts`);
* the delta-debugging minimizer shrinks the IR op list and operand pool
  (see :mod:`repro.fuzz.minimize`) instead of re-rolling RNG streams.

Bias is expressed as a :class:`BiasProfile`: cumulative body-op kind
probabilities plus *pathology clusters* -- multi-op sequences that plant a
guaranteed silent store, a partial-word/BAB overlap, a store->load
collision at a tunable rate, a pointer chase through memory, or a
stack-frame call chain.  ``PROFILES`` names the distilled presets.

Compatibility contract: :func:`build_random_program` with the ``baseline``
profile consumes its RNG in exactly the order of the original test-suite
generator, so the fixed-seed oracle programs stay byte-identical (pinned
by hash in ``tests/test_fuzz_generator.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import Program, ProgramBuilder

IR_FORMAT = 1

# Working registers the generator may clobber; $s0 (buffer base), $s6/$s7
# (loop bound/counter), $sp and $ra stay out of the destination pool.
REGS = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7", "$t8"]
BUF_WORDS = 16

ALU_RRR = ["add", "sub", "and_", "or_", "xor", "nor", "slt", "sltu",
           "sllv", "srlv", "srav", "mul", "mulh", "div", "rem"]
ALU_RRI = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
SHIFTS = ["sll", "srl", "sra"]

_STORES_BY_SIZE = {4: "sw", 2: "sh", 1: "sb"}

_VERSION: Optional[str] = None


def generator_version() -> str:
    """Content hash of this module's source: stamped into every campaign
    artifact so a reproducer regenerated from (profile, seed) can detect
    that the generator changed underneath it (stale-artifact check)."""
    global _VERSION
    if _VERSION is None:
        with open(__file__.rstrip("c"), "rb") as handle:
            _VERSION = hashlib.sha256(handle.read()).hexdigest()[:16]
    return _VERSION


# -- bias profiles -----------------------------------------------------------

@dataclass(frozen=True)
class BiasProfile:
    """One named generation bias: op mix, offsets, pathology clusters.

    The body-op kind is drawn once per op: the pathology-cluster
    probabilities are checked first (in field order), then the base kinds
    at their cumulative thresholds; the remainder is plain ALU.  All
    fields are JSON-serializable so a profile travels inside artifacts
    and across worker processes verbatim.
    """

    name: str
    description: str = ""
    buf_words: int = BUF_WORDS
    loop_iters: Tuple[int, int] = (8, 24)
    body_ops: Tuple[int, int] = (10, 18)
    # Base body-op mix (probability mass per kind, applied cumulatively
    # after the cluster kinds; baseline reproduces the legacy thresholds
    # 0.20 / 0.45 / 0.53 / 0.58).
    p_store: float = 0.20
    p_load: float = 0.25
    p_branch: float = 0.08
    p_call: float = 0.05
    # Pathology clusters (multi-op emissions).
    p_collide: float = 0.0       # load aimed at a recently stored offset
    p_silent: float = 0.0        # guaranteed silent store (lw x; sw x)
    p_partial: float = 0.0       # partial-word/BAB overlap pair
    p_chase: float = 0.0         # pointer chase through memory
    # Offset pool shape (frequent-dependence hot pool).
    offset_hot_slots: int = 6
    offset_hot_fraction: float = 0.7
    # T-SSBF tag aliasing: when ``alias_stride_words`` > 0, offsets are
    # drawn as slot + k*stride words, so accesses collide in the filter's
    # set index while carrying distinct tags.
    alias_stride_words: int = 0
    alias_slots: int = 4
    # Stack-heavy call chains: N generated functions with real frames
    # ($sp adjust, $ra/$tX save + restore), chained fn0 -> fn1 -> ...
    stack_funcs: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BiasProfile":
        fields = dict(data)
        for key in ("loop_iters", "body_ops"):
            if key in fields:
                fields[key] = tuple(fields[key])
        return cls(**fields)


PROFILES: Dict[str, BiasProfile] = {
    profile.name: profile for profile in (
        BiasProfile(
            name="baseline",
            description="legacy oracle mix: hot offset pool, forward "
                        "branches, leaf calls"),
        BiasProfile(
            name="mixed",
            description="all pathologies at moderate rates",
            p_store=0.14, p_load=0.18, p_branch=0.06, p_call=0.04,
            p_collide=0.08, p_silent=0.06, p_partial=0.08, p_chase=0.06),
        BiasProfile(
            name="colliding",
            description="occasionally-colliding store->load pairs at a "
                        "tunable rate (p_collide)",
            p_store=0.30, p_load=0.05, p_branch=0.05, p_call=0.02,
            p_collide=0.30, offset_hot_slots=4),
        BiasProfile(
            name="silent-store",
            description="stores that rewrite the value already in memory",
            p_store=0.15, p_load=0.15, p_branch=0.05, p_call=0.02,
            p_silent=0.25),
        BiasProfile(
            name="partial-overlap",
            description="partial-word/BAB overlaps: sw->lb/lh and sb->lw "
                        "pairs over the same word",
            p_store=0.15, p_load=0.15, p_branch=0.05, p_call=0.02,
            p_partial=0.30),
        BiasProfile(
            name="pointer-chase",
            description="loads whose addresses are loaded from memory",
            p_store=0.10, p_load=0.10, p_branch=0.05, p_call=0.02,
            p_chase=0.25, body_ops=(8, 14)),
        BiasProfile(
            name="tag-alias",
            description="addresses colliding in the T-SSBF set index "
                        "with distinct tags (default filter: 32 sets)",
            buf_words=256, p_store=0.30, p_load=0.35, p_branch=0.04,
            p_call=0.02, alias_stride_words=32, alias_slots=4),
        BiasProfile(
            name="stack-heavy",
            description="chained calls with real stack frames: $ra/$tX "
                        "save + restore through $sp",
            p_store=0.12, p_load=0.15, p_branch=0.05, p_call=0.25,
            stack_funcs=3),
    )
}


@dataclass(frozen=True)
class ProgramSpec:
    """A seeded, serializable generation request: (profile, seed)."""

    profile: BiasProfile
    seed: int

    @property
    def program_id(self) -> str:
        return "fuzz-%s-%d" % (self.profile.name, self.seed)

    def generate(self) -> Dict[str, object]:
        """The deterministic IR for this spec."""
        return generate_ir(random.Random(self.seed), self.profile)

    def to_dict(self) -> Dict[str, object]:
        return {"profile": self.profile.to_dict(), "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProgramSpec":
        return cls(profile=BiasProfile.from_dict(data["profile"]),
                   seed=int(data["seed"]))


def get_profile(name: str, **overrides) -> BiasProfile:
    """Look up a named profile, optionally overriding knobs (e.g. a
    tunable collision rate: ``get_profile("colliding", p_collide=0.6)``)."""
    try:
        profile = PROFILES[name]
    except KeyError:
        raise ValueError("unknown bias profile %r (choose from %s)"
                         % (name, ", ".join(sorted(PROFILES)))) from None
    return replace(profile, **overrides) if overrides else profile


# -- generation --------------------------------------------------------------

@dataclass
class _GenState:
    """Generation-time memory of recent stores (collision targeting)."""

    recent_stores: List[Tuple[int, int]] = field(default_factory=list)

    def record(self, size: int, off: int) -> None:
        self.recent_stores.append((size, off))
        if len(self.recent_stores) > 8:
            self.recent_stores.pop(0)


def _mem_offset(rng: random.Random, size: int,
                profile: BiasProfile) -> int:
    """Aligned offset into the data buffer, drawn from a small pool so
    store->load dependences, silent stores, and partial overlaps recur.

    In tag-aliasing mode the word slot is slot + k*stride, so accesses
    share a T-SSBF set index while their tags differ."""
    if profile.alias_stride_words:
        stride = profile.alias_stride_words
        slot = rng.randrange(profile.alias_slots)
        k = rng.randrange(max(1, profile.buf_words // stride))
        woff = 4 * ((slot + k * stride) % profile.buf_words)
        return woff if size == 4 else woff + size * rng.randrange(4 // size)
    limit = 4 * profile.buf_words
    slots = min(profile.offset_hot_slots, limit // size)
    return size * rng.randrange(slots) \
        if rng.random() < profile.offset_hot_fraction \
        else size * rng.randrange(limit // size)


def _gen_alu(rng: random.Random, profile: BiasProfile) -> List[object]:
    form = rng.random()
    dst = rng.choice(REGS)
    if form < 0.5:
        return ["alu3", rng.choice(ALU_RRR), dst, rng.choice(REGS),
                rng.choice(REGS)]
    if form < 0.8:
        return ["alui", rng.choice(ALU_RRI), dst, rng.choice(REGS),
                rng.randint(-128, 127)]
    return ["shift", rng.choice(SHIFTS), dst, rng.choice(REGS),
            rng.randint(0, 7)]


def _gen_store(rng, profile, state) -> List[List[object]]:
    size = rng.choice([4, 4, 2, 1])
    off = _mem_offset(rng, size, profile)
    op = ["store", _STORES_BY_SIZE[size], rng.choice(REGS), off]
    state.record(size, off)
    return [op]


def _gen_load(rng, profile, state) -> List[List[object]]:
    mnem, size = rng.choice([("lw", 4), ("lw", 4), ("lh", 2),
                             ("lhu", 2), ("lb", 1), ("lbu", 1)])
    return [["load", mnem, rng.choice(REGS), _mem_offset(rng, size,
                                                         profile)]]


def _gen_branch(rng, profile, state) -> List[List[object]]:
    mnem = rng.choice(["beq", "bne", "blt", "bge"])
    lhs = rng.choice(REGS)
    rhs = rng.choice(REGS)
    skipped = []
    for _ in range(rng.randint(1, 2)):
        skipped.append(_gen_alu(rng, profile))
    return [["branch", mnem, lhs, rhs, skipped]]


def _gen_call(rng, profile, state) -> List[List[object]]:
    if profile.stack_funcs:
        index = rng.randrange(profile.stack_funcs + 1)
        name = "leaf" if index == profile.stack_funcs else "fn%d" % index
        return [["call", name]]
    return [["call", "leaf"]]


def _gen_collide(rng, profile, state) -> List[List[object]]:
    """A load aimed exactly at a recently stored (size, offset) pair."""
    if not state.recent_stores:
        return _gen_load(rng, profile, state)
    size, off = rng.choice(state.recent_stores)
    if size == 4:
        mnem = "lw"
    elif size == 2:
        mnem = rng.choice(["lh", "lhu"])
    else:
        mnem = rng.choice(["lb", "lbu"])
    return [["load", mnem, rng.choice(REGS), off]]


def _gen_silent(rng, profile, state) -> List[List[object]]:
    """A guaranteed silent store: load a word, store it straight back."""
    off = 4 * rng.randrange(profile.buf_words)
    reg = rng.choice(REGS)
    state.record(4, off)
    return [["load", "lw", reg, off], ["store", "sw", reg, off]]


def _gen_partial(rng, profile, state) -> List[List[object]]:
    """A partial-word overlap: sw then lb/lh inside the word, or sb then
    lw over it -- the BAB cases (paper Section IV-D)."""
    woff = 4 * rng.randrange(profile.buf_words)
    src = rng.choice(REGS)
    dst = rng.choice(REGS)
    if rng.random() < 0.5:
        mnem, size = rng.choice([("lb", 1), ("lbu", 1), ("lh", 2),
                                 ("lhu", 2)])
        sub = size * rng.randrange(4 // size)
        state.record(4, woff)
        return [["store", "sw", src, woff], ["load", mnem, dst, woff + sub]]
    sub = rng.randrange(4)
    state.record(1, woff + sub)
    return [["store", "sb", src, woff + sub], ["load", "lw", dst, woff]]


def _gen_chase(rng, profile, state) -> List[List[object]]:
    """A pointer chase: store a buffer address, load it back, and load
    *through* it.  The loaded pointer is realigned (srl;sll) so a chase
    through a clobbered slot still yields an aligned (if wild) address."""
    ptr_off = 4 * rng.randrange(profile.buf_words)
    tgt_off = 4 * rng.randrange(profile.buf_words)
    ra = rng.choice(REGS)
    rb = rng.choice(REGS)
    rc = rng.choice(REGS)
    state.record(4, ptr_off)
    return [["alui", "addi", ra, "$s0", tgt_off],
            ["store", "sw", ra, ptr_off],
            ["load", "lw", rb, ptr_off],
            ["shift", "srl", rb, rb, 2],
            ["shift", "sll", rb, rb, 2],
            ["load", "lw", rc, 0, rb]]


# Cluster kinds are drawn before the base kinds, in this order; with all
# cluster probabilities at zero (baseline) the draw stream reduces to the
# legacy store/load/branch/call/alu thresholds exactly.
_CLUSTERS = (("p_collide", _gen_collide), ("p_silent", _gen_silent),
             ("p_partial", _gen_partial), ("p_chase", _gen_chase))
_BASE = (("p_store", _gen_store), ("p_load", _gen_load),
         ("p_branch", _gen_branch), ("p_call", _gen_call))


def _gen_body_op(rng, profile, state) -> List[List[object]]:
    kind = rng.random()
    edge = 0.0
    for attr, gen in _CLUSTERS + _BASE:
        edge += getattr(profile, attr)
        if kind < edge:
            return gen(rng, profile, state)
    return [_gen_alu(rng, profile)]


def _gen_stack_func(rng, profile, index: int) -> List[object]:
    """One callable with a real frame: $ra (and one $tX) saved to the
    stack, a couple of body ops, optional chained call to the next
    function, then restore + frame pop (jr appended by materialize)."""
    saved = rng.choice(REGS)
    frame = 8
    ops = [["alui", "addi", "$sp", "$sp", -frame],
           ["store", "sw", "$ra", 0, "$sp"],
           ["store", "sw", saved, 4, "$sp"]]
    for _ in range(rng.randint(1, 3)):
        ops.append(_gen_alu(rng, profile))
    if index + 1 < profile.stack_funcs and rng.random() < 0.6:
        ops.append(["call", "fn%d" % (index + 1)])
    ops.append(["load", "lw", saved, 4, "$sp"])
    ops.append(["load", "lw", "$ra", 0, "$sp"])
    ops.append(["alui", "addi", "$sp", "$sp", frame])
    return [("fn%d" % index), ops]


def generate_ir(rng: random.Random,
                profile: BiasProfile) -> Dict[str, object]:
    """Generate one program IR: deterministic in (rng state, profile)."""
    data_words = [rng.getrandbits(32) for _ in range(profile.buf_words)]
    reg_init = [[reg, rng.getrandbits(16)] for reg in REGS]
    loop_iters = rng.randint(*profile.loop_iters)
    count = rng.randint(*profile.body_ops)
    state = _GenState()
    body: List[List[object]] = []
    for _ in range(count):
        body.extend(_gen_body_op(rng, profile, state))
    funcs: List[List[object]] = []
    for index in range(profile.stack_funcs):
        funcs.append(_gen_stack_func(rng, profile, index))
    funcs.append(["leaf", [_gen_alu(rng, profile)]])
    return {"format": IR_FORMAT, "profile": profile.name,
            "data_words": data_words, "reg_init": reg_init,
            "loop_iters": loop_iters, "body": body, "funcs": funcs}


# -- materialization ---------------------------------------------------------

_OP_KINDS = ("alu3", "alui", "shift", "load", "store", "branch", "call")


def _emit(b: ProgramBuilder, op: Sequence[object],
          skip_count: List[int]) -> None:
    kind = op[0]
    if kind in ("alu3", "alui", "shift"):
        getattr(b, op[1])(op[2], op[3], op[4])
    elif kind == "load":
        base = op[4] if len(op) > 4 else "$s0"
        getattr(b, op[1])(op[2], op[3], base)
    elif kind == "store":
        base = op[4] if len(op) > 4 else "$s0"
        getattr(b, op[1])(op[2], op[3], base)
    elif kind == "branch":
        label = "skip%d" % skip_count[0]
        skip_count[0] += 1
        getattr(b, op[1])(op[2], op[3], label)
        for sub in op[4]:
            _emit(b, sub, skip_count)
        b.label(label)
    elif kind == "call":
        b.jal(op[1])
    else:
        raise ValueError("unknown IR op kind %r" % (kind,))


def materialize(ir: Dict[str, object]) -> Program:
    """Lower an IR dict to an assembled :class:`Program`.

    The skeleton is fixed (and matches the legacy test generator): data
    buffer, register initializers, a counted loop around the body ops,
    halt, then every function (jr $ra appended)."""
    b = ProgramBuilder()
    b.data_label("buf")
    b.word(*ir["data_words"])
    b.label("main")
    b.la("$s0", "buf")
    for reg, value in ir["reg_init"]:
        b.li(reg, value)
    b.li("$s7", 0)
    b.li("$s6", ir["loop_iters"])
    skip_count = [0]
    b.label("loop")
    for op in ir["body"]:
        _emit(b, op, skip_count)
    b.addi("$s7", "$s7", 1)
    b.blt("$s7", "$s6", "loop")
    b.halt()
    for name, ops in ir["funcs"]:
        b.label(name)
        for op in ops:
            _emit(b, op, skip_count)
        b.jr("$ra")
    return b.build()


def build_random_program(rng: random.Random) -> Program:
    """Legacy entry point (differential-oracle suite): baseline profile.

    Byte-identical to the original in-test generator for any RNG state --
    the oracle suite's fixed-seed programs are pinned by hash in
    ``tests/test_fuzz_generator.py``."""
    return materialize(generate_ir(rng, PROFILES["baseline"]))


# -- IR plumbing -------------------------------------------------------------

def ir_to_json(ir: Dict[str, object]) -> str:
    return json.dumps(ir, sort_keys=True, separators=(",", ":"))


def ir_from_json(text: str) -> Dict[str, object]:
    ir = json.loads(text)
    validate_ir(ir)
    return ir


def _validate_ops(ops, where: str) -> None:
    for op in ops:
        if not isinstance(op, (list, tuple)) or not op:
            raise ValueError("malformed op %r in %s" % (op, where))
        if op[0] not in _OP_KINDS:
            raise ValueError("unknown op kind %r in %s" % (op[0], where))
        if op[0] == "branch":
            _validate_ops(op[4], where + "/branch")


def validate_ir(ir: Dict[str, object]) -> None:
    """Structural check for IR loaded from untrusted JSON (artifacts)."""
    if not isinstance(ir, dict):
        raise ValueError("IR must be an object, got %s" % type(ir).__name__)
    if ir.get("format") != IR_FORMAT:
        raise ValueError("unsupported IR format %r (expected %d)"
                         % (ir.get("format"), IR_FORMAT))
    for key in ("data_words", "reg_init", "loop_iters", "body", "funcs"):
        if key not in ir:
            raise ValueError("IR missing %r" % key)
    _validate_ops(ir["body"], "body")
    for name, ops in ir["funcs"]:
        _validate_ops(ops, "func %s" % name)


def called_functions(ir: Dict[str, object]) -> List[str]:
    """Function names transitively reachable from the loop body."""
    graph: Dict[str, List[str]] = {}
    for name, ops in ir["funcs"]:
        graph[name] = _calls_in(ops)
    seen: List[str] = []
    frontier = _calls_in(ir["body"])
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.append(name)
        frontier.extend(graph.get(name, []))
    return seen


def _calls_in(ops) -> List[str]:
    out = []
    for op in ops:
        if op[0] == "call":
            out.append(op[1])
        elif op[0] == "branch":
            out.extend(_calls_in(op[4]))
    return out


__all__ = [
    "ALU_RRI", "ALU_RRR", "BUF_WORDS", "BiasProfile", "IR_FORMAT",
    "PROFILES", "ProgramSpec", "REGS", "SHIFTS", "build_random_program",
    "called_functions", "generate_ir", "generator_version", "get_profile",
    "ir_from_json", "ir_to_json", "materialize", "validate_ir",
]
