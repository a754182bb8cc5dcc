"""Synthetic reference-stream generators.

Two generators live here:

* :func:`generate_aurora_trace` — an OR-parallel-Prolog-shaped workload
  (the paper's Section 1/5 claim that the cache optimizations carry over
  to non-committed-choice systems such as Aurora).  The real Aurora
  traces of Tick's TR-421 are unavailable, so this models the documented
  mix: WAM-style heap/stack allocation with a high write ratio (Tick
  reports 47 % data writes for Prolog), clause-code fetch loops, binding
  locks, and occasional work stealing that reads a remote worker's
  region.
* :func:`generate_random_trace` — a well-formed random stream (locks are
  acquired and released in trace order) used by the cache property and
  fuzz tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.trace.buffer import TraceBuffer

if TYPE_CHECKING:  # resolved lazily: core.config imports trace.events
    from repro.core.config import OptimizationConfig
from repro.trace.events import AREA_BASE, FLAG_LOCK_CONTENDED, Area, Op


@dataclass(frozen=True)
class AuroraTraceConfig:
    """Knobs of the OR-parallel-Prolog-style generator."""

    n_pes: int = 8
    #: Resolution steps (clause tries) per worker.
    steps_per_pe: int = 20_000
    seed: int = 7
    #: Instructions fetched per resolution step (clause code).
    instructions_per_step: int = 12
    #: Distinct procedures (code working set).
    n_procedures: int = 40
    #: Heap words allocated per step (structure creation — write-once).
    heap_words_per_step: int = 4
    #: Probability a step binds a shared variable under lock.
    p_bind: float = 0.12
    #: Probability a step reads another worker's recent heap (stealing /
    #: binding-array installation).
    p_steal: float = 0.05
    #: Words read from the victim on a steal.
    steal_read_words: int = 8
    #: Probability a step pops (reuses) stack storage instead of growing.
    p_backtrack: float = 0.35
    #: Goal-stack (environment/choicepoint) words touched per step.
    stack_words_per_step: int = 3


def generate_aurora_trace(config: AuroraTraceConfig = AuroraTraceConfig()) -> TraceBuffer:
    """Generate an Aurora-like multi-worker trace.

    Heap allocation uses ``DW`` (new structures, fetch-on-write is
    useless), environments/choicepoints live in the goal area and are
    re-read, shared-variable bindings use ``LR``/``UW``, and steals read
    the victim's heap.  Demoting the optimized commands (an
    ``OptimizationConfig.none()`` replay) yields the unoptimized
    baseline, exactly as for the KL1 benchmarks.
    """
    rng = random.Random(config.seed)
    buffer = TraceBuffer(n_pes=config.n_pes)
    heap_base = AREA_BASE[Area.HEAP]
    goal_base = AREA_BASE[Area.GOAL]
    code_base = AREA_BASE[Area.INSTRUCTION]
    segment = 1 << 24  # per-worker region within each area

    heap_top = [heap_base + pe * segment for pe in range(config.n_pes)]
    stack_top = [goal_base + pe * segment for pe in range(config.n_pes)]
    # Shared variables: one global pool bound under lock.
    shared_vars = [heap_base + (config.n_pes + 1) * segment + 4 * i for i in range(256)]
    procedures = [
        code_base + i * (config.instructions_per_step + rng.randrange(8))
        for i in range(config.n_procedures)
    ]

    append = buffer.append
    for step in range(config.steps_per_pe):
        for pe in range(config.n_pes):
            # Clause code fetch (sequential within the procedure).
            entry = procedures[rng.randrange(config.n_procedures)]
            for offset in range(config.instructions_per_step):
                append(pe, Op.R, Area.INSTRUCTION, entry + offset)
            # Head unification reads recent heap.
            for _ in range(2):
                span = heap_top[pe] - (heap_base + pe * segment)
                if span > 4:
                    append(
                        pe,
                        Op.R,
                        Area.HEAP,
                        heap_top[pe] - 1 - rng.randrange(min(span, 512)),
                    )
            # Structure creation: write-once heap growth (direct write).
            for _ in range(config.heap_words_per_step):
                append(pe, Op.DW, Area.HEAP, heap_top[pe])
                heap_top[pe] += 1
            # Environment / choicepoint traffic on the local stack.
            if rng.random() < config.p_backtrack and stack_top[pe] > goal_base + pe * segment + config.stack_words_per_step:
                stack_top[pe] -= config.stack_words_per_step
                for i in range(config.stack_words_per_step):
                    append(pe, Op.R, Area.GOAL, stack_top[pe] + i)
            else:
                for i in range(config.stack_words_per_step):
                    append(pe, Op.W, Area.GOAL, stack_top[pe] + i)
                stack_top[pe] += config.stack_words_per_step
            # Shared-variable binding under the hardware lock.
            if rng.random() < config.p_bind:
                var = shared_vars[rng.randrange(len(shared_vars))]
                append(pe, Op.LR, Area.HEAP, var)
                append(pe, Op.UW, Area.HEAP, var)
            # Work stealing: read a victim's recently created heap terms.
            if config.n_pes > 1 and rng.random() < config.p_steal:
                victim = rng.randrange(config.n_pes - 1)
                if victim >= pe:
                    victim += 1
                span = heap_top[victim] - (heap_base + victim * segment)
                if span > config.steal_read_words:
                    start = heap_top[victim] - config.steal_read_words
                    for i in range(config.steal_read_words):
                        append(pe, Op.R, Area.HEAP, start + i)
    return buffer


def generate_random_trace(
    n_refs: int,
    n_pes: int = 4,
    seed: int = 0,
    address_pool: int = 512,
    block_words: int = 4,
) -> TraceBuffer:
    """A well-formed random trace for fuzzing the cache protocol.

    Lock operations are made globally consistent in trace order: an LR
    targets only addresses nobody currently holds, and held locks are
    eventually released by their owner, so a replay never blocks.
    """
    rng = random.Random(seed)
    buffer = TraceBuffer(n_pes=n_pes)
    areas = list(Area)
    held = {}  # address -> pe
    held_by_pe = {pe: [] for pe in range(n_pes)}
    plain_ops = [Op.R, Op.W, Op.DW, Op.ER, Op.RP, Op.RI]
    emitted = 0
    while emitted < n_refs:
        pe = rng.randrange(n_pes)
        # Bias toward releasing held locks so they do not accumulate.
        if held_by_pe[pe] and rng.random() < 0.5:
            address = held_by_pe[pe].pop()
            del held[address]
            area = (address >> 28)
            op = Op.UW if rng.random() < 0.7 else Op.U
            buffer.append(pe, op, area, address)
            emitted += 1
            continue
        area = areas[rng.randrange(len(areas))]
        address = AREA_BASE[area] + rng.randrange(address_pool)
        block_base = address & ~(block_words - 1)
        locked_in_block = any(
            (a & ~(block_words - 1)) == block_base and owner != pe
            for a, owner in held.items()
        )
        if locked_in_block:
            continue  # a real program would busy-wait; skip instead
        if rng.random() < 0.08 and address not in held and len(held_by_pe[pe]) < 2:
            held[address] = pe
            held_by_pe[pe].append(address)
            buffer.append(pe, Op.LR, area, address)
            emitted += 1
            continue
        op = plain_ops[rng.randrange(len(plain_ops))]
        buffer.append(pe, op, area, address)
        emitted += 1
    # Drain leftover locks.
    for pe, addresses in held_by_pe.items():
        for address in addresses:
            buffer.append(pe, Op.U, address >> 28, address)
    return buffer


def generate_false_sharing_trace(
    n_refs: int,
    n_pes: int = 4,
    seed: int = 0,
    n_hot_blocks: int = 8,
    block_words: int = 4,
    p_private: float = 0.25,
) -> TraceBuffer:
    """A trace engineered to defeat speculative batching.

    Round-robin over a small pool of hot heap blocks: each round one PE
    writes a word of the round's hot block while every other PE reads a
    *different* word of the same block — the canonical false-sharing
    pattern (word-disjoint, block-overlapping).  A sprinkle of private
    per-PE references (*p_private*) keeps caches realistically mixed.

    Under a LazyPIM config (:mod:`repro.core.speculative`) every
    speculative batch long enough to contain one full round holds a
    write and a concurrent remote read of the same block, so its
    signatures conflict and the batch rolls back: this generator
    *guarantees* a nonzero rollback count for any batch size above
    ``2 * n_pes``, which the forced-conflict fuzz rotation and the CI
    rollback drill rely on.  It emits only ``R``/``W`` (no purging
    commands, no locks), so every read targets live data and the flat
    value oracle of :mod:`repro.verify.oracle` applies unchanged.
    """
    rng = random.Random(seed)
    buffer = TraceBuffer(n_pes=n_pes)
    heap_base = AREA_BASE[Area.HEAP]
    #: Private regions sit past the hot pool so they never collide.
    private_base = heap_base + (n_hot_blocks + 1) * block_words
    append = buffer.append
    emitted = 0
    round_index = 0
    while emitted < n_refs:
        hot = heap_base + (round_index % n_hot_blocks) * block_words
        writer = round_index % n_pes
        for pe in range(n_pes):
            if emitted >= n_refs:
                break
            if pe == writer:
                append(pe, Op.W, Area.HEAP, hot + (pe % block_words))
            else:
                append(pe, Op.R, Area.HEAP, hot + (pe % block_words))
            emitted += 1
            if emitted < n_refs and rng.random() < p_private:
                address = private_base + pe * 64 + rng.randrange(32)
                op = Op.W if rng.random() < 0.5 else Op.R
                append(pe, op, Area.HEAP, address)
                emitted += 1
        round_index += 1
    return buffer


def generate_contract_trace(
    n_refs: int,
    n_pes: int = 4,
    seed: int = 0,
    address_pool: int = 512,
    block_words: int = 4,
    opts: Optional["OptimizationConfig"] = None,
    p_lock: float = 0.08,
    p_contended: float = 0.1,
) -> TraceBuffer:
    """A random trace that also keeps the *software* contracts.

    :func:`generate_random_trace` keeps lock order consistent but freely
    reuses addresses after purging them, which is legal for the hardware
    (the purged data is simply gone) but breaks any value oracle: the
    paper's optimized commands let live data die by design.  This
    generator additionally guarantees every read targets *live* data, so
    a flat word-granularity memory model predicts the exact value of
    every read in the trace — the property
    :mod:`repro.verify.oracle` fuzzes against.

    Concretely, a block is retired (never referenced again) once a
    reference consumes its data under *opts*: an honoured ``RP``
    anywhere in the block, or an honoured ``ER`` of the block's last
    word.  Demoted commands purge nothing, so which references retire
    depends on the optimization flags — pass the same *opts* the replay
    will run with.  Blocks with a held lock are never retired, which
    keeps the trailing lock drain valid.  ``DW`` needs no special care:
    a fetch-free allocation's unwritten words read as shared memory's
    contents, which is exactly the flat model's prediction.

    A ``p_contended`` fraction of lock acquisitions carries
    :data:`~repro.trace.events.FLAG_LOCK_CONTENDED`, re-enacting the
    lock-holder response path identically on every replay path.
    """
    from repro.core.config import OptimizationConfig

    rng = random.Random(seed)
    if opts is None:
        opts = OptimizationConfig.all()
    buffer = TraceBuffer(n_pes=n_pes)
    areas = list(Area)
    held = {}  # address -> pe
    held_by_pe = {pe: [] for pe in range(n_pes)}
    block_mask = block_words - 1
    n_blocks = max(1, address_pool // block_words)
    live = {area: list(range(n_blocks)) for area in areas}
    #: Stop retiring once a quarter of the pool is left: the trace keeps
    #: enough live blocks for sharing and eviction traffic.
    min_live = max(2, n_blocks // 4)
    plain_ops = [Op.R, Op.W, Op.DW, Op.ER, Op.RP, Op.RI]
    emitted = 0
    while emitted < n_refs:
        pe = rng.randrange(n_pes)
        if held_by_pe[pe] and rng.random() < 0.5:
            address = held_by_pe[pe].pop()
            del held[address]
            op = Op.UW if rng.random() < 0.7 else Op.U
            buffer.append(pe, op, address >> 28, address)
            emitted += 1
            continue
        area = areas[rng.randrange(len(areas))]
        blocks = live[area]
        block_index = blocks[rng.randrange(len(blocks))]
        offset = rng.randrange(block_words)
        address = AREA_BASE[area] + block_index * block_words + offset
        block_base = address & ~block_mask
        lock_in_block = [
            (a, owner)
            for a, owner in held.items()
            if (a & ~block_mask) == block_base
        ]
        if any(owner != pe for _, owner in lock_in_block):
            continue  # a real program would busy-wait; skip instead
        if (
            rng.random() < p_lock
            and address not in held
            and len(held_by_pe[pe]) < 2
        ):
            held[address] = pe
            held_by_pe[pe].append(address)
            flags = FLAG_LOCK_CONTENDED if rng.random() < p_contended else 0
            buffer.append(pe, Op.LR, area, address, flags)
            emitted += 1
            continue
        op = plain_ops[rng.randrange(len(plain_ops))]
        consumes = opts.honours(op, area) and (
            op == Op.RP or (op == Op.ER and offset == block_mask)
        )
        if consumes:
            if len(blocks) <= min_live or lock_in_block:
                op = Op.R  # keep the read, skip the purge
            else:
                blocks.remove(block_index)
        buffer.append(pe, op, area, address)
        emitted += 1
    # Drain leftover locks (held blocks were never retired, so the
    # closing UW/U references target live data).
    for pe, addresses in held_by_pe.items():
        for address in addresses:
            op = Op.UW if rng.random() < 0.5 else Op.U
            buffer.append(pe, op, address >> 28, address)
    return buffer
