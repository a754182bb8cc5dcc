"""The per-PE reduction engine and the run-time helpers of compiled code.

Each engine owns a goal list (a deque of goal-record addresses; the
list pointers themselves are processor registers and cost no memory
references, per the paper's accounting).  One call to
:meth:`Engine.step` performs one scheduler turn: answer any pending work
request, then either reduce one goal or run the idle (work-stealing)
protocol.

Reduction of a goal (Section 2.2): dequeue the record — reading it with
``ER``/``RP`` since a dequeued record is dead — and call its
procedure's generated function (:mod:`repro.machine.codegen`), which
tries each clause's passive part, commits to the first that succeeds
and runs its body.  A clause try *fails* on a mismatch and
*suspend-candidates* on an unbound variable; if no clause commits but
candidates exist, the goal is written back as a floating record and
hooked to each variable through suspension records.  Binding a hooked
variable resumes the floating goals onto the binder's goal list.

The functions below are what generated code and the builtins call:
dereferencing a ``REF`` word, passive and active unification, and
suspension.  They take the machine and the engine as arguments; an
engine holds no reference to its machine, so a finished machine is
freed when its last reference goes, without waiting for a collection.

Variable bindings use the hardware lock (``LR`` … ``UW``); new
structures are pushed on the heap top with ``DW``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from repro.machine.errors import ProgramFailure, UnificationFailure
from repro.machine import scheduler
from repro.machine.port import code
from repro.machine.store import SEGMENT_MASK, owner_of
from repro.machine.terms import ATOM, HOOK, INT, LIST, REF, STR, Word
from repro.trace.events import Area, Op

#: Goal-record status word values.
STATUS_RUNNABLE = 0
STATUS_FLOATING = 1

#: :func:`passive_unify`'s result for terms that cannot match.
FAIL = -1

_R_HEAP = code(Op.R, Area.HEAP)


class Engine:
    """One processing element's reduction engine."""

    __slots__ = (
        "pe",
        "goal_list",
        "reductions",
        "suspensions",
        "awaiting",
        "_victim_order",
        "_victim_idx",
        "idle_backoff",
        "_backoff_step",
        "advertising",
    )

    def __init__(self, pe: int, n_pes: int, n_clusters: int = 1):
        self.pe = pe
        self.goal_list: deque = deque()
        self.reductions = 0
        self.suspensions = 0
        #: PE we posted a work request to, awaiting its reply.
        self.awaiting: Optional[int] = None
        self._victim_order = self._build_victim_order(n_pes, n_clusters)
        self._victim_idx = -1  # cursor into the victim order
        #: Turns to stay quiet after an unsuccessful steal round.
        self.idle_backoff = 0
        self._backoff_step = 0
        #: Whether this PE's load-table hint currently advertises work.
        self.advertising = False

    # ------------------------------------------------------------------
    # Scheduler turn
    # ------------------------------------------------------------------

    def step(self, machine) -> None:
        """One scheduler turn: serve requests, then reduce or steal."""
        scheduler.poll_requests(machine, self)
        if self.goal_list:
            self.reduce_one(machine)
        else:
            scheduler.idle_step(machine, self)

    def reduce_one(self, machine) -> None:
        pe = self.pe
        record = self.goal_list.popleft()
        machine.runnable -= 1
        # Read the record with ER (RP on the final word): once dequeued it
        # is dead, so both the local copy and any supplier copy may go.
        words = machine.read_goal_record(pe, record)
        functor_id = words[1]
        args = words[3:]
        machine.goal_area.release(record)
        reduce = machine.reducers.get(functor_id)
        if reduce is not None:
            suspend_vars = reduce(machine, self, args)
        else:
            name = machine.program.builtins.get(functor_id)
            if name is None:
                raise ProgramFailure(
                    f"undefined procedure {machine.symbols.functor_str(functor_id)}"
                )
            stub = machine.program.builtin_stubs[functor_id]
            machine.fetch(pe, stub)
            machine.fetch(pe, stub + 1)
            suspend_vars = machine.builtin_handlers[name](machine, self, args)
        if suspend_vars:
            suspend_goal(machine, self, functor_id, args, suspend_vars)
        self.reductions += 1
        machine.total_reductions += 1

    # ------------------------------------------------------------------

    def _build_victim_order(self, n_pes: int, clusters: int) -> "list[int]":
        """Cyclic victim order for work-requesting, with cluster affinity.

        On a flat machine (one cluster) this is plain round-robin over
        the other PEs, starting after ``self.pe`` — the exact sequence
        the pre-cluster scheduler produced.  On a clustered machine the
        same-cluster peers are interleaved ahead of remote PEs (one full
        local pass between successive remote candidates), so goals
        mostly circulate within a cluster bus and only occasionally
        migrate across the network — the cluster-affinity distribution
        that makes clustered benchmark traces cross-cluster-realistic.
        """
        ring = [(self.pe + step) % n_pes for step in range(1, n_pes)]
        if clusters <= 1:
            return ring
        pes_per_cluster = n_pes // clusters
        my_cluster = self.pe // pes_per_cluster
        local = [q for q in ring if q // pes_per_cluster == my_cluster]
        remote = [q for q in ring if q // pes_per_cluster != my_cluster]
        if not local:
            return remote
        order: "list[int]" = []
        for remote_pe in remote:
            order.extend(local)
            order.append(remote_pe)
        return order

    def next_victim(self) -> int:
        """Next PE to request work from (see :meth:`_build_victim_order`)."""
        order = self._victim_order
        if not order:
            return self.pe
        self._victim_idx = (self._victim_idx + 1) % len(order)
        return order[self._victim_idx]

    def __repr__(self) -> str:
        return (
            f"Engine(pe={self.pe}, goals={len(self.goal_list)}, "
            f"reductions={self.reductions})"
        )


# ----------------------------------------------------------------------
# Dereferencing and unification
# ----------------------------------------------------------------------


def deref(machine, pe: int, address: int) -> Word:
    """Follow the ``REF`` chain from the cell at *address*, reading each
    cell.  Returns ``(REF, a)`` for an unbound (possibly hooked)
    variable at address *a*, or the bound value.  Callers test the tag
    first: a word that is not a ``REF`` is its own value, read-free."""
    cells = machine.heap.cells
    record = machine._record
    kind = pe << 16 | _R_HEAP
    while True:
        record(address << 24 | kind)
        cell = cells[(address >> 24) & 0xF][address & SEGMENT_MASK]
        tag = cell[0]
        if tag == REF:
            if cell[1] == address:
                return cell
            address = cell[1]
        elif tag == HOOK:
            return (REF, address)
        else:
            return cell


def passive_unify(machine, pe: int, word_a: Word, word_b: Word) -> int:
    """Input-only unification: never binds.  Returns 0 if the words
    unify, the address of a variable a binding would need (a suspension
    candidate), or :data:`FAIL` on a mismatch."""
    read = machine.heap_read_i
    stack = [(word_a, word_b)]
    while stack:
        (a_tag, a_value), (b_tag, b_value) = stack.pop()
        if a_tag == REF:
            a_tag, a_value = deref(machine, pe, a_value)
        if b_tag == REF:
            b_tag, b_value = deref(machine, pe, b_value)
        if a_tag == REF or b_tag == REF:
            if a_tag == REF and b_tag == REF and a_value == b_value:
                continue
            return a_value if a_tag == REF else b_value
        if a_tag != b_tag or (a_tag == INT or a_tag == ATOM) and a_value != b_value:
            return FAIL
        if a_tag == LIST:
            car = (read(pe, a_value), read(pe, b_value))
            stack.append((read(pe, a_value + 1), read(pe, b_value + 1)))
            stack.append(car)
        elif a_tag == STR and _push_arguments(machine, pe, a_value, b_value, stack):
            return FAIL
    return 0


def unify_words(machine, engine: Engine, word_a: Word, word_b: Word) -> None:
    """Active (output) unification with hardware-locked bindings."""
    pe = engine.pe
    read = machine.heap_read_i
    stack: List[Tuple[Word, Word]] = [(word_a, word_b)]
    while stack:
        (a_tag, a_value), (b_tag, b_value) = stack.pop()
        if a_tag == REF:
            a_tag, a_value = deref(machine, pe, a_value)
        if b_tag == REF:
            b_tag, b_value = deref(machine, pe, b_value)
        if a_tag == REF and b_tag == REF:
            if a_value == b_value:
                continue
            # Bind the higher address to the lower for stable chains.
            if a_value < b_value:
                target, other = b_value, (REF, a_value)
            else:
                target, other = a_value, (REF, b_value)
            found = bind(machine, engine, target, other)
            if found is not None:
                stack.append((found, other))
        elif a_tag == REF:
            found = bind(machine, engine, a_value, (b_tag, b_value))
            if found is not None:
                stack.append((found, (b_tag, b_value)))
        elif b_tag == REF:
            found = bind(machine, engine, b_value, (a_tag, a_value))
            if found is not None:
                stack.append(((a_tag, a_value), found))
        elif a_tag != b_tag or (a_tag == INT or a_tag == ATOM) and a_value != b_value:
            raise UnificationFailure(
                f"cannot unify {machine.format_word((a_tag, a_value))} "
                f"with {machine.format_word((b_tag, b_value))}"
            )
        elif a_tag == LIST:
            stack.append((read(pe, a_value + 1), read(pe, b_value + 1)))
            stack.append((read(pe, a_value), read(pe, b_value)))
        elif a_tag == STR:
            clash = _push_arguments(machine, pe, a_value, b_value, stack)
            if clash:
                raise UnificationFailure(
                    f"functor clash {machine.symbols.functor_str(clash[0])} "
                    f"vs {machine.symbols.functor_str(clash[1])}"
                )


def _push_arguments(machine, pe: int, a: int, b: int, stack) -> Optional[Tuple[int, int]]:
    """Read the functors of the structures at *a* and *b*; if they
    match, push the argument pairs (last first, as both unifications
    read them) and return None, else return the two functors."""
    read = machine.heap_read_i
    functor_a, functor_b = read(pe, a)[1], read(pe, b)[1]
    if functor_a != functor_b:
        return functor_a, functor_b
    for index in range(machine.symbols.functor_name(functor_a)[1], 0, -1):
        stack.append((read(pe, a + index), read(pe, b + index)))
    return None


def bind(machine, engine: Engine, address: int, word: Word) -> Optional[Word]:
    """Bind the variable at *address* to *word* under the hardware
    lock.  Returns None on success (resuming any hooked goals), or
    the value found if the variable was concurrently bound."""
    pe = engine.pe
    flags = machine.port.roll_conflict(owner_of(address) != pe)
    tag, value = machine.heap_lock_read_i(pe, address, flags)
    if tag == REF and value == address:
        machine.heap_unlock_write_i(pe, address, word, flags)
        return None
    if tag == HOOK:
        machine.heap_unlock_write_i(pe, address, word, flags)
        resume_chain(machine, engine, value)
        return None
    machine.heap_unlock_i(pe, address, flags)
    return (tag, value)


def no_clause(machine, procedure: str, args) -> None:
    """Raise the failure of a goal no clause of *procedure* accepts."""
    raise ProgramFailure(
        f"{procedure} failed on "
        f"({', '.join(machine.format_word(w) for w in args)})"
    )


# ----------------------------------------------------------------------
# Suspension and resumption
# ----------------------------------------------------------------------


def suspend_goal(
    machine, engine: Engine, functor_id: int, args, var_addresses: List[int]
) -> None:
    """Write the goal back as a floating record and hook it to each
    variable through a suspension record."""
    pe = engine.pe
    record = machine.create_goal(pe, functor_id, args, STATUS_FLOATING)
    machine.floating += 1
    for address in var_addresses:
        suspension = machine.susp_area.allocate(pe)
        flags = machine.port.roll_conflict(owner_of(address) != pe)
        tag, value = machine.heap_lock_read_i(pe, address, flags)
        if tag == REF and value == address:
            chain = 0
        elif tag == HOOK:
            chain = value
        else:
            # Bound between the passive read and the hook (cannot
            # happen at reduction granularity; kept for robustness):
            # resume the floating record immediately and stop hooking.
            machine.heap_unlock_i(pe, address, flags)
            machine.susp_area.release(suspension)
            _resume_record(machine, engine, record)
            break
        machine.susp_write_i(pe, suspension, chain)
        machine.susp_write_i(pe, suspension + 1, record)
        machine.susp_write_i(pe, suspension + 2, address)
        machine.heap_unlock_write_i(pe, address, (HOOK, suspension), flags)
    engine.suspensions += 1
    machine.total_suspensions += 1


def resume_chain(machine, engine: Engine, chain: int) -> None:
    """Walk a suspension chain after binding its variable, relinking
    each still-floating goal to this PE's goal list."""
    pe = engine.pe
    while chain:
        next_record = machine.susp_read_i(pe, chain)
        goal = machine.susp_read_i(pe, chain + 1)
        _resume_record(machine, engine, goal)
        machine.susp_area.release(chain)
        chain = next_record


def _resume_record(machine, engine: Engine, record: int) -> None:
    """Relink *record* to this PE's goal list unless another variable's
    binding already resumed it (the status word is checked under lock)."""
    pe = engine.pe
    flags = machine.port.roll_conflict(owner_of(record) != pe)
    status = machine.goal_lock_read_i(pe, record, flags)
    if status == STATUS_FLOATING:
        machine.goal_unlock_write_i(pe, record, STATUS_RUNNABLE, flags)
        engine.goal_list.appendleft(record)
        machine.floating -= 1
        machine.runnable += 1
    else:
        machine.goal_unlock_i(pe, record, flags)
