"""The multi-PE KL1 machine facade.

:class:`KL1Machine` wires together the compiled program, the backing
stores, the per-PE engines, the scheduler, and the
:class:`~repro.machine.port.MemoryPort` that records the reference
trace.  :meth:`KL1Machine.run` executes a query to completion,
interleaving the PEs one scheduler turn at a time (the paper's tools
synchronize at each bus request; one reduction per turn is the
emulation quantum here), and replays the trace through the cache
system for the run's statistics — the interleaving never depends on
what the cache answers, so simulating apart from emulating counts
exactly what driving the cache live would.  Once a run has recorded
:data:`REPLAY_CHUNK_REFS` references, a forked
:class:`~repro.cluster.replay.ReplayWorker` replays the trace on a
second CPU while the run goes on, fed one chunk at a time; shorter
runs, and hosts where :func:`~repro.cluster.replay.replay_worker_available`
says no, replay after emulating.

All the ``*_i`` methods are the *instrumented* accessors the engines
use: they touch the backing store and record the architecturally
correct memory operation — ``DW`` for heap/goal-record creation,
``ER``/``RP`` for dead-record reads, ``RI`` for message reads,
``LR``/``UW``/``U`` around bindings.  Each appends one packed int,
``address << 24 | pe << 16 | CODE | flags``, to the port's ``words``
array, where ``CODE`` is a module constant per (operation, area) pair
(``_R_HEAP``, ``_DW_GOAL``, ...): one call and one append per
reference, no enum lookup.  Compiled procedures
(:mod:`repro.machine.codegen`) append their instruction fetches, head
reads and goal-record ``DW`` words themselves, the same words with
no call.  When the run ends — normally or by an
exception — and at each hand-off to a replay worker,
:meth:`~repro.machine.port.MemoryPort.flush` splits the words into the
trace's five columns with numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.cluster.network import NetworkStats
from repro.cluster.replay import (
    ReplayWorker,
    replay_machine,
    replay_worker_available,
)
from repro.core.config import MachineConfig, SimulationConfig
from repro.core.replay import refuse_lazypim
from repro.core.stats import SystemStats
from repro.machine import builtins as builtin_module
from repro.machine.codegen import reducers
from repro.machine.compiler import Program, compile_program
from repro.machine.engine import Engine, STATUS_RUNNABLE
from repro.machine.errors import (
    DeadlockError,
    LimitExceededError,
    MachineError,
    ProgramFailure,
)
from repro.machine.parser import parse_goal
from repro.machine.port import MemoryPort, code
from repro.machine.store import (
    CommArea,
    GOAL_BASE,
    HeapStore,
    RecordArea,
    SEGMENT_MASK,
    SEGMENT_SHIFT,
    SUSP_BASE,
    SUSP_STRIDE,
)
from repro.machine.terms import (
    ATOM,
    FUNCTOR,
    HOOK,
    INT,
    LIST,
    REF,
    STR,
    SAtom,
    SInt,
    SList,
    SStruct,
    STerm,
    SVar,
    Word,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import Area, Op

# The packed (op, area) field of every reference the instrumented
# helpers record as ``address << 24 | pe << 16 | CODE | flags`` — the
# port's ADDRESS_SHIFT and PE_SHIFT, written as literals.
_R_INSTRUCTION = code(Op.R, Area.INSTRUCTION)
_R_HEAP = code(Op.R, Area.HEAP)
_DW_HEAP = code(Op.DW, Area.HEAP)
_LR_HEAP = code(Op.LR, Area.HEAP)
_UW_HEAP = code(Op.UW, Area.HEAP)
_U_HEAP = code(Op.U, Area.HEAP)
_DW_GOAL = code(Op.DW, Area.GOAL)
_ER_GOAL = code(Op.ER, Area.GOAL)
_RP_GOAL = code(Op.RP, Area.GOAL)
_R_GOAL = code(Op.R, Area.GOAL)
_W_GOAL = code(Op.W, Area.GOAL)
_LR_GOAL = code(Op.LR, Area.GOAL)
_UW_GOAL = code(Op.UW, Area.GOAL)
_U_GOAL = code(Op.U, Area.GOAL)
_R_SUSP = code(Op.R, Area.SUSPENSION)
_W_SUSP = code(Op.W, Area.SUSPENSION)
_R_COMM = code(Op.R, Area.COMMUNICATION)
_RI_COMM = code(Op.RI, Area.COMMUNICATION)
_W_COMM = code(Op.W, Area.COMMUNICATION)
_LR_COMM = code(Op.LR, Area.COMMUNICATION)
_UW_COMM = code(Op.UW, Area.COMMUNICATION)
_U_COMM = code(Op.U, Area.COMMUNICATION)

#: References recorded between hand-offs to a run's replay worker; a
#: run shorter than one chunk replays after emulating instead.
REPLAY_CHUNK_REFS = 1 << 16


@dataclass
class MachineResult:
    """Outcome of one :meth:`KL1Machine.run`."""

    #: Query-variable bindings, decoded to Python values.
    answer: Dict[str, object]
    reductions: int
    suspensions: int
    #: Instruction words fetched (the paper's "instr" column).
    instructions: int
    #: Total memory references, instruction + data.
    memory_refs: int
    #: Emulation wall time: recording the trace.  The replay is excluded,
    #: and so is the time spent starting and feeding a replay worker
    #: (blocked on a lagging one included), which is subtracted.
    wall_seconds: float
    #: Heap words allocated across all PEs.
    heap_words: int
    #: Per-PE reduction counts (load-balance visibility).
    pe_reductions: List[int] = field(default_factory=list)
    #: Stop-and-copy collections run (0 unless gc_threshold_words set).
    gc_collections: int = 0
    #: Heap words reclaimed across all collections.
    gc_words_reclaimed: int = 0
    #: Trace position of each collection (where replay flushes the caches).
    gc_marks: List[int] = field(default_factory=list)
    #: Cache statistics of the execution-driven run (None if no cache).
    stats: Optional[SystemStats] = None
    #: The recorded reference stream.
    trace: Optional[TraceBuffer] = None
    #: Merged inter-cluster network counters (None on a one-bus machine).
    network: Optional[NetworkStats] = None

    def __repr__(self) -> str:
        return (
            f"MachineResult(reductions={self.reductions}, "
            f"suspensions={self.suspensions}, refs={self.memory_refs}, "
            f"answer={self.answer})"
        )


class KL1Machine:
    """A parallel KL1 abstract machine whose references a PIM cache
    system replays."""

    def __init__(
        self,
        program: Union[str, Program],
        config: MachineConfig = MachineConfig(),
        sim_config: Optional[SimulationConfig] = SimulationConfig(),
    ):
        """Build a machine for *program* (FGHC source or a compiled
        :class:`~repro.machine.compiler.Program`).

        ``sim_config`` is the cache system the run's trace is replayed
        under for :attr:`MachineResult.stats`; its cluster count also
        steers goal scheduling (cluster affinity).  None records the
        trace and reports no cache statistics.  The run's replay cannot
        honour a LazyPIM config, which raises ``ValueError`` here,
        before anything is emulated.
        """
        self.config = config
        self.n_pes = config.n_pes
        if isinstance(program, str):
            program = compile_program(program, max_goal_args=config.max_goal_args)
        self.program = program
        #: functor id -> the procedure's generated function.
        self.reducers = reducers(program)
        self.symbols = program.symbols
        if sim_config is not None:
            refuse_lazypim(sim_config, "the machine's replay")
        self.sim_config = sim_config
        self.n_clusters = (
            sim_config.cluster.n_clusters if sim_config is not None else 1
        )
        if config.n_pes % self.n_clusters != 0:
            raise ValueError(
                f"n_pes ({config.n_pes}) must divide evenly into "
                f"{self.n_clusters} clusters"
            )
        self.trace = TraceBuffer(config.n_pes)
        self.port = MemoryPort(
            self.trace, conflict_rate=config.lock_conflict_rate, seed=config.seed
        )
        #: Appends one packed reference (see the module docstring).
        self._record = self.port.words.append
        self.heap = HeapStore(config.n_pes)
        self.goal_area = RecordArea(GOAL_BASE, config.n_pes, config.goal_record_words)
        self.susp_area = RecordArea(SUSP_BASE, config.n_pes, SUSP_STRIDE)
        self.comm = CommArea(config.n_pes)
        self.builtin_handlers = dict(builtin_module.HANDLERS)
        self.engines = [
            Engine(pe, config.n_pes, self.n_clusters) for pe in range(config.n_pes)
        ]
        # Global goal accounting (meta-counts; register-mapped, uncounted).
        self.runnable = 0
        self.floating = 0
        self.in_flight = 0
        self.total_reductions = 0
        self.total_suspensions = 0
        # Garbage collection (excluded from measurement, per the paper).
        self.query_roots: Dict[str, int] = {}
        self.gc_collections = 0
        self.gc_words_reclaimed = 0
        self.gc_marks: List[int] = []

    # ------------------------------------------------------------------
    # Instrumented access helpers (see module docstring)
    # ------------------------------------------------------------------

    def fetch(self, pe: int, address: int) -> None:
        """One instruction fetch."""
        self._record(address << 24 | pe << 16 | _R_INSTRUCTION)

    # -- heap ---------------------------------------------------------

    def heap_read_i(self, pe: int, address: int) -> Word:
        self._record(address << 24 | pe << 16 | _R_HEAP)
        return self.heap.read(address)

    def heap_alloc_i(self, pe: int, word: Word) -> int:
        """Push *word* on PE's heap top (a direct write)."""
        address = self.heap.allocate(pe, word[0], word[1])
        self._record(address << 24 | pe << 16 | _DW_HEAP)
        return address

    def heap_alloc_unbound_i(self, pe: int) -> int:
        address = self.heap.allocate_unbound(pe)
        self._record(address << 24 | pe << 16 | _DW_HEAP)
        return address

    def heap_lock_read_i(self, pe: int, address: int, flags: int) -> Word:
        self._record(address << 24 | pe << 16 | _LR_HEAP | flags)
        return self.heap.read(address)

    def heap_unlock_write_i(self, pe: int, address: int, word: Word, flags: int) -> None:
        self.heap.write(address, word[0], word[1])
        self._record(address << 24 | pe << 16 | _UW_HEAP | flags)

    def heap_unlock_i(self, pe: int, address: int, flags: int) -> None:
        self._record(address << 24 | pe << 16 | _U_HEAP | flags)

    # -- goal area ------------------------------------------------------

    def goal_write_i(self, pe: int, address: int, value: object) -> None:
        """Record-creation write (direct write; the controller demotes
        non-boundary words to plain writes)."""
        self.goal_area.write(address, value)
        self._record(address << 24 | pe << 16 | _DW_GOAL)

    def read_goal_record(self, pe: int, record: int) -> List[object]:
        """Read a dequeued record's words: ER for all but the last used
        word, RP for the last — the record is dead after this."""
        words = self.goal_area.words[(record >> SEGMENT_SHIFT) & 0xF]
        index = record & SEGMENT_MASK
        used = 3 + words[index + 2]
        record_word = self._record
        first = record << 24 | pe << 16
        last = first + ((used - 1) << 24)
        for packed in range(first | _ER_GOAL, last, 1 << 24):
            record_word(packed)
        record_word(last | _RP_GOAL)
        return words[index:index + used]

    def goal_read_word_i(self, pe: int, address: int) -> object:
        """Plain read of one goal-record word (link-chain walking)."""
        self._record(address << 24 | pe << 16 | _R_GOAL)
        return self.goal_area.read(address)

    def goal_relink_i(self, pe: int, address: int, value: object) -> None:
        """Rewrite a live record's link word (chaining stolen goals)."""
        self.goal_area.write(address, value)
        self._record(address << 24 | pe << 16 | _W_GOAL)

    def goal_lock_read_i(self, pe: int, address: int, flags: int) -> object:
        self._record(address << 24 | pe << 16 | _LR_GOAL | flags)
        return self.goal_area.read(address)

    def goal_unlock_write_i(self, pe: int, address: int, value: object, flags: int) -> None:
        self.goal_area.write(address, value)
        self._record(address << 24 | pe << 16 | _UW_GOAL | flags)

    def goal_unlock_i(self, pe: int, address: int, flags: int) -> None:
        self._record(address << 24 | pe << 16 | _U_GOAL | flags)

    # -- suspension area -------------------------------------------------

    def susp_read_i(self, pe: int, address: int) -> object:
        self._record(address << 24 | pe << 16 | _R_SUSP)
        return self.susp_area.read(address)

    def susp_write_i(self, pe: int, address: int, value: object) -> None:
        self.susp_area.write(address, value)
        self._record(address << 24 | pe << 16 | _W_SUSP)

    # -- communication area -----------------------------------------------

    def comm_read_i(self, pe: int, address: int, invalidate: bool) -> object:
        """Read a mailbox word — with RI when the word will be rewritten
        right after (message consumption), plain R for flag polling."""
        kind = _RI_COMM if invalidate else _R_COMM
        self._record(address << 24 | pe << 16 | kind)
        return self.comm.read(address)

    def comm_write_i(self, pe: int, address: int, value: object) -> None:
        self.comm.write(address, value)
        self._record(address << 24 | pe << 16 | _W_COMM)

    def comm_lock_read_i(self, pe: int, address: int, flags: int) -> object:
        self._record(address << 24 | pe << 16 | _LR_COMM | flags)
        return self.comm.read(address)

    def comm_unlock_write_i(self, pe: int, address: int, value: object, flags: int) -> None:
        self.comm.write(address, value)
        self._record(address << 24 | pe << 16 | _UW_COMM | flags)

    def comm_unlock_i(self, pe: int, address: int, flags: int) -> None:
        self._record(address << 24 | pe << 16 | _U_COMM | flags)

    # ------------------------------------------------------------------
    # Goal creation and query setup
    # ------------------------------------------------------------------

    def create_goal(
        self, pe: int, functor_id: int, args, status: int = STATUS_RUNNABLE
    ) -> int:
        """Write a goal record (runnable unless *status* says floating);
        the caller links it to a list or hooks it to variables."""
        record = self.goal_area.allocate(pe)
        self.goal_write_i(pe, record, status)
        self.goal_write_i(pe, record + 1, functor_id)
        self.goal_write_i(pe, record + 2, len(args))
        for index, word in enumerate(args):
            self.goal_write_i(pe, record + 3 + index, word)
        return record

    def build_term(self, pe: int, term: STerm, variables: Dict[str, int]) -> Word:
        """Construct a source term on PE's heap (for query arguments)."""
        if isinstance(term, SVar):
            if term.name != "_" and term.name in variables:
                return (REF, variables[term.name])
            address = self.heap_alloc_unbound_i(pe)
            if term.name != "_":
                variables[term.name] = address
            return (REF, address)
        if isinstance(term, SInt):
            return (INT, term.value)
        if isinstance(term, SAtom):
            return (ATOM, self.symbols.atom(term.name))
        if isinstance(term, SList):
            head = self.build_term(pe, term.head, variables)
            tail = self.build_term(pe, term.tail, variables)
            address = self.heap_alloc_i(pe, head)
            self.heap_alloc_i(pe, tail)
            return (LIST, address)
        if isinstance(term, SStruct):
            words = [self.build_term(pe, arg, variables) for arg in term.args]
            functor_id = self.symbols.functor(term.name, term.arity)
            address = self.heap_alloc_i(pe, (FUNCTOR, functor_id))
            for word in words:
                self.heap_alloc_i(pe, word)
            return (STR, address)
        raise MachineError(f"cannot build query term {term}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, query: str, max_reductions: Optional[int] = None) -> MachineResult:
        """Reduce *query* (e.g. ``"main(12, Result)"``) to completion."""
        goal = parse_goal(query)
        functor_id = self.symbols.functor(goal.name, len(goal.args))
        if (
            functor_id not in self.program.procedures
            and functor_id not in self.program.builtins
        ):
            raise ProgramFailure(
                f"query names undefined procedure {goal.name}/{len(goal.args)}"
            )
        cap = max_reductions if max_reductions is not None else self.config.max_reductions
        gc_threshold = self.config.gc_threshold_words
        engines = self.engines
        n_pes = self.n_pes
        sweep = 0
        # Past one chunk of references, a forked worker replays the
        # trace while it is recorded, if the host allows one.
        words = self.port.words
        stream = self.sim_config is not None and replay_worker_available()
        chunk = REPLAY_CHUNK_REFS
        worker: Optional[ReplayWorker] = None
        handoff = 0.0
        started = time.perf_counter()
        # The packed references become the trace's columns when the run
        # ends, also when it raises: a cut-off run keeps its prefix.
        try:
            try:
                self.query_roots = {}
                args = tuple(
                    self.build_term(0, arg, self.query_roots) for arg in goal.args
                )
                record = self.create_goal(0, functor_id, args)
                engines[0].goal_list.append(record)
                self.runnable += 1
                while True:
                    if self.runnable == 0 and self.in_flight == 0:
                        if self.floating == 0:
                            break
                        raise DeadlockError(
                            f"{self.floating} goal(s) suspended forever; "
                            "the program is waiting on variables nobody will bind"
                        )
                    offset = sweep % n_pes
                    for position in range(n_pes):
                        engines[(position + offset) % n_pes].step(self)
                    sweep += 1
                    if self.total_reductions > cap:
                        raise LimitExceededError(
                            f"exceeded {cap} reductions; raise max_reductions if intended"
                        )
                    if gc_threshold is not None and any(
                        self.heap.top(pe) > gc_threshold for pe in range(n_pes)
                    ):
                        self.collect()
                    if stream and len(words) >= chunk:
                        self.port.flush()
                        handed = time.perf_counter()
                        if worker is None:
                            worker = ReplayWorker(
                                self.trace, self.sim_config, self.gc_marks
                            )
                        else:
                            worker.feed()
                        handoff += time.perf_counter() - handed
            finally:
                self.port.flush()
        except BaseException:
            if worker is not None:
                worker.close()
            raise
        wall = time.perf_counter() - started - handoff
        stats = network = None
        if worker is not None:
            stats, network = worker.result()
        elif self.sim_config is not None:
            stats, network = replay_machine(
                self.trace, self.sim_config, self.gc_marks
            )

        answer = {
            name: self.decode((REF, address))
            for name, address in self.query_roots.items()
        }
        return MachineResult(
            answer=answer,
            reductions=self.total_reductions,
            suspensions=self.total_suspensions,
            instructions=self.port.instruction_refs,
            memory_refs=self.port.total_refs,
            wall_seconds=wall,
            heap_words=self.heap.total_words(),
            pe_reductions=[engine.reductions for engine in engines],
            gc_collections=self.gc_collections,
            gc_words_reclaimed=self.gc_words_reclaimed,
            gc_marks=list(self.gc_marks),
            stats=stats,
            trace=self.trace,
            network=network,
        )

    def collect(self):
        """Run one stop-and-copy garbage collection (see
        :mod:`repro.machine.gc`)."""
        from repro.machine import gc as gc_module

        return gc_module.collect(self)

    # ------------------------------------------------------------------
    # Decoding (uninstrumented; for answers, tests and error messages)
    # ------------------------------------------------------------------

    def decode(self, word: Word):
        """Decode a tagged word to a Python value: ints, atom strings,
        lists, ``(functor, args...)`` tuples; unbound variables decode to
        ``"_G<address>"`` strings."""
        tag, value = self._peek(word)
        if tag == REF:
            return f"_G{value:x}"
        if tag == INT:
            return value
        if tag == ATOM:
            return self.symbols.atom_name(value)
        if tag == LIST:
            items = []
            while tag == LIST:
                items.append(self.decode(self.heap.read(value)))
                tag, value = self._peek(self.heap.read(value + 1))
            if tag == ATOM and self.symbols.atom_name(value) == "[]":
                return items
            return (items, self.decode((tag, value)))  # improper list
        if tag == STR:
            _, functor_id = self.heap.read(value)
            name, arity = self.symbols.functor_name(functor_id)
            return tuple(
                [name]
                + [self.decode(self.heap.read(value + 1 + i)) for i in range(arity)]
            )
        raise MachineError(f"cannot decode word {(tag, value)}")  # pragma: no cover

    def _peek(self, word: Word) -> Word:
        """Uninstrumented dereference."""
        tag, value = word
        while tag == REF:
            cell_tag, cell_value = self.heap.read(value)
            if cell_tag == REF:
                if cell_value == value:
                    return (REF, value)
                value = cell_value
            elif cell_tag == HOOK:
                return (REF, value)
            else:
                return (cell_tag, cell_value)
        return (tag, value)

    def format_word(self, word: Word) -> str:
        """Render a tagged word for error messages."""
        decoded = self.decode(word)
        return repr(decoded)

    def __repr__(self) -> str:
        return (
            f"KL1Machine(n_pes={self.n_pes}, "
            f"procedures={len(self.program.procedures)}, "
            f"reductions={self.total_reductions})"
        )
