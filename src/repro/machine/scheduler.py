"""The on-demand (work-stealing) scheduler over the communication area.

The paper's KL1 system balances load by letting *idle* PEs request a
goal from busy PEs through the shared communication area (Section 2.2);
messages are two words, written once and read once, and requests are
posted under the hardware lock because several idle PEs may race for the
same victim.

Protocol, per PE mailbox (a request-flag word and a two-word reply slot):

* requester (idle): ``LR`` the victim's flag; if clear, ``UW`` its own
  id into it and await; else ``U`` and try the next victim next turn.
* victim (every turn): plain-read its own flag — a cache hit in S until
  a requester's locked write invalidates it.  On a request: detach the
  *tail* goal of its list if it has a spare, write the two reply words
  into the requester's slot, clear the flag.
* requester: poll its reply slot with ``RI`` — the slot will be
  rewritten (cleared) right after reading, so fetching it exclusively
  avoids a later invalidate.  A received goal-record address is linked
  into the requester's goal list; the record's *contents* transfer
  cache-to-cache, supplier-invalidated, when the requester dequeues it
  with ``ER`` — exactly the scenario the exclusive-read command exists
  for.
"""

from __future__ import annotations

#: Reply-slot payload markers.  Goal-record addresses are never 0.
EMPTY = 0
NO_GOAL = -1

#: Most goals handed over per work request (chained via link words).
MAX_STEAL_BATCH = 8


def poll_requests(machine, engine) -> None:
    """Serve one pending work request, and keep the advertised-load
    hint current (runs every turn)."""
    if machine.n_pes == 1:
        return  # nobody to request work
    pe = engine.pe
    # Load-table hint: advertise when there are stealable goals, retract
    # when drained.  Idle PEs poll the hint (cheap, cacheable) before
    # paying for a locked request.
    pending = len(engine.goal_list)
    if pending >= 2 and not engine.advertising:
        machine.comm_write_i(pe, machine.comm.load_address(pe), 1)
        engine.advertising = True
    elif pending <= 1 and engine.advertising:
        machine.comm_write_i(pe, machine.comm.load_address(pe), 0)
        engine.advertising = False
    flag_address = machine.comm.flag_address(pe)
    value = machine.comm_read_i(pe, flag_address, invalidate=False)
    if value == 0:
        return
    requester = value - 1
    pending = len(engine.goal_list)
    if pending >= 2:
        # Batch steal: hand over up to half the list (the oldest goals,
        # usually the largest subtrees), chained through the records'
        # link words — the linked-list representation of Section 2.2.
        count = min(pending // 2, MAX_STEAL_BATCH)
        goals = [engine.goal_list.pop() for _ in range(count)]
        machine.runnable -= count
        machine.in_flight += count
        for index, goal in enumerate(goals):
            next_goal = goals[index + 1] if index + 1 < count else 0
            machine.goal_relink_i(pe, goal, next_goal)
        payload = goals[0]
    else:
        payload = NO_GOAL
    reply = machine.comm.reply_address(requester)
    machine.comm_write_i(pe, reply + 1, pe)
    machine.comm_write_i(pe, reply, payload)
    machine.comm_write_i(pe, flag_address, 0)


def idle_step(machine, engine) -> None:
    """One turn of the idle protocol: poll for a reply or post a request."""
    pe = engine.pe
    if machine.n_pes == 1:
        return
    if engine.awaiting is not None:
        reply = machine.comm.reply_address(pe)
        payload = machine.comm_read_i(pe, reply, invalidate=True)
        if payload == EMPTY:
            return
        machine.comm_read_i(pe, reply + 1, invalidate=True)  # sender id
        machine.comm_write_i(pe, reply, EMPTY)
        engine.awaiting = None
        if payload == NO_GOAL:
            # Nothing to steal there: back off (exponentially, capped)
            # before bothering the next victim, as the real scheduler's
            # idle loop does.
            engine._backoff_step = min(engine._backoff_step + 1, 6)
            engine.idle_backoff = (1 << engine._backoff_step) - 1
            return
        # Walk the link-word chain of the stolen batch.
        goal = payload
        while goal:
            next_goal = machine.goal_read_word_i(pe, goal)
            engine.goal_list.append(goal)
            machine.in_flight -= 1
            machine.runnable += 1
            goal = next_goal
        engine._backoff_step = 0
        return
    if engine.idle_backoff > 0:
        engine.idle_backoff -= 1
        return
    victim = engine.next_victim()
    # Consult the victim's advertised load before paying for a locked
    # request; the hint is a cache hit in S unless it recently changed.
    load = machine.comm_read_i(pe, machine.comm.load_address(victim), invalidate=False)
    if not load:
        return  # try the next victim next turn
    flag_address = machine.comm.flag_address(victim)
    flags = machine.port.roll_conflict(True)
    value = machine.comm_lock_read_i(pe, flag_address, flags)
    if value == 0:
        machine.comm_unlock_write_i(pe, flag_address, pe + 1, flags)
        engine.awaiting = victim
    else:
        # Another idle PE beat us to this victim; release and move on.
        machine.comm_unlock_i(pe, flag_address, flags)
