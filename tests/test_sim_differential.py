"""The DES kernel against the kernel it replaced, on random programs.

A process now sleeps by yielding its delay and queues by yielding the
:class:`~repro.sim.Resource`, and both waits reuse the process's one
wake-up event; a stop cancels whichever wait the process is in when it
lands, and closes the generator.  The earlier kernel
(``tests/sim_reference.py``) allocated a ``Timeout`` per sleep and a
request event per queueing, a process cancelled a request by releasing it
in ``finally``, and an ``Interrupt`` that the process does not catch is
its stop.  Both move the clock only for an event something waits on.
Each program below runs on both: the same processes, resources, sleeps,
holds, joins and stops must give the same trace of (process, step, what,
time), the same clock, event count and calendar peak, and the same totals
on every resource.
"""

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource
from tests import sim_reference as ref


class Current:
    """The kernel under test."""

    Environment = Environment
    Resource = Resource

    @staticmethod
    def stop(proc):
        proc.stop()

    @staticmethod
    def sleep(env, delay):
        return delay

    @staticmethod
    def hold(env, res, delay, note):
        yield res
        try:
            note("granted")
            yield delay
            note("held")
        finally:
            res.release()


class Reference:
    """The kernel before sleeps and grants reused a wake-up event."""

    Environment = ref.Environment
    Resource = ref.Resource

    @staticmethod
    def stop(proc):
        proc.interrupt()

    @staticmethod
    def sleep(env, delay):
        return env.timeout(delay)

    @staticmethod
    def hold(env, res, delay, note):
        req = res.request()
        try:
            yield req
            note("granted")
            yield env.timeout(delay)
            note("held")
        finally:
            res.release(req)


def wait_state(proc) -> str:
    """What a stop finds ``proc`` doing (current kernel only)."""
    target = proc._waiting_on
    if not proc.is_alive:
        return "ended"
    if target is None:
        return "not waiting"
    if target is proc._wake:
        return "asleep"
    if isinstance(target, Resource):
        return "granted" if target.holder is proc else "queued"
    # the joined event is firing, and resumes the process before the stop
    # lands
    return "resuming" if target._processed else "joining"


def run(kernel, program, states=None):
    """Run ``program`` on ``kernel``; return everything both must agree on."""
    n_resources, bodies = program
    env = kernel.Environment()
    resources = [kernel.Resource(env) for _ in range(n_resources)]
    procs = []
    trace = []

    def interrupt(pid, step, victim):
        if states is not None:
            states.append(wait_state(procs[victim]))
        try:
            kernel.stop(procs[victim])
            trace.append((pid, step, "interrupt", victim, env.now))
        except RuntimeError:
            trace.append((pid, step, "interrupt refused", victim, env.now))

    def body(pid, instructions):
        # a stopped process does not catch the stop: it runs this
        # ``finally`` (after a hold's) when the stop lands
        try:
            for step, ins in enumerate(instructions):
                kind = ins[0]
                try:
                    value = None
                    if kind == "sleep":
                        yield kernel.sleep(env, ins[1])
                    elif kind == "hold":
                        _, r, delay, victim = ins

                        def note(what, step=step, victim=victim):
                            trace.append((pid, step, what, env.now))
                            if what == "held" and victim is not None:
                                interrupt(pid, step, victim)

                        yield from kernel.hold(env, resources[r], delay, note)
                    elif kind == "join":
                        value = yield procs[ins[1]]
                    else:
                        interrupt(pid, step, ins[1])
                    trace.append((pid, step, kind, env.now, value))
                except ValueError as exc:
                    trace.append((pid, step, "ValueError", str(exc), env.now))
        finally:
            trace.append((pid, "exit", step, env.now))
        return pid

    procs.extend(env.process(body(pid, instrs)) for pid, instrs in enumerate(bodies))
    env.run()
    return {
        # a copy: a process left waiting forever runs its ``finally`` only
        # when its generator is collected
        "trace": list(trace),
        "now": env.now,
        "events": env.events_processed,
        "calendar_peak": env.peak_queue_len,
        "resources": [
            (r.total_wait_time, r.total_grants, r.peak_queue_len, r.in_use, r.queue_len)
            for r in resources
        ],
        "processes": [(p.is_alive, p._value if not p.is_alive else None) for p in procs],
    }


#: small delays, as ints and floats, so that wake-ups tie exactly
DELAYS = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 1.5, 2, 3.0])


@st.composite
def programs(draw):
    n_resources = draw(st.integers(1, 3))
    n_procs = draw(st.integers(1, 6))
    proc = st.integers(0, n_procs - 1)
    instruction = st.one_of(
        st.tuples(st.just("sleep"), DELAYS | st.just(-1.0)),
        st.tuples(st.just("hold"), st.integers(0, n_resources - 1), DELAYS, st.none() | proc),
        st.tuples(st.just("join"), proc),
        st.tuples(st.just("interrupt"), proc),
    )
    bodies = [draw(st.lists(instruction, min_size=1, max_size=8)) for _ in range(n_procs)]
    return n_resources, bodies


#: one program per wait state a stop can find, with the state
ASLEEP = (1, [[("sleep", 5)], [("sleep", 1), ("interrupt", 0)]])
QUEUED = (
    1,
    [[("hold", 0, 5, None)], [("hold", 0, 1, None)], [("sleep", 1), ("interrupt", 1)]],
)
# 0 releases, which grants 1, and stops 1 before it resumes; 2 waits behind
GRANTED = (
    1,
    [
        [("hold", 0, 2, None), ("interrupt", 1), ("sleep", 0)],
        [("sleep", 1), ("hold", 0, 1, None)],
        [("sleep", 1), ("sleep", 0.0), ("hold", 0, 1, None)],
    ],
)
# 0 stops the queued 1 while holding, then releases before the stop lands
QUEUED_THEN_GRANTED = (
    1,
    [
        [("hold", 0, 2, 1), ("hold", 0, 0, None)],
        [("sleep", 1), ("hold", 0, 1, None)],
        [("sleep", 1), ("sleep", 0), ("hold", 0, 3.0, None)],
    ],
)
# 0 and 2 join 1; as 1's end fires, 0 stops 2, which still resumes and is
# granted the slot before the stop lands: the stop must give it back
RESUMING_THEN_GRANTED = (
    1,
    [[("join", 1), ("interrupt", 2)], [("sleep", 0)], [("join", 1), ("hold", 0, 0, None)]],
)
# the same, but 2 resumes into a sleep: its wake-up must fire once, inert
RESUMING_THEN_ASLEEP = (
    1,
    [
        [("join", 1), ("interrupt", 2)],
        [("sleep", -1.0)],
        [("join", 1), ("sleep", 0), ("sleep", 0), ("join", 2)],
    ],
)
EXAMPLES = [
    (ASLEEP, "asleep"),
    (QUEUED, "queued"),
    (GRANTED, "granted"),
    (QUEUED_THEN_GRANTED, "queued"),
    (RESUMING_THEN_GRANTED, "resuming"),
]


@settings(max_examples=300, deadline=None)
@example(ASLEEP)
@example(QUEUED)
@example(GRANTED)
@example(QUEUED_THEN_GRANTED)
@example(RESUMING_THEN_GRANTED)
@example(RESUMING_THEN_ASLEEP)
@given(programs())
def test_kernel_matches_the_reference(program):
    states = []
    got = run(Current, program, states)
    for state in states:
        event(f"a stop finds a process {state}")
    assert got == run(Reference, program)


def test_examples_interrupt_each_wait_state():
    for program, state in EXAMPLES:
        states = []
        got = run(Current, program, states)
        assert states == [state]
        assert got == run(Reference, program)
        assert all(r == (r[0], r[1], r[2], 0, 0) for r in got["resources"])
