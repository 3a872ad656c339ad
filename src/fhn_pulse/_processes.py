"""Two processes for one computation: a child forked to run one part
while this process runs the other, and the barrier at which two such
processes meet through shared memory.

The package imports this module inside the functions that fork or ask
whether two CPUs are usable, so importing the package does not load it.
"""

from __future__ import annotations

import os

# reads of the partner's counter before a waiting process starts to
# yield its CPU and to check that the partner still runs
_SPINS = 500


def two_cpus() -> bool:
    """Whether this process may run on two or more CPUs, as
    os.sched_getaffinity reports them at the time of the call; False
    where that call does not exist."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class PartnerExited(RuntimeError):
    """Raised in one of two processes waiting for the other when the
    other has exited."""


def in_two_processes(low, high):
    """(low(running), high(running)), with high run in a child forked for
    it while this process runs low. Each is passed a function telling
    whether the other process is still running, for its waits on it.

    The child sends its pickled result, or the exception it raised, down a
    pipe and leaves by os._exit on every path, so it runs none of this
    process's exit handlers and flushes none of its buffers. An exception
    of high() is raised here once low() has returned or has stopped with
    PartnerExited; any other exception of low() (or an interrupt) kills
    and reaps the child before it propagates, so low()'s error wins when
    both fail. A child that dies without a result raises RuntimeError."""
    import pickle
    import signal

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, high(lambda: os.getppid() == parent))
            except Exception as err:
                outcome = (False, err)
            data = pickle.dumps(outcome)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    def child_running() -> bool:
        # WNOWAIT leaves the child to be reaped below
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, pid, flags) is None

    stopped = None
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            try:
                low_result = low(child_running)
            except PartnerExited as err:
                # the child has exited: its result says why
                stopped = err
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"the second process exited with status {status}")
    # bytes that the forked copy of this program wrote
    ok, high_result = pickle.loads(data)
    if not ok:
        raise high_result
    if stopped is not None:
        raise stopped
    return low_result, high_result


class Barrier:
    """The meeting point of two processes, 0 and 1, on two monotone
    counters in memory they share: each raises its own counter at every
    wait and returns once the other's has reached it. The data a process
    wrote before a wait is visible to the other after it, since x86-64
    makes stores visible in program order.

    A waiting process reads the other's counter _SPINS times, then yields
    its CPU between reads and checks that the other still runs, so two
    processes on one CPU take turns, and a partner that has exited raises
    PartnerExited instead of hanging the wait."""

    def __init__(self, counters: list, me: int, partner_running):
        self._mine = counters[me]
        self._theirs = counters[1 - me]
        self._running = partner_running
        self._count = 0

    def wait(self) -> None:
        self._count += 1
        count = self._count
        self._mine[0] = count
        theirs = self._theirs
        for _ in range(_SPINS):
            if theirs[0] >= count:
                return
        while theirs[0] < count:
            # the counter is read again once the partner is seen gone: it
            # may have arrived, then exited, since the last read
            if not self._running() and theirs[0] < count:
                raise PartnerExited("the other process exited before it reached the barrier")
            os.sched_yield()
