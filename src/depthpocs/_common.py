"""Small shared helpers: the rules for library numbers and arrays, the display
of a caller's value, the CPU budget for forking, the forked process that every
fork site uses, and the map of one-shot work over processes."""

from __future__ import annotations

import contextlib
import math
import os
import pickle

import numpy as np

from .errors import REPORTED, DepthPocsError, InvalidInputError


def shown(value) -> str:
    """repr(value) for a message, or its type where Python refuses an int of over 4,300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def require_number(value, name: str, error, *, integer=False, least=None, finite=True):
    """Return value if it is a Python or numpy int (or, unless integer, float),
    finite unless finite=False, and >= least where least is given. Otherwise
    raise error naming name and the broken rule. Bools, strings, None,
    complex numbers, Decimals and Fractions are refused."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        rule = "an integer" if integer else "a real number"
        raise error(f"{name} must be {rule}, got {shown(value)}")
    try:
        infinite = not math.isfinite(value)
    except OverflowError:  # an integer past the float range
        infinite = True
    if finite and infinite:
        raise error(f"{name} must be finite, got {shown(value)}")
    if least is not None and not value >= least:  # a NaN fails too
        raise error(f"{name} must be >= {least}, got {shown(value)}")
    return value


def as_map(a, name: str = "map", shape=None, error=InvalidInputError) -> np.ndarray:
    """Coerce to a float64 array of finite samples, 2D or of exactly `shape`;
    raise error naming name otherwise."""
    try:  # casting a complex array would drop its imaginary part, with a warning
        m = None if np.iscomplexobj(a) else np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        m = None
    if m is None:
        raise error(f"{name} must be an array of real numbers")
    if (m.ndim != 2) if shape is None else (m.shape != shape):
        want = "2D" if shape is None else "x".join(map(str, shape))
        raise error(f"{name} must be {want}, got shape {m.shape}")
    # min and max are finite exactly when every sample is (NaN propagates).
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise error(f"{name} contains non-finite samples")
    return m


# The pids of the Forked children this process has started and not yet
# closed, and whether this process is itself a Forked child, which runs on
# the one CPU its parent counted for it.
_children: set[int] = set()
_in_forked_child = False


def fork_cpus() -> int:
    """CPUs this process may run on, less one per Forked child still open.

    1 in a Forked child and where os.fork does not exist. in_processes
    (the scene's two views, a sweep's steps) and refine's stripes fork only
    where this is above 1, so that forks never stack: a sweep's refines run
    one stripe each.
    """
    if not hasattr(os, "fork") or _in_forked_child:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, cpus - len(_children))


class Forked:
    """A forked child process that answers each request with serve(*request).

    send pickles a request into one pipe; receive returns the reply to the
    oldest request not yet received, from another. An error serve raises
    in the child is raised by receive: one of errors.REPORTED as it is, so
    that it keeps its exit code, anything else as
    DepthPocsError("{what} failed: {type}: {msg}").
    A child that ends without a reply gives "{what} exited without a
    reply", a request to a child that has ended "{what} exited early".
    The constructor raises OSError where no pipe or process can be had;
    in_processes then runs every index here, and pocs._Stripes one stripe.
    close kills and reaps the child, idle, busy or ended; call it once.

    numpy starts OpenBLAS's thread pool on import, but OpenBLAS stops it
    in a pthread_atfork handler, so the child and the parent each have one
    thread right after the fork (Linux, numpy 2.4, OpenBLAS 0.3.31); the
    pool starts again at the next BLAS call. Python 3.12, which warns of a
    fork with threads, counts them in the parent after the fork.
    """

    def __init__(self, serve, what: str):
        self.what = what
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        requests, to_child, from_child, replies = fds
        if self.pid == 0:
            global _in_forked_child
            _in_forked_child = True
            _children.clear()
            try:
                os.close(to_child)
                os.close(from_child)
                _serve(serve, what, open(requests, "rb"), open(replies, "wb"))
            finally:
                os._exit(0)
        _children.add(self.pid)
        os.close(requests)
        os.close(replies)
        self.requests = open(to_child, "wb")
        self.replies = open(from_child, "rb")

    def send(self, *request) -> None:
        try:
            self.requests.write(pickle.dumps(request))
            self.requests.flush()
        except BrokenPipeError:
            raise DepthPocsError(f"{self.what} exited early") from None

    def receive(self):
        try:
            result, error = pickle.load(self.replies)
        except EOFError:
            raise DepthPocsError(f"{self.what} exited without a reply") from None
        if error is not None:
            raise error
        return result

    def close(self) -> None:
        import signal  # here, so that importing the package does not load it

        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        _children.discard(self.pid)
        for pipe in (self.requests, self.replies):
            # A request that met a dead child is still buffered; it cannot be flushed.
            with contextlib.suppress(OSError):
                pipe.close()


def in_processes(compute, count: int, what: str):
    """Yield compute(0), ..., compute(count - 1) in order.

    compute(i) runs in process i % P, P = min(fork_cpus(), count): process 0
    is this one, the others are Forked children named `what`, forked before
    anything runs. A child is sent its first two indices at once and each
    next one when a reply is received from it. Where a pipe or a process
    cannot be had, every index runs here. An error is raised at its index's
    turn, by Forked's rule where a child raised it. The children are closed
    when the generator ends, raises or is closed.
    """
    procs = min(fork_cpus(), count)
    children: list[Forked] = []
    try:
        try:
            for _ in range(procs - 1):
                children.append(Forked(compute, what))
        except OSError:  # no pipe or process to spare: every index runs here
            for child in children:
                child.close()
            children, procs = [], 1
        # A child has at most two indices in flight: the one it computes and
        # the next, sent when the one before is received. So the request pipe
        # never fills while the child waits on a full reply pipe.
        for i in range(1, min(count, 2 * procs)):
            if i % procs:
                children[i % procs - 1].send(i)
        for i in range(count):
            if i % procs:
                result = children[i % procs - 1].receive()
                if i + 2 * procs < count:
                    children[i % procs - 1].send(i + 2 * procs)
            yield result if i % procs else compute(i)
    finally:
        for child in children:
            child.close()


def _serve(serve, what: str, requests, replies) -> None:
    """The child's loop: one reply per request, until the parent's end of the pipe closes;
    an error of errors.REPORTED goes back as it is, any other named in a DepthPocsError."""
    while True:
        request = pickle.load(requests)  # EOFError, which ends the child, once the parent is gone
        try:
            reply = serve(*request), None
        except REPORTED as exc:
            reply = None, exc
        except Exception as exc:
            reply = None, DepthPocsError(f"{what} failed: {type(exc).__name__}: {exc}")
        # Protocol 5 copies an array's data once, into the reply, and the
        # array that receive unpickles keeps the bytes read from the pipe.
        replies.write(pickle.dumps(reply, protocol=5))
        replies.flush()
