"""Shards of work dealt to forked worker processes as each falls free, read back in shard order.

Every catalog sweep runs its shards through ``dealt``. The parent writes
shard numbers into one task pipe as 8-byte records, a few shards ahead of
the one it reads, and whichever worker is free takes the next record. A
worker sends ``shard <number>`` on its own pipe, then one frame per item
of that shard: a header line, ``item <size> <count> ...``, then ``size``
bytes; ``end`` closes each shard, and an error goes as ``error <size>``
and a pickle of the exception with its traceback text. The parent reads
shard headers from the workers it has read to the end of a shard until it
finds the holder of the shard it needs, then that shard's frames; a shard
that arrives early waits in its worker's pipe. Workers never write to the
task pipe, so no worker can hold a lock another waits for. Only
``os.fork``, ``os.pipe`` and ``select`` are used: importing
``multiprocessing.pool`` alone raises the peak memory of a catalog process
from about 16.2 to 17.8 MB, more than the sweep needs.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from itertools import count, islice

_RECORD = 8  # bytes of one shard number in the task pipe
_AHEAD = 8  # shards dealt beyond the one the parent reads, per worker


def worker_count() -> int:
    """One worker per CPU this process may run on; 1 where nothing may be forked.

    A process with a second thread is not forked: a lock another thread
    holds at the fork stays held forever in the child.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def dealt(produce, shards, workers: int):
    """Yield the items ``produce`` makes of ``shards``, in shard order.

    ``produce(shards)`` yields ``(bytes, counts)`` items. With one worker it
    runs here on all the shards. Otherwise ``workers`` processes are forked
    on entry, before the caller writes anything, and each shard goes to
    whichever worker is free when its number comes up, as ``produce([shard])``.
    ``shards`` must not have been started, since every process walks its own
    copy. A worker that stops without sending a shard it took raises
    ``ChildProcessError`` where that shard's items were due. Leaving the
    block closes the pipes and reaps every worker, on an error or Ctrl-C
    too; a worker still at work stops at its next write to its closed pipe,
    an idle one at the end of the task pipe.
    """
    if workers == 1:
        yield produce(shards)
        return
    shards = iter(shards)
    pids, pipes = [], []
    # the parent keeps the read end too, so dealing never fails on a pipe every worker has left
    task_read, task_write = os.pipe()
    tasks = open(task_write, "wb", buffering=0)
    try:
        for _ in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(_Pipe(read_fd))
            with open(write_fd, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    tasks.close()
                    _work(produce, shards, task_read, pipe, pipes)
                pids.append(pid)
        yield _in_shard_order(shards, tasks, pipes)
    finally:
        tasks.close()
        os.close(task_read)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work(produce, shards, tasks, pipe, pipes):
    """A forked worker: take shard numbers from ``tasks`` and send each shard's frames.

    It never returns: it leaves through ``os._exit``, so it neither unwinds
    into its caller's stack nor flushes the file buffers it shares with the
    parent.
    """

    def send(*parts):
        for part in parts:
            pipe.write(part)
        pipe.flush()

    try:
        for other in pipes:
            other.close()
        try:
            walked = 0
            while record := os.read(tasks, _RECORD):
                number = int.from_bytes(record, "big")
                shard = next(islice(shards, number - walked, None))
                walked = number + 1
                send(b"shard %d\n" % number)
                for data, counts in produce([shard]):
                    fields = " ".join(map(str, [len(data), *counts]))
                    send(f"item {fields}\n".encode(), data)
                send(b"end\n")
        except Exception as exc:
            import pickle
            import traceback

            payload = pickle.dumps((exc, traceback.format_exc()))
            send(b"error %d\n" % len(payload), payload)
    finally:
        os._exit(0)


def _in_shard_order(shards, tasks, pipes):
    """Every shard's items in shard order, each from the worker that took it.

    The parent deals ``_AHEAD`` shards per worker beyond the one it reads.
    It closes the task pipe once every shard is dealt, or as soon as a
    worker's pipe ends before the sweep does, so the idle workers leave.
    """
    # each live worker's shard, from its last header; None once read to its end
    held = dict.fromkeys(pipes)
    ahead = _AHEAD * len(pipes)
    sent, total = 0, None
    for wanted in count():
        if not tasks.closed:
            for _ in islice(shards, wanted + ahead - sent):
                tasks.write(sent.to_bytes(_RECORD, "big"))
                sent += 1
            if sent < wanted + ahead:
                total = sent
                tasks.close()
        if wanted == total:
            return
        pipe = _holder(wanted, held, tasks)
        if pipe is None:
            raise ChildProcessError("a worker stopped before sending all its shards")
        yield from _shard_items(pipe)
        held[pipe] = None


def _holder(wanted, held, tasks):
    """The pipe of the worker that took shard ``wanted``; None once no live worker holds it.

    Only the workers whose last shard was read to its end send a header
    next, so only their pipes are waited on. A pipe that ends there is a
    worker gone: no shard is dealt after it.
    """
    import select  # like pickle, loaded only by a process that forks

    while wanted not in held.values():
        free = [pipe for pipe, number in held.items() if number is None]
        if not free:
            return None
        for pipe in [pipe for pipe in free if pipe.buffer] or select.select(free, [], [])[0]:
            kind, *fields = pipe.readline().split() or [b"stopped"]
            if kind == b"shard":
                held[pipe] = int(fields[0])
            else:
                del held[pipe]
                tasks.close()
    return next(pipe for pipe, number in held.items() if number == wanted)


def _shard_items(pipe):
    """One shard's items from a worker's pipe.

    A worker's error is raised in its item's place, after every item
    before it has been yielded.
    """
    while True:
        kind, *fields = pipe.readline().split() or [b"stopped", b"0"]
        if kind == b"end":
            return
        data = pipe.read(int(fields[0]))
        if kind == b"error":
            import pickle

            exc, trace = pickle.loads(data)
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
        if kind != b"item" or len(data) != int(fields[0]):
            raise ChildProcessError("a worker stopped before sending all its shards")
        yield data, list(map(int, fields[1:]))


class _Pipe:
    """The parent's end of one worker's pipe, buffered here, where ``select``
    cannot see: a header already read into ``buffer`` is not waited for."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = bytearray()

    def fileno(self) -> int:
        return self.fd

    def close(self):
        os.close(self.fd)

    def _fill(self) -> bool:
        # a BufferedReader's default read: a larger one raises the sweep's traced peak
        data = os.read(self.fd, 8192)
        self.buffer += data
        return bool(data)

    def read(self, size: int) -> bytes:
        """``size`` bytes, or fewer where the worker's end closed first."""
        while len(self.buffer) < size and self._fill():
            pass
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def readline(self) -> bytes:
        while (end := self.buffer.find(b"\n") + 1) == 0 and self._fill():
            pass
        return self.read(end or len(self.buffer))
