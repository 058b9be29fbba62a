"""Shards of work dealt to forked worker processes as each falls free, read back in shard order.

Every catalog sweep runs its shards through ``dealt``. The parent writes
shard numbers into one task pipe as 8-byte records, a few shards ahead of
the one it reads, and whichever worker is free takes the next record. A
worker answers on its own pipe in frames: a kind byte and an 8-byte
number. For a shard frame, sent as soon as the worker takes a shard, the
number is the shard's; for every other frame it is the size of the
payload that follows. An item frame's payload is the item's counts on one
line, then its bytes; an end frame, of no payload, closes the shard; an
error frame's payload is a pickle of the exception and its traceback
text. The parent reads each frame exactly, with ``os.read`` on the pipe
itself, so whatever a worker sent after it stays in the pipe, where
``select`` sees it, and a frame that ends short is a worker that stopped.
It reads shard frames from the workers it has read to the end of a shard
until it finds the holder of the shard it needs, then that shard's
frames; a shard that arrives early waits in its worker's pipe. Workers
never write to the task pipe, so no worker can hold a lock another waits
for. Only ``os.fork``, ``os.pipe`` and ``select`` are used: importing
``multiprocessing.pool`` alone raises the peak memory of a catalog
process from about 16.2 to 17.8 MB, more than the sweep needs.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from itertools import count, islice

_RECORD = 8  # bytes of one shard number in the task pipe, and of a frame's number
_HEADER = 1 + _RECORD  # a frame's kind byte and number
_SHARD, _ITEM, _END, _ERROR = b"s", b"i", b".", b"!"  # frame kinds
_STOPPED = "a worker stopped before sending all its shards"
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
    copy. A worker's error, walking ``shards`` included, is raised where its
    shard's items were due, with the worker's traceback as its cause; a
    worker that stops without sending a whole shard it took, a cut frame
    included, raises ``ChildProcessError`` there instead. Leaving the
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
            pipes.append(read_fd)
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
            os.close(pipe)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(produce, shards, tasks, pipe, pipes):
    """A forked worker: take shard numbers from ``tasks`` and send each shard's frames.

    It never returns: it leaves through ``os._exit``, so it neither unwinds
    into its caller's stack nor flushes the file buffers it shares with the
    parent.
    """

    def send(kind, number, *payload):
        pipe.write(kind + number.to_bytes(_RECORD, "big"))
        for part in payload:
            pipe.write(part)
        pipe.flush()

    try:
        for other in pipes:
            os.close(other)
        try:
            walked = 0
            while record := os.read(tasks, _RECORD):
                number = int.from_bytes(record, "big")
                # sent before the walk, so an error in it lands in this shard's place
                send(_SHARD, number)
                shard = next(islice(shards, number - walked, None))
                walked = number + 1
                for data, counts in produce([shard]):
                    line = " ".join(map(str, counts)).encode() + b"\n"
                    send(_ITEM, len(line) + len(data), line, data)
                send(_END, 0)
        except Exception as exc:
            import pickle
            import traceback

            payload = pickle.dumps((exc, traceback.format_exc()))
            send(_ERROR, len(payload), payload)
    finally:
        os._exit(0)


def _in_shard_order(shards, tasks, pipes):
    """Every shard's items in shard order, each from the worker that took it.

    The parent deals ``_AHEAD`` shards per worker beyond the one it reads.
    It closes the task pipe once every shard is dealt, or as soon as a
    worker's pipe ends before the sweep does, so the idle workers leave.
    """
    # each live worker's shard, from its last shard frame; None once read to its end
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
            raise ChildProcessError(_STOPPED)
        yield from _shard_items(pipe)
        held[pipe] = None


def _holder(wanted, held, tasks):
    """The pipe of the worker that took shard ``wanted``; None once no live worker holds it.

    Only the workers whose last shard was read to its end send a shard
    frame next, so only their pipes are waited on. A pipe whose next frame
    is anything else, or ends short, is a worker gone: no shard is dealt
    after it.
    """
    import select  # like pickle, loaded only by a process that forks

    while wanted not in held.values():
        free = [pipe for pipe, number in held.items() if number is None]
        if not free:
            return None
        for pipe in select.select(free, [], [])[0]:
            kind, number = _header(pipe)
            if kind == _SHARD:
                held[pipe] = number
            else:
                del held[pipe]
                tasks.close()
    return next(pipe for pipe, number in held.items() if number == wanted)


def _shard_items(pipe):
    """One shard's items from a worker's pipe, up to and with its end frame.

    A worker's error is raised in its item's place, after every item
    before it has been yielded.
    """
    while True:
        kind, size = _header(pipe)
        if kind == _END:
            return
        if kind not in (_ITEM, _ERROR) or len(payload := _read(pipe, size)) < size:
            raise ChildProcessError(_STOPPED)
        if kind == _ERROR:
            import pickle

            exc, trace = pickle.loads(payload)
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
        line, data = payload.split(b"\n", 1)
        yield data, list(map(int, line.split()))


def _header(pipe):
    """A frame's kind and number; the kind is empty where the pipe ends first."""
    header = _read(pipe, _HEADER)
    return header[:1] if len(header) == _HEADER else b"", int.from_bytes(header[1:], "big")


def _read(pipe, size):
    """``size`` bytes of a worker's pipe, fewer only where it ends first.

    Plain ``os.read`` calls, never past ``size``: a buffered reader would
    take in bytes that ``select`` then no longer sees.
    """
    parts = []
    while size and (part := os.read(pipe, size)):
        parts.append(part)
        size -= len(part)
    return b"".join(parts)
