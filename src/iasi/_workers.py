"""Shards of work dealt to forked worker processes as each falls free, read back in shard order.

Every catalog sweep runs its shards through ``dealt``. The parent writes
shard numbers into one task pipe as 8-byte records, a few shards ahead of
the one it reads, and whichever worker is free takes the next record. The
worker makes the whole shard, then answers on its own pipe with one frame:
the shard's number and the payload's size, 8 bytes each, then the payload,
``marshal.dumps((items, error))``, where ``error`` is None or a pickle of
the exception and its traceback text. The parent reads a whole frame from
whichever worker pipe ``select`` finds ready and keeps each shard that
arrives early until its turn, so it holds at most the shards it dealt
ahead; a frame that ends short is a worker that stopped. Workers never
write to the task pipe, so no worker can hold a lock another waits for.
``marshal`` is built into the interpreter and already loaded, and both
ends of a pipe are the same interpreter, forked, so its format cannot
differ between them; ``pickle`` is loaded only for an error. Only
``os.fork``, ``os.pipe`` and ``select`` are used: importing
``multiprocessing.pool`` alone raises the peak memory of a catalog
process from about 16.2 to 17.8 MB, more than the sweep needs.
"""

from __future__ import annotations

import marshal
import os
import threading
from contextlib import contextmanager
from itertools import count, islice

_RECORD = 8  # bytes of one shard number in the task pipe, and of each number heading a frame
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
    copy. A forked shard's items come back together, once its worker has
    made them all. A worker's error, walking ``shards`` included, is raised
    after its shard's earlier items, with the worker's traceback as its
    cause; a worker that stops without sending the whole frame of a shard
    it took raises ``ChildProcessError`` where that shard's items were due
    instead. Leaving the block closes the pipes and reaps every worker, on
    an error or Ctrl-C too; a worker still at work stops at its next write
    to its closed pipe, an idle one at the end of the task pipe.
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
    """A forked worker: take shard numbers from ``tasks`` and send one frame per shard.

    A shard that raises is sent with the items made before the error, and
    the worker takes no shard after it. It never returns: it leaves through
    ``os._exit``, so it neither unwinds into its caller's stack nor flushes
    the file buffers it shares with the parent.
    """
    try:
        for other in pipes:
            os.close(other)
        walked, error = 0, None
        while error is None and (record := os.read(tasks, _RECORD)):
            number, items = int.from_bytes(record, "big"), []
            try:
                shard = next(islice(shards, number - walked, None))
                walked = number + 1
                for item in produce([shard]):
                    items.append(item)
            except Exception as exc:
                import pickle
                import traceback

                error = pickle.dumps((exc, traceback.format_exc()))
            payload = marshal.dumps((items, error))
            pipe.write(record + len(payload).to_bytes(_RECORD, "big"))
            pipe.write(payload)
            pipe.flush()
    finally:
        os._exit(0)


def _in_shard_order(shards, tasks, pipes):
    """Every shard's items in shard order, each from the worker that made it.

    The parent deals ``_AHEAD`` shards per worker beyond the one it reads,
    and keeps each frame that arrives before its shard's turn. It closes
    the task pipe once every shard is dealt, or as soon as a worker's pipe
    ends or is cut, so the idle workers leave. Once no pipe is live,
    ``ChildProcessError`` is raised where the first missing shard was due.
    """
    import select  # like pickle, loaded only by a process that forks

    done, live = {}, list(pipes)
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
        while wanted not in done:
            if not live:
                raise ChildProcessError(_STOPPED)
            for pipe in select.select(live, [], [])[0]:
                header = _read(pipe, 2 * _RECORD)
                size = int.from_bytes(header[_RECORD:], "big")
                if len(header) < 2 * _RECORD or len(payload := _read(pipe, size)) < size:
                    live.remove(pipe)
                    tasks.close()
                else:
                    done[int.from_bytes(header[:_RECORD], "big")] = payload
        items, error = marshal.loads(done.pop(wanted))
        yield from items
        if error is not None:
            import pickle

            exc, trace = pickle.loads(error)
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")


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
