"""Shards of work dealt to forked worker processes, read back in shard order.

The catalog sweep checks its larger vertex counts here. Each worker gets
its own pipe and sends one frame per item of a shard: a header line,
``item <size> <count> ...``, then ``size`` bytes; ``end`` closes each
shard, and an error goes as ``error <size>`` and a pickle of the
exception with its traceback text. Shards are dealt in turn, so reading
one shard from each pipe in the same turn gives the items in shard
order. Only ``os.fork`` and ``os.pipe`` are used: importing
``multiprocessing.pool`` alone raises the peak memory of a catalog
process from about 16.2 to 17.8 MB, more than the sweep needs.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from itertools import chain, cycle, islice


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
    on entry, before the caller writes anything, and worker w runs it on
    the w-th, (w+workers)-th, ... shard; ``shards`` must not have been
    started, since every process walks its own copy. Leaving the block
    closes the pipes and reaps every worker, on an error or Ctrl-C too; a
    worker still at work stops at its next write to its closed pipe.
    """
    if workers == 1:
        yield produce(shards)
        return
    pids, readers = [], []
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as pipe:
                pid = os.fork()
                if pid == 0:
                    _work(produce, islice(shards, index, None, workers), pipe, readers)
                pids.append(pid)
        owners = (reader for reader, _ in zip(cycle(readers), shards))
        yield chain.from_iterable(map(_shard_items, owners))
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work(produce, shards, pipe, readers):
    """A forked worker: send the frames of its shards, then exit.

    It never returns: it leaves through ``os._exit``, so it neither unwinds
    into its caller's stack nor flushes the file buffers it shares with the
    parent.
    """

    def send(*parts):
        for part in parts:
            pipe.write(part)
        pipe.flush()

    try:
        for reader in readers:
            reader.close()
        try:
            for shard in shards:
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


def _shard_items(reader):
    """One shard's items from a worker's pipe.

    A worker's error is raised in its item's place, after every item
    before it has been yielded.
    """
    while True:
        kind, *fields = reader.readline().split() or [b"stopped", b"0"]
        if kind == b"end":
            return
        data = reader.read(int(fields[0]))
        if kind == b"error":
            import pickle

            exc, trace = pickle.loads(data)
            raise exc from RuntimeError(f"raised in a worker process:\n{trace}")
        if kind != b"item" or len(data) != int(fields[0]):
            raise ChildProcessError("a worker stopped before sending all its shards")
        yield data, [int(count) for count in fields[1:]]
