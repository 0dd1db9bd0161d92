"""The serve-mixed server process: build, checkpoint, serve until killed.

Started by ``run.py``.  Builds the workload's database with the WAL on,
takes the first checkpoint (so every acknowledged write from then on is
fsync'd to the log), starts a :class:`repro.QueryServer` on an ephemeral
port and prints the port.  It then serves until its standard input
closes or it is killed.  With ``--spans PATH`` it traces its layers and
writes the spans to ``PATH`` on SIGUSR1.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True, help="WAL directory archive")
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--spans", default="", help="span file (tracing on)")
    args = parser.parse_args()

    import data
    import layers
    import spans

    tracer = layers.server_tracer() if args.spans else None

    from repro import Database, ExecConfig, QueryServer, RefinementEngine

    objects = data.objects(data.dataset(args.dataset))
    db = Database.create(objects, ExecConfig(wal=True))
    db.save(args.dir)
    server = QueryServer(db).start()
    cache = RefinementEngine.for_method(db.access_method()).cache

    if tracer is not None:

        def dump(_signum, _frame):
            tmp = args.spans + ".tmp"
            spans.write(tmp, tracer.records(), {"resident_bytes": cache.resident_bytes})
            os.replace(tmp, args.spans)

        signal.signal(signal.SIGUSR1, dump)

    print(server.port, flush=True)
    # Every cloud fits the cache: draw them all once, as a long-running
    # server would hold them, so the measured rounds see steady state.
    cache.prewarm((o.pdf, o.oid) for o in objects)
    print("warm", flush=True)
    sys.stdin.read()  # the load process closes our stdin (or kills us)
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
