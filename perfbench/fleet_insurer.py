"""The insurer process of the fleet workload.

Serves one Insurer with its event log over loopback TCP.  The log is
written after every event as usual, but os.fsync is a no-op in this
process: on a shared disk one slow fsync, taken under the insurer's lock,
stalls every connection, and fleet's throughput swung by 40 % between runs
of the same code.  A calm disk syncs these small writes in about 0.1 ms,
so fleet measures the request path without the disk; biglist keeps the
fsync'd log.

The process talks to the benchmark through pickles on stdin and stdout:
it reads its configuration, answers with the server address, then obeys
("trace", on) and ("stop",) commands.  On stop it answers with the live
state's snapshot, its spans and its peak RSS.
"""

import os
import pickle
import sys

import checkout


def _no_fsync(fd: int) -> None:
    """Stands in for os.fsync: the write stays in the page cache."""


def main() -> None:
    commands, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # the pipe carries pickles only

    def reply(obj) -> None:
        pickle.dump(obj, replies)
        replies.flush()

    checkout.use_sources()
    import harness
    import inputs
    import layers
    import spans
    from conninsure.insurer import Insurer
    from conninsure.transport import InsurerServer

    config = pickle.load(commands)
    os.fsync = _no_fsync
    insurer = Insurer.setup(
        config["certs"], rng=inputs.source(config["seed"], "insurer"),
        log_path=config["log"],
    )
    server = InsurerServer(insurer, now_fn=lambda: config["now"])
    server.serve_in_background()
    reply(server.address)

    recorder = spans.Recorder(first_id=1 << 40)
    while True:
        command = pickle.load(commands)
        if command[0] == "trace":
            if command[1]:
                layers.install(recorder)
            else:
                recorder.uninstall()
            reply("ok")
        elif command[0] == "stop":
            server.shutdown()
            server.server_close()
            recorder.uninstall()
            reply({
                "snapshot": insurer.snapshot_bytes(),
                "spans": recorder.spans,
                "peak_rss_mb": harness.peak_rss_mb(),
            })
            insurer.close()
            return


if __name__ == "__main__":
    main()
