"""One fresh interpreter per set-up probe and per ``trd`` command.

    child.py setup STAMP WORKLOAD SEED SIZE
        import the trd CLI (which builds the theorem registry), build the
        workload's command list, and write it to STAMP with the ready time,
        the seconds spent on a reading of the reference search before the
        import, and the mean of that reading and one taken when ready.
    child.py run TRACE_DIR TIMES -- ARGV...
        call ``trd.cli.main(ARGV)`` and exit with its code; with a TRACE_DIR
        other than "-", trace the calls and write the trace files there;
        with a TIMES other than "-", write to TIMES the timed parts of the
        call: the whole call, or, untraced, its spans between readings of
        the reference search (``speed.reference``) taken every PERIOD_S of
        CPU time.  A part is its wall and CPU seconds and the mean of the
        readings just before and just after it; the readings themselves are
        not timed.

The ready time is ``time.monotonic()``, one clock for every process on the
host, so the parent can subtract its spawn time.  CPU seconds are user+sys
of this process and of the children it has reaped (the pool workers).
"""

import json
import os
import resource
import signal
import sys
import time

PERIOD_S = 0.25


def _clock() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), (own.ru_utime + own.ru_stime
                                 + kids.ru_utime + kids.ru_stime)


class Parts:
    """Timed parts of one command, split at reference readings."""

    def __init__(self) -> None:
        self.parts: list[list[float]] = []
        self.ref = speed.reference()
        self.wall, self.cpu = _clock()

    def mark(self) -> None:
        """End the current part and start the next one."""
        wall, cpu = _clock()
        ref = speed.reference()
        self.parts.append([wall - self.wall, cpu - self.cpu,
                           (self.ref + ref) / 2])
        self.ref = ref
        self.wall, self.cpu = _clock()


HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import speed  # noqa: E402


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        stamp, workload, seed, size = sys.argv[2:6]
        paused = time.monotonic()
        ref = speed.reference()
        paused = time.monotonic() - paused
        import trd.cli  # noqa: F401  (the import every command pays)
        import workloads

        commands = workloads.build_commands(workload, int(seed), size)
        ready = time.monotonic()
        ref = (ref + speed.reference()) / 2
        with open(stamp, "w") as f:
            json.dump({"ready": ready, "paused": paused, "ref": ref,
                       "commands": commands}, f)
        return 0

    trace_dir, times, argv = sys.argv[2], sys.argv[3], sys.argv[5:]
    import trd.cli

    tracer = None
    if trace_dir != "-":
        import tracer as tracing

        tracer = tracing.install(trace_dir)
    parts = Parts()
    if tracer is None:  # readings inside cli.main would count as its self time
        # a new part after every PERIOD_S of this process's own CPU time,
        # so that no part outlasts a phase of machine speed; pool workers
        # do not inherit the timer, and the parent, waiting on them, uses
        # no CPU time, so readings never compete with the workers
        signal.signal(signal.SIGVTALRM, lambda *_: parts.mark())
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
    try:
        code = trd.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    parts.mark()
    if tracer is not None:
        tracer.flush()
    if times != "-":
        with open(times, "w") as f:
            json.dump({"parts": parts.parts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
