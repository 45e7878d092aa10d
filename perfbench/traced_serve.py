"""``python perfbench/traced_serve.py serve ...``: the CLI with spans.

Same arguments as ``python -m repro``.  The wrappers are installed at
import, before the CLI runs; multiprocessing's spawn start re-imports
this file (as ``__mp_main__``) in every shard worker, so the workers
record spans too.  Each process writes its spans into
``$PERFBENCH_TRACE_DIR`` when the server is stopped with SIGINT.
"""

import os
import sys

import spans

RECORDER = spans.install(os.environ["PERFBENCH_TRACE_DIR"],
                         "edge" if __name__ == "__main__" else "worker")

if __name__ == "__main__":
    from repro.cli import main

    code = main(sys.argv[1:])
    RECORDER.dump(os.environ["PERFBENCH_TRACE_DIR"])
    sys.exit(code)
