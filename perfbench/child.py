"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>   # one fresh set-up
    python3 perfbench/child.py cli <attain-kit args...>  # traced CLI command

The ``cli`` mode runs ``attainkit.cli.main`` as ``python -m attainkit``
would, with the tracer installed, and writes the trace as the last line
of stderr.
"""

import os

os.environ["ATTAIN_KIT_THREADS"] = "1"  # before numpy loads

import json
import sys

import workloads


def main(argv: list[str]) -> int:
    mode = argv[0]
    lib = workloads.import_library()
    if mode == "setup":
        workloads.WORKLOADS[argv[1]](lib, int(argv[2]))
        return 0
    if mode == "cli":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.begin_op()
        rc = 1
        try:
            rc = lib["cli"].main(argv[1:])
        finally:
            tracer.end_op(root, ok=rc == 0)
            tracer.uninstall()
            sys.stderr.write(workloads.TRACE_MARK + json.dumps(tracer.dump()) + "\n")
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
