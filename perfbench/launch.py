"""Traced stand-in for ``python -m ews.cli``.

Usage: python3 perfbench/launch.py DUMP_PATH -- CLI_ARGS...

Imports ews (timed as cli.import_s), installs the benchmark's span wrappers,
runs ``ews.cli.main(CLI_ARGS)`` and exits with its return code.  The spans
and counters of this process are written to DUMP_PATH as JSON for the
parent to merge.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    dump_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.stderr.write("usage: launch.py DUMP_PATH -- CLI_ARGS...\n")
        return 2
    import ews.cli

    import_s = time.perf_counter() - T0
    from tracer import Tracer, WarningCounter

    tracer = Tracer()
    missing = tracer.install()
    rc = 2
    try:
        with WarningCounter() as warned:
            rc = ews.cli.main(argv)
    finally:
        tracer.uninstall()
        dumped = tracer.dump()
        dumped["counters"].update({
            "cli.import_s": import_s,
            "linalg.runtime_warnings": warned.count,
        })
        dumped["missing_bindings"] = missing
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(dumped, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
