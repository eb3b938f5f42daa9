"""Run one gpnam command in-process under the span tracer.

Usage::

    python traced_cli.py SUMMARY.json -- <gpnam arguments>

``gpnam`` must be importable (the benchmark puts the checkout's ``src`` on
``PYTHONPATH``). The span summary goes to SUMMARY.json; the exit code is the
command's own.
"""

import json
import sys
import time


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    out_path, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import gpnam.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = gpnam.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["exit"] = code
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
