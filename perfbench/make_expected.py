"""Regenerate ``expected.json``: the result of every (program, size)
request the benchmark can draw, computed with the generic interpreters
only (JS ``interp_ic``, Lua ``run_interpreted``), never the specializer.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from programs import EXPECTED_PATH, PROGRAMS, serve_reference  # noqa: E402


def main() -> int:
    expected = {}
    for name, program in PROGRAMS.items():
        served, printed = serve_reference(program)
        results = {size: served.call(size) for size in program.sizes}
        # The default-size request must reproduce what the program's own
        # top-level code printed.
        if [str(v) for v in printed] != results["default"].split(","):
            print(f"{name}: request result {results['default']!r} != "
                  f"top-level print {printed!r}", file=sys.stderr)
            return 1
        # A second round on the same VM must agree (arena reset).
        again = {size: served.call(size) for size in program.sizes}
        if again != results:
            print(f"{name}: repeated requests disagree", file=sys.stderr)
            return 1
        expected[name] = results
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(v) for v in expected.values())} results to "
          f"{EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
