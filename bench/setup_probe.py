"""Set-up time of one fresh interpreter, for the `setup_s` metric.

    python3 bench/setup_probe.py <src dir> <warm-up argv list .json>

Times the first import of entroset from <src dir> plus one call of each
argv in the list, with stdout captured, and prints the seconds. Lazy
imports made by those calls (numpy in `rationalize`) land in this time.
"""

import contextlib
import io
import json
import sys
from time import perf_counter


def main(src: str, argv_file: str) -> None:
    with open(argv_file, encoding="utf-8") as handle:
        argvs = json.load(handle)
    sys.path.insert(0, src)
    t0 = perf_counter()
    import entroset.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            try:
                entroset.cli.run(argv)
            except (Exception, SystemExit):  # the run that timed the ops counts failures
                pass
    print(perf_counter() - t0)


if __name__ == "__main__":
    main(*sys.argv[1:])
