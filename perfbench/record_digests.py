"""Record output digests for the CLI requests that have no independent check.

The ``localize`` and ``ifunction`` tables have no second route in the
benchmark, so cli-mix compares their bytes with the digests this script
writes to ``digests.json``, one per request the stream can draw.  Rerun it
only for a change that is meant to alter those tables:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from workloads import DIGESTS_PATH, CliMix, call_cli  # noqa: E402


def record(argv):
    code, text = call_cli(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return oracles.digest(text)


def main() -> None:
    digests = {"ifunction": {}, "localize": {}}
    for fmt in ("csv", "json"):
        for params in itertools.product(*CliMix.IFUNCTION.values()):
            argv, key = CliMix.ifunction_request(params, fmt)
            digests["ifunction"][key] = record(argv)
        for degree, markings in CliMix.LOCALIZE:
            argv, key = CliMix.localize_request(degree, markings, fmt)
            digests["localize"][key] = record(argv)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
