"""Record the exit code and stdout of every cli_fixtures command.

    python3 perfbench/record_cli_expected.py

Writes expected/cli_fixtures.json, the oracle of the cli_fixtures
workload.  It was run once, at the commit that introduced the benchmark;
a later change whose CLI output differs on purpose must say so when it
records the file again.
"""

import json
import sys

import workloads
from run import import_lincat


def main() -> int:
    lincat = import_lincat()
    expected = {}
    for argv in workloads.cli_commands():
        code, out = workloads.run_cli(lincat.cli, argv)
        expected[" ".join(argv)] = {"argv": argv, "exit": code, "stdout": out}
    workloads.EXPECTED_CLI.parent.mkdir(exist_ok=True)
    with open(workloads.EXPECTED_CLI, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(expected)} commands recorded in {workloads.EXPECTED_CLI.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
