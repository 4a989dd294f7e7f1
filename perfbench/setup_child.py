"""One set-up step in a fresh interpreter: import the CLI, then run one command.

Usage: python3 setup_child.py SRC_DIR [rmtspec arguments...]

Prints one JSON line: the seconds ``import rmtspec.cli`` took and the exit
code of the command (0 when no command is given).
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rmtspec.cli import run_cli  # noqa: E402

import_s = time.perf_counter() - t0
rc = run_cli(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(json.dumps({"import_s": import_s, "rc": rc}))
