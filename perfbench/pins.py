"""Write perfbench/pins.json: sha256 of the reports the real CLI prints.

Run from the repository root, on a commit whose reports are known good:

    python3 perfbench/pins.py

Each report comes from a separate `python3 -m isotypic.cli ... --format json`
process using builtin group names, so a benchmark pass at seed 0 matches a
pin only if it reproduces the command-line output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "verify-all": ["verify-all", "--max-degree", "12"],
    "cover-s4": ["cover", "--group", "S4", "--action", "perm4", "--max-degree", "12"],
    "tables/S6": ["table", "--group", "S6"],
    "tables/D100": ["table", "--group", "D100"],
    "tables/S4": ["table", "--group", "S4", "--prime", "10009"],
}


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ISOTYPIC_SEED", None)
    pins = {}
    for key, args in COMMANDS.items():
        out = subprocess.run(
            [sys.executable, "-m", "isotypic.cli", *args, "--format", "json"],
            cwd=ROOT, env=env, capture_output=True, check=True, timeout=600,
        ).stdout
        pins[key] = hashlib.sha256(out).hexdigest()
        print(key, pins[key])
    (ROOT / "perfbench" / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
