"""Record the stdout digest of every digest-checked CLI job.

    python3 perfbench/record_digests.py

Run from the repository root at a commit whose output is known good;
it rewrites perfbench/expected.json.  The CLI's data output must stay
byte-identical, so later commits are checked against these digests.
A job that exits nonzero is reported and not recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from jobs import run_cli, sha256
from run import HERE, ROOT, load_package
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    nt = load_package()
    digests, bad = {}, 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for cls in WORKLOADS.values():
            for name, argv in cls(0, Path(tmp), {}).digest_argvs().items():
                res = run_cli(nt, argv)
                if res.status != 0:
                    print(f"exit {res.status}: {name}", file=sys.stderr)
                    bad += 1
                    continue
                digests[name] = sha256(res.stdout)
    (HERE / "expected.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
