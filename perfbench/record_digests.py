"""Record the output digest of every call of every workload at the default seed.

    python3 perfbench/record_digests.py

Run it from the root of the mbplace checkout whose outputs are the reference.
It rewrites ``digests.json``; a later benchmark run at the default seed counts
a call whose output digest differs from the recorded one as failed. A call
that fails on the reference code gets ``null``: it has no output to digest.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import validate
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("mbplace.cli")
    table = {}
    for name, build in WORKLOADS.items():
        (root / ".bench_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=root / ".bench_work"))
        try:
            table[name] = {}
            for call in build(run.DEFAULT_SEED, workdir):
                result = run.run_call(cli, call, None)
                if result.wrong_output:
                    print(f"{name} {call.label}: {result.error}", file=sys.stderr)
                    return 1
                if result.error is not None:
                    # No output to compare: the call stays failed, and a later
                    # run checks a new output of it with the validator only.
                    print(f"{name} {call.label}: no digest, {result.error}", file=sys.stderr)
                    table[name][call.label] = None
                    continue
                table[name][call.label] = validate.digest(call.out.read_text(), call.kind)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
