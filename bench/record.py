"""Re-record the output digest the verify-all gate compares against.

    python3 bench/record.py

Writes ``bench/digests.json`` from the verify-all workload's report, which
is the same at every workload seed, and only if every check passes.  Run it only when a change is
meant to alter that report, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    verify_all = workloads.WORKLOADS["verify-all"]
    results = verify_all.call(verify_all.prepare(0))
    if any(r.exit_status for r in results):
        sys.exit("a verify check failed; nothing recorded")
    digests = {"verify-all": workloads.sha256(workloads.report_text(results))}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
