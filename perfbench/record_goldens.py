"""Record the SHA-256 goldens of the benchmark's fixed builtin ops.

    python3 perfbench/record_goldens.py

Run it only at a commit whose reports are known to be right: a later
change that alters any of these reports must fail the benchmark's checks.
"""

import hashlib
import json

import run


def main() -> int:
    goldens = {}
    for workload in run.WORKLOADS:
        for tiny in (False, True):
            ops, inputs = run.setup(workload, 0, tiny)
            inputs.remove()
            for op in ops:
                if op.golden:
                    rc, out, _ = run._call(op.argv)
                    if rc != op.rc:
                        raise SystemExit(f"{op.golden}: exit {rc}, expected {op.rc}")
                    goldens[op.golden] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    path = run.HERE / "goldens.json"
    path.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(goldens)} goldens written to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
