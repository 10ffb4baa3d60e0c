"""Record the reference output of every catalogue request.

    python3 perfbench/capture.py [WORKLOAD ...]

Issues each request of each workload's catalogue once and writes its exit
code and output fingerprint to ``perfbench/reference/<workload>.json``.
The references pin the program's behaviour at the commit they were taken
at; re-capture only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import check
import worker
import workloads


def capture(workload: str) -> dict[str, dict]:
    worker.setup(workload)
    references = {}
    for request in workloads.catalogue(workload):
        code, output = workloads.execute(request, workloads.prepare(request))
        if request["expect_exit"] is not None and code != request["expect_exit"]:
            raise SystemExit(f"{request['key']}: documented exit {request['expect_exit']}, got {code}")
        if request["expect_exit"] is None and code != 0:
            raise SystemExit(f"{request['key']}: exited {code}")
        references[request["key"]] = check.fingerprint_output(request, code, output)
    return references


def main(names: list[str]) -> None:
    for workload in names or workloads.WORKLOADS:
        references = capture(workload)
        path = worker.ROOT / "perfbench" / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(references.items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{workload}: {len(references)} references -> {path.relative_to(worker.ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
