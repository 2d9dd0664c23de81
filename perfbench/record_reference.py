"""Record the outputs of the user-metric jobs into ``reference.json``.

    python3 perfbench/record_reference.py

Run from the root of a poslab source tree whose outputs are trusted.  The
benchmark checks every later tree's user-metric jobs against these outputs,
within 1e-6; no closed form exists for them.
"""

import json
import os
import shutil
import sys
import tempfile

import run

run.bootstrap()

import harness  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    USER_POOL,
    field_value,
    reference_fields,
    user_certify_argv,
    user_lemma_argv,
    user_metric,
)


def main() -> int:
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=harness.ROOT)
    try:
        for entry in range(USER_POOL):
            path = os.path.join(workdir, f"user{entry}.json")
            with open(path, "w") as fh:
                json.dump(user_metric(entry), fh)
            for workload, argvs in (("certify-mix", user_certify_argv(entry, path)),
                                    ("lemma-triangle", user_lemma_argv(entry, path))):
                for name, argv in argvs.items():
                    code, text = harness.invoke(argv)
                    out = json.loads(text)
                    if code != 0 or "error" in out:
                        print(f"{' '.join(argv)} exited {code}: {text[:300]}", file=sys.stderr)
                        return 1
                    reference[f"{workload}/user{entry}/{name}"] = {
                        ".".join(path): field_value(out, path) for path in reference_fields(argv)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reference outputs to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
