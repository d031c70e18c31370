"""Rewrite reference.json from the package in this checkout.

    python3 perfbench/make_reference.py

The benchmark's output checks compare each workload's reference probe with
this file.  Rewrite it only in a change that is meant to alter model outputs,
and say so in that change.
"""

import json

import run


def main() -> None:
    run.configure_process()
    from tracer import Tracer
    from workloads import REF_SEED, REFERENCE_PATH, WORKLOADS

    refs = {}
    with run.scratch_dir() as workdir:
        for name, cls in WORKLOADS.items():
            wl = cls(REF_SEED, workdir, Tracer())
            wl.setup()
            refs[name] = wl.probe()
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
