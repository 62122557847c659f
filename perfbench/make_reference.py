"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's job once at the default seed and stores every
experiment's exit code, verdicts, figures and configuration echo under
``perfbench/reference/``.  Regenerate only when a change to the package
is meant to change reported figures.
"""

import json
import shutil
import sys

import check
import run


def main(names) -> None:
    run.configure_environment()
    import workloads

    for name in names or run.WORKLOADS:
        inputs = run.WORK / f"reference-{name}"
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            job = workloads.build_inputs(name, check.DEFAULT_SEED, inputs)
            outputs = run.run_job(job, inputs).outputs
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        for output in outputs:
            problems = check.invariants(output)
            if problems:
                raise SystemExit(f"{name}: {output['argv']} is not a valid reference: {problems}")
        check.REFERENCE_DIR.mkdir(exist_ok=True)
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
