"""Write reference.json: gate booleans and residual of each reference call.

    python3 perfbench/make_reference.py

Runs every workload's reference scenario (scenario seed REFERENCE_SEED) at
both sizes and records what run.py checks each call against.  Regenerate it
only on purpose: the stored residual is what an accuracy loss is measured
against.
"""

from __future__ import annotations

import json

import run


def main():
    mods = run.import_holomoser()
    out = {}
    for name, wl in run.WORKLOADS.items():
        out[name] = {}
        for size in wl.sizes:
            scenario = run.make_scenario(mods, name, size, run.REFERENCE_SEED)
            _, rep, _, error = run.run_call(mods, wl.kind, scenario)
            if error:
                raise SystemExit(f"{name}/{size}: reference call raised\n{error}")
            if rep["verdict"] != "pass":
                raise SystemExit(f"{name}/{size}: reference verdict {rep['verdict']}")
            out[name][size] = {"residual": run.residual(rep), "gates": run.gates(rep)}
            print(name, size, out[name][size]["residual"], flush=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
