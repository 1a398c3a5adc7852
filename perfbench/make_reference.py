"""Write ``reference.json``: the exact values the chain_exact checks compare to.

    python3 perfbench/make_reference.py

Run it only on a commit whose exact results are trusted; the stored file
was made on the seed code.  Final-level values come from
``sigma.exact_chain`` and the functionals directly, not through the
``cli.run`` path the workload times; brackets come from
``cli.threshold_bisect``.
"""

import json

import workloads

if __name__ == "__main__":
    reference = {"chain_exact": workloads.chain_reference()}
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_FILE}")
