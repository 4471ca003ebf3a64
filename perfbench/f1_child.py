"""Child process of the F1 canary: synthesize the canary assay with the
greedy scheduler ``argv[1]`` times under this process's hash seed and
print one JSON list of ``{"report", "seconds"}`` objects."""

import json
import sys
import time

from repro import SynthesisSpec, synthesize
from repro.assays import random_assay
from repro.io.json_io import result_to_json

from inputs import F1_CANARY

if __name__ == "__main__":
    spec = SynthesisSpec(threshold=2, max_devices=25, scheduler="greedy")
    out = []
    for _ in range(int(sys.argv[1])):
        began = time.perf_counter()
        result = synthesize(random_assay(F1_CANARY[0], seed=F1_CANARY[1]), spec)
        out.append({"report": result_to_json(result, deterministic=True),
                    "seconds": time.perf_counter() - began})
    print(json.dumps(out))
