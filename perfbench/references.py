"""Write the compare_bie sup_error references, one per seed, as JSON.

    python3 perfbench/references.py 0 100 > perfbench/references.json

Each value is what ``foldylax compare`` printed for the seed's cloud at the
commit that added the benchmark, with the benchmark's own set-up and thread
cap. Runs are checked against it with workloads.SUP_ERROR_RTOL.
"""

import json
import sys

from child import pin_own_threads
from run import Bench


def main(first: int, last: int):
    pin_own_threads()
    table = {}
    for seed in range(first, last):
        bench = Bench("compare_bie", seed)
        bench.setup()
        table[str(seed)] = bench.sup_error_once()
    print(json.dumps({"sup_error": table}, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
