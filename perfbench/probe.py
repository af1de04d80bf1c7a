"""Host-speed probe: ``python3 probe.py``, a fixed reference job that does not use elopt.

It does what an elopt job does, in about the same proportions: start a
Python process and import numpy and scipy, solve a fixed sparse LP with
HiGHS, run vectorised numpy and a pure-Python loop.  It prints the LP
objective and a checksum, which must repeat exactly within a run.

The benchmark runs it between jobs.  On a shared host the speed of the
machine drifts by tens of percent over minutes; the probe's time drifts with
it, so job times divided by the probe's median time in the same run measure
the program, not the host (see ``run.py``).
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

ROWS, COLS = 400, 550


def main() -> None:
    rng = np.random.default_rng(20091257)
    a = sparse.random(ROWS, COLS, density=0.02, random_state=rng, format="csr")
    res = linprog(-np.ones(COLS), A_ub=a, b_ub=np.ones(ROWS), bounds=(0, 1), method="highs")
    if res.status != 0:
        raise SystemExit(f"probe LP status {res.status}: {res.message}")
    x = rng.random(1_000_000)
    total = float(np.sort(np.sin(x) * x)[::1000].sum())
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    print(repr(res.fun), repr(total), acc)


if __name__ == "__main__":
    main()
