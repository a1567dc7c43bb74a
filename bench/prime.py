"""Fill a store with one cold paper pass, in a process of its own.

    python -m bench.prime SEED STORE

``paper-warm`` runs this during set-up, so that its worker's peak RSS
covers only the warm passes.  It prints the digest of the pass's output,
which every warm pass must reproduce, then the seconds the pass's
stopwatch ran and the pass's time in reference units (see
:mod:`bench.reference`).
"""

from __future__ import annotations

import sys
from pathlib import Path

from .worker import use_checkout_src


def main(argv: list[str]) -> int:
    seed, root = int(argv[0]), Path(argv[1])
    use_checkout_src()
    from .workloads import prime

    digest, elapsed, wall_ref = prime(seed, root)
    print(digest, repr(elapsed), repr(wall_ref))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
