"""Allow ``python -m repro.bench <experiment>``, re-executed with
``PYTHONHASHSEED=0`` so the hash-sharded caches evict alike in identical
runs (``cli.main``, which tests call in-process, does not pin it)."""

import os
import sys

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "repro.bench", *sys.argv[1:]])
    from .cli import main

    sys.exit(main())
