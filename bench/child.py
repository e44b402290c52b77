"""Fresh-process probes, one per invocation.

    child.py driven MODE DAMPING STRENGTH DRIVE   one integrate_driven call
    child.py import-cli                           time `import parsim.cli`
    child.py import-scipy MODULE...               time importing those modules

Each prints one JSON object on stdout.
"""

import json
import sys
import time


def main(argv: list[str]) -> None:
    command, args = argv[0], argv[1:]
    if command == "driven":
        from parsim.oracle import integrate_driven

        result = integrate_driven(*(float(a) for a in args))
        print(json.dumps({"re": result.amplitude.real, "im": result.amplitude.imag,
                          "drift": result.drift}))
    elif command == "import-cli":
        before = set(sys.modules)
        start = time.perf_counter()
        import parsim.cli  # noqa: F401

        elapsed = time.perf_counter() - start
        loaded = set(sys.modules) - before
        scipy = sorted({".".join(name.split(".")[:2]) for name in loaded
                        if name.startswith("scipy.")})
        print(json.dumps({"seconds": elapsed, "modules": len(loaded),
                          "scipy": scipy}))
    elif command == "import-scipy":
        # parsim's own floor first, so only scipy's share is timed
        import numpy  # noqa: F401
        import yaml  # noqa: F401

        start = time.perf_counter()
        for name in args:
            __import__(name)
        print(json.dumps({"seconds": time.perf_counter() - start}))
    else:
        raise SystemExit(f"unknown probe {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
