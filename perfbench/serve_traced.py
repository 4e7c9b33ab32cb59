#!/usr/bin/env python3
"""Start the verification server with the benchmark's span wrappers.

    python3 perfbench/serve_traced.py SOCKET --store PATH --spans OUT

The traced service-mix run uses this in place of ``python -m repro
serve``: it wraps the server's layers (``tracing.install`` with the store
methods and memo fingerprint), serves until a ``shutdown`` request, then
writes every span it recorded to ``OUT`` (a pickle the benchmark reads).
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (the benchmark's own module, path set above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("socket")
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    tracer = tracing.Tracer()
    tracer.begin_job("server")
    tracing.install(tracer, server_side=True)
    from repro.service import serve

    try:
        serve(args.socket, store_path=args.store)
    finally:
        with open(args.spans, "wb") as handle:
            pickle.dump(tracer.export(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
