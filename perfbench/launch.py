"""Start a serving process for the benchmark, optionally with timers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launch.py [--ledger FILE] serve <repro serve args>
    python perfbench/launch.py [--ledger FILE] router --shard HOST:PORT

``serve`` calls the normal ``repro serve`` entry point.  ``router``
puts a :class:`~repro.cluster.router.ClusterRouter` over the one shard
at ``HOST:PORT`` behind a :class:`~repro.cluster.router.RouterServer`,
prints ``routing on HOST:PORT`` once it listens, and exits after a
``shutdown`` request (which it forwards to the shard).  With
``--ledger`` the layers are wrapped in timers first
(:mod:`perfbench.tracing`) and the ledger is written to FILE on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

import tracing


async def _route(shard: str) -> None:
    from repro.cluster.router import ClusterRouter, RouterServer

    host, _, shard_port = shard.rpartition(":")
    router = ClusterRouter({"shard0": (host, int(shard_port))})
    server = RouterServer(router, host="127.0.0.1", port=0)
    await server.start()
    bound_host, bound_port = server.address
    print(f"routing on {bound_host}:{bound_port}", flush=True)
    await server.serve_until_shutdown()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--ledger", default=None, help="write the timer ledger here")
    parser.add_argument("role", choices=("serve", "router"))
    parser.add_argument("--shard", default=None, help="router: the shard HOST:PORT")
    args, rest = parser.parse_known_args(argv)
    ledger = tracing.Ledger() if args.ledger else None
    try:
        if args.role == "serve":
            if ledger is not None:
                tracing.install_server(ledger)
            from repro.cli import main as repro_main

            return repro_main(["serve", *rest])
        if args.shard is None or rest:
            parser.error("router takes --shard HOST:PORT and nothing else")
        if ledger is not None:
            tracing.install_router(ledger)
        asyncio.run(_route(args.shard))
        return 0
    finally:
        if ledger is not None:
            ledger.dump(args.ledger)


if __name__ == "__main__":
    sys.exit(main())
