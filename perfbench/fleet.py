"""A throwaway proof-service fleet: one ``repro serve`` broker and
``repro worker`` processes, all outside the driving process.

Every grid pass of the fleet workload gets a fresh fleet, so nothing
(broker memo, gossip, worker caches) carries over from an earlier pass:
the broker runs without ``--durable`` and the workers without
``--cache-dir``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

_LISTENING = re.compile(r"listening on (\S+)")
#: Worker processes per fleet: two solver processes on a two-core host.
WORKERS = 2
#: Seconds to wait for the broker to listen and the workers to register.
START_TIMEOUT_S = 30.0


class Fleet:
    """Start with :meth:`start`, always :meth:`stop` (kills and reaps)."""

    def __init__(self, root: str, logdir: str) -> None:
        self.root = root
        self.logdir = logdir
        self.address: Optional[str] = None
        self._procs: List[subprocess.Popen] = []
        self._logs: List = []

    def _spawn(self, args: List[str], tag: str) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        log = open(os.path.join(self.logdir, f"{tag}.log"), "w")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=self.root, env=env,
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        self._procs.append(proc)
        return proc

    def _log_text(self, tag: str) -> str:
        with open(os.path.join(self.logdir, f"{tag}.log")) as handle:
            return handle.read()

    def start(self) -> str:
        """Start the broker and the workers; returns the broker address.

        The workers have dialed in once the caller's client sees them in
        the broker status (see :func:`wait_for_workers`)."""
        broker = self._spawn(["serve", "--host", "127.0.0.1", "--port", "0"],
                             "broker")
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.address is None:
            match = _LISTENING.search(self._log_text("broker"))
            if match:
                self.address = match.group(1)
                break
            if broker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("broker did not start:\n"
                                   + self._log_text("broker")[-2000:])
            time.sleep(0.01)
        for i in range(WORKERS):
            self._spawn(["worker", "--connect", self.address,
                         "--name", f"w{i}"], f"worker{i}")
        return self.address

    def wait_for_workers(self, pool) -> None:
        """Block until the broker lists every worker (``pool`` is a
        connected ``RemotePool``)."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while len(pool.status()["workers"]) < WORKERS:
            dead = [p.args for p in self._procs if p.poll() is not None]
            if dead or time.monotonic() > deadline:
                raise RuntimeError(f"fleet workers did not register "
                                   f"(exited: {dead})")
            time.sleep(0.01)

    def stop(self) -> None:
        """Kill every fleet process and wait until each has ended."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        for proc in self._procs:
            proc.wait()
        for log in self._logs:
            log.close()
        self._procs.clear()
        self._logs.clear()
