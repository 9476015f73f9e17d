"""How fast the host's cores run right now, to scale measured rates.

:class:`SpeedProbe` starts this module as a helper process::

    python3 -m perfbench.probe

The helper runs :func:`probe_kernel` once for every line it reads on
standard input, writes the kernel's seconds as one line, and exits at
the end of its input (when the benchmark closes the pipe or dies).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: What :func:`probe_kernel` takes on an uncontended 2-core Xeon host;
#: rates are reported as if every probe had taken this long.
PROBE_REF_S = 0.0065

#: Seconds the helper gets to exit once its input is closed.
_STOP_TIMEOUT_S = 10.0


def probe_kernel() -> float:
    """Seconds a fixed CPU kernel (pure Python, then numpy) takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    values = np.arange(200_000.0)
    float((values * values).sum())
    return time.perf_counter() - t0


class SpeedProbe:
    """How fast the host's cores run right now.

    Other tenants load the host's cores, so their speed drifts by a
    third over tens of seconds, and each core on its own.  Each rep is
    bracketed by two probes, and its rate is scaled by ``mean probe time
    / PROBE_REF_S``: the rate the rep would have had at the reference
    speed.  A probe runs the kernel here and, at the same moment, in a
    helper process on the other core; stages that use one core scale by
    this process's time, stages that use two (the pooled sweep, the
    service with its load generator) by the mean of both.  Raw rates
    are printed beside the scaled ones.
    """

    def __init__(self, root: str, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe"], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def measure(self, cores: int) -> float:
        """Kernel seconds on ``cores`` (1 or 2) cores, run concurrently."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        here = probe_kernel()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe's helper process ended")
        there = float(line)
        return here if cores == 1 else (here + there) / 2

    def close(self) -> None:
        """Stop the helper process and wait for it."""
        if self._proc.stdin is not None:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()


def main() -> int:
    """Helper process: run the kernel once per input line."""
    for _ in sys.stdin.buffer:
        sys.stdout.write(f"{probe_kernel()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
