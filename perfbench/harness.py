"""Child processes of the benchmark: spawn one, time it, read its peak RSS.

Each child runs alone (a closed loop with one client).  Its wall time runs
from just before the spawn until the kernel reports its exit, and its peak
RSS is the `ru_maxrss` that `wait4` returns for that child only.  Children
inherit the CPU the benchmark pins itself to.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str

    def problems(self, check=None):
        """Why this run counts as failed, or [] when it passed `check`."""
        if self.timed_out:
            return ["timed out"]
        if self.exit_code != 0 or "Traceback" in self.stderr:
            return [f"exit code {self.exit_code}: {self.stderr.strip()[-500:]}"]
        return check(self.stdout) if check else []


def pin_to_one_cpu():
    """Run this process, and so every child, on one CPU; returns that CPU.

    The CPUs of a shared host can run at different speeds at the same time,
    so the calibration and the commands must share one to be compared.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(root):
    """The inherited environment, importing `homchains` from the checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, cwd, work_dir, timeout):
    """Run argv to completion (killing it after `timeout` seconds)."""
    out_path = Path(work_dir) / "child.stdout"
    err_path = Path(work_dir) / "child.stderr"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)

        def kill():
            # the child is not reaped before `exited` is set, so its pid is still its own
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            # wait for the exit without reaping, then reap with the child's rusage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024,
                    exit_code=proc.returncode, timed_out=state["killed"],
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"))
