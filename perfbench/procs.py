"""Process-tree helpers read from /proc: RSS of the driver and its Ray
worker and actor processes, and waiting for started processes to end."""

from __future__ import annotations

import os
import signal
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _ppid_and_cmd(pid: int) -> tuple[int, str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read().split(b"\0", 1)[0].decode(errors="replace")
    except OSError:
        return None
    # the command name in field 2 may hold spaces; ppid follows the ")"
    return int(stat.rsplit(")", 1)[1].split()[1]), cmd


def descendants(root: int) -> dict[int, str]:
    """pid -> first cmdline word of every live process below ``root``."""
    children: dict[int, list[tuple[int, str]]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            pc = _ppid_and_cmd(int(d))
            if pc is not None:
                children.setdefault(pc[0], []).append((int(d), pc[1]))
    out: dict[int, str] = {}
    frontier = [root]
    while frontier:
        for pid, cmd in children.get(frontier.pop(), ()):
            if pid not in out:
                out[pid] = cmd
                frontier.append(pid)
    return out


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def ray_rss_bytes(root: int, name_prefix: str = "ray::") -> int:
    """Summed RSS of ``root`` plus every descendant whose process title
    starts with ``name_prefix`` (Ray names worker and actor processes
    ``ray::<task or actor>``)."""
    return rss_bytes(root) + sum(
        rss_bytes(pid) for pid, cmd in descendants(root).items()
        if cmd.startswith(name_prefix))


def wait_gone(pids, timeout: float) -> list[int]:
    """Wait until every pid has exited; SIGKILL what is left after
    ``timeout`` seconds and wait again.  Returns pids that never ended."""
    pids = set(pids)
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
                if not _alive(pid):
                    pids.discard(pid)
            time.sleep(0.05)
    return sorted(pids)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
