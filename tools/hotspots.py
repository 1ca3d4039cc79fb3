#!/usr/bin/env python3
"""Sampling profiler for the project's native executables (Linux x86-64).

    python3 tools/hotspots.py [--interval-ms 0.5] [--top 40] -- EXE [ARGS...]

Runs EXE as a child, attaches to it with PTRACE_SEIZE, and every
interval interrupts it (PTRACE_INTERRUPT), reads its instruction pointer
(PTRACE_GETREGS) and lets it go on. When the child exits, the samples
are symbolized against `nm -n EXE`, shifted by the load base of the
executable read from /proc/<pid>/maps (OCaml executables are PIE), and
the hottest functions are printed to stderr with their share of the
samples. OCaml names are shortened: `camlSim__Net.arrive_1234` prints as
`Sim.Net.arrive`. A sample outside the executable is charged to the file
mapped there (libc, vdso).

It needs nothing beyond the Python standard library and binutils' `nm`.
It samples the main thread only; an interval timer profiler that the
program resets (such as a clock profiler sharing SIGPROF) gets few
samples, which is why this one interrupts from outside. Timing is
perturbed by the stops, so read the shares, not absolute times.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_O_TRACEEXEC = 0x10
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_STOP = 128
RIP = 16  # index of rip in struct user_regs_struct


class Regs(ctypes.Structure):
    _fields_ = [("r", ctypes.c_ulong * 27)]


libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, pid, addr=0, data=0):
    if libc.ptrace(req, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data)) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def start(argv, exe):
    """Fork the target stopped, seize it, let it exec, and return its pid
    with the executable's load base."""
    pid = os.fork()
    if pid == 0:
        try:
            os.kill(os.getpid(), signal.SIGSTOP)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    os.waitpid(pid, os.WUNTRACED)
    ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_TRACEEXEC)
    os.kill(pid, signal.SIGCONT)
    while True:
        _, status = os.waitpid(pid, 0)
        if os.WIFSTOPPED(status) and status >> 16 == PTRACE_EVENT_EXEC:
            base = exe_base(pid, exe)
            ptrace(PTRACE_CONT, pid)
            return pid, base
        if not resume(pid, status):
            sys.exit(f"{argv[0]}: could not be started")


def resume(pid, status):
    """Continue from a stop that is not a sample; False once the child is gone."""
    if os.WIFEXITED(status) or os.WIFSIGNALED(status):
        return False
    sig = os.WSTOPSIG(status)
    # Event stops (exec, interrupt, group stop) deliver nothing; a
    # signal-delivery stop passes its signal on.
    deliver = 0 if status >> 16 or sig == signal.SIGCONT else sig
    ptrace(PTRACE_CONT, pid, 0, deliver)
    return True


def exe_base(pid, exe):
    """Load address of the executable's first mapping."""
    real = os.path.realpath(exe)
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[5] == real and int(parts[2], 16) == 0:
                return int(parts[0].split("-")[0], 16)
    return 0


def mappings(pid):
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            out.append((lo, hi, os.path.basename(parts[5]) if len(parts) >= 6 else "?"))
    return out


def sample(pid, interval):
    """Instruction pointers until the child exits, and the mappings read at
    the first sample, once the dynamic loader has mapped the libraries."""
    regs = Regs()
    rips = []
    maps = []
    alive = True
    while alive:
        time.sleep(interval)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass
        while True:
            _, status = os.waitpid(pid, 0)
            if not os.WIFSTOPPED(status):
                alive = False
                break
            if status >> 16 == PTRACE_EVENT_STOP:
                ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
                rips.append(regs.r[RIP])
                if not maps:
                    maps = mappings(pid)
                ptrace(PTRACE_CONT, pid)
                break
            if not resume(pid, status):
                alive = False
                break
    return rips, maps


def symbols(exe):
    """Text symbols by address; where several share one, a function name
    wins over a module's code_begin marker."""
    table = {}
    out = subprocess.run(["nm", "-n", exe], capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addr = int(parts[0], 16)
            if addr not in table or table[addr].endswith("code_begin"):
                table[addr] = parts[2]
    addrs = sorted(table)
    return addrs, [table[a] for a in addrs]


def pretty(name):
    m = re.match(r"caml([A-Z][A-Za-z0-9_']*)\.(.*)$", name)
    if not m:
        return name
    fn = re.sub(r"_\d+$", "", m.group(2))
    return m.group(1).replace("__", ".") + "." + fn


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--interval-ms", type=float, default=0.5)
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command: give it after --")
    exe = cmd[0] if os.path.sep in cmd[0] else subprocess.run(
        ["sh", "-c", 'command -v "$1"', "sh", cmd[0]], capture_output=True, text=True
    ).stdout.strip()
    if not exe:
        ap.error(f"{cmd[0]}: not found")
    pid, base = start(cmd, exe)
    rips, maps = sample(pid, args.interval_ms / 1000.0)
    addrs, names = symbols(exe)
    real = os.path.basename(os.path.realpath(exe))
    counts = collections.Counter()
    for rip in rips:
        where = next((name for lo, hi, name in maps if lo <= rip < hi), "?")
        if where == real and addrs:
            i = bisect.bisect_right(addrs, rip - base) - 1
            counts[pretty(names[i]) if i >= 0 else "?"] += 1
        else:
            counts[f"[{where}]"] += 1
    total = len(rips)
    print(f"{total} samples of {' '.join(cmd)}", file=sys.stderr)
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / max(total, 1):6.2f}%  {n:7d}  {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
