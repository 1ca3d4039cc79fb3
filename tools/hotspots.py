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
`Sim.Net.arrive`. A sample inside a mapped shared library is symbolized
against `nm -D -S` of that file, relative to the address of its offset-0
mapping, and prints as `__read [libc.so.6]` when it falls within an
exported symbol's address and size; a sample that no such symbol covers
(in a function the library does not export, say) is charged to the file
mapped there (`[libc.so.6]`, `[vdso]`).

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
    """(low, high, path, file offset) of every mapping."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            out.append((lo, hi, parts[5] if len(parts) >= 6 else "?", int(parts[2], 16)))
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


def symbols(path, dynamic=False):
    """Text symbols as (addresses, names, ends), by address. In the
    executable's table (`nm -n`) a symbol runs to the next one (end None),
    and where several share an address a function name wins over a
    module's code_begin marker. A shared library's table is its dynamic
    one with sizes (`nm -D -S`), without version suffixes; a symbol
    without a size is left out, and where several share an address the
    first listed wins. Empty when `nm` cannot read the file."""
    table = {}
    cmd = ["nm", "-D", "-S", "--defined-only", "-n", path] if dynamic else ["nm", "-n", path]
    run = subprocess.run(cmd, capture_output=True, text=True)
    for line in run.stdout.splitlines():
        parts = line.split()
        if dynamic and len(parts) == 4 and parts[2] in "tTwWi":
            addr = int(parts[0], 16)
            if addr not in table:
                table[addr] = (parts[3].split("@")[0], addr + int(parts[1], 16))
        elif not dynamic and len(parts) == 3 and parts[1] in "tTwW":
            addr = int(parts[0], 16)
            if addr not in table or table[addr][0].endswith("code_begin"):
                table[addr] = (parts[2], None)
    addrs = sorted(table)
    return addrs, [table[a][0] for a in addrs], [table[a][1] for a in addrs]


def lookup(table, offset):
    """The name of the symbol that covers `offset`, or None."""
    addrs, names, ends = table
    i = bisect.bisect_right(addrs, offset) - 1
    if i < 0 or (ends[i] is not None and offset >= ends[i]):
        return None
    return names[i]


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
    real = os.path.realpath(exe)
    exe_table = symbols(exe)
    # A library's symbols are offsets from where its offset-0 mapping sits.
    lib_base = {}
    for lo, _, path, offset in maps:
        if offset == 0 and path.startswith("/") and path not in lib_base:
            lib_base[path] = lo
    lib_tables = {}
    counts = collections.Counter()
    for rip in rips:
        where = next((path for lo, hi, path, _ in maps if lo <= rip < hi), "?")
        if where == real:
            name = lookup(exe_table, rip - base)
            counts[pretty(name) if name else "?"] += 1
        elif where in lib_base:
            if where not in lib_tables:
                lib_tables[where] = symbols(where, dynamic=True)
            name = lookup(lib_tables[where], rip - lib_base[where])
            file = os.path.basename(where)
            counts[f"{name} [{file}]" if name else f"[{file}]"] += 1
        else:
            counts[f"[{os.path.basename(where)}]"] += 1
    total = len(rips)
    print(f"{total} samples of {' '.join(cmd)}", file=sys.stderr)
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / max(total, 1):6.2f}%  {n:7d}  {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
