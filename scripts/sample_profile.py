#!/usr/bin/env python3
"""Sampled CPU profile of one process: where a slow run spends its time.

Samples the instruction pointer of one thread on the task clock through
perf_event_open(2) (user space only) and folds the samples by function,
inlined frames included, with llvm-symbolizer. Unlike a traced pass it
adds no code to the program, so it also sees what the traced shims cost.
Standard library only.

Build the binary with line tables so inlined frames resolve, then run it
under the sampler, or attach to one that is running:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=target/prof \\
        cargo build --release --offline --manifest-path benchmark/Cargo.toml
    python3 scripts/sample_profile.py -- target/prof/release/iiot-benchmark \\
        --workload plant --seed 1 --seconds 20 --trace 0
    python3 scripts/sample_profile.py --pid 1234

Three tables: by innermost inlined frame, by symbol, and by the first
three inlined frames from this repository's own crates/ and benchmark/
sources (`authenticate <- IngestPipeline::offer`), which tells a hot
callee's callers apart where the other two cannot.

Only the thread the PID names is sampled (a launched command's main
thread). The report goes to stderr, so a launched command's stdout stays
its own. Where the kernel refuses perf_event_open (kernel.perf_event_paranoid
above 2, or a seccomp filter), the script says so and exits 0.
"""

import argparse
import collections
import ctypes
import errno
import mmap
import os
import platform
import re
import shutil
import signal
import struct
import subprocess
import sys
import time

SYSCALL = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP = 1
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9
PERF_FLAG_FD_CLOEXEC = 8
# perf_event_attr flag bits.
DISABLED, EXCLUDE_KERNEL, EXCLUDE_HV, ENABLE_ON_EXEC = 1 << 0, 1 << 5, 1 << 6, 1 << 12
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
DATA_PAGES = 256  # a power of two: 1 MiB of 16-byte samples
PAGE = mmap.PAGESIZE


def log(*args):
    print(*args, file=sys.stderr)


def paranoid():
    try:
        with open("/proc/sys/kernel/perf_event_paranoid") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def open_event(pid, period_ns, on_exec):
    """A task-clock sampling event on `pid`, or None and the errno."""
    nr = SYSCALL.get(platform.machine())
    if nr is None:
        return None, errno.ENOSYS
    flags = EXCLUDE_KERNEL | EXCLUDE_HV | (DISABLED | ENABLE_ON_EXEC if on_exec else 0)
    attr = bytearray(ATTR_SIZE)
    struct.pack_into(
        "<IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE, PERF_COUNT_SW_TASK_CLOCK,
        period_ns, PERF_SAMPLE_IP, 0, flags,
    )
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    fd = libc.syscall(nr, buf, ctypes.c_int(pid), ctypes.c_int(-1), ctypes.c_int(-1),
                      ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC))
    if fd < 0:
        return None, ctypes.get_errno()
    return fd, None


class Ring:
    """The event's mmap ring buffer: a header page, then the data pages."""

    def __init__(self, fd):
        self.size = DATA_PAGES * PAGE
        self.mm = mmap.mmap(fd, PAGE + self.size, mmap.MAP_SHARED,
                            mmap.PROT_READ | mmap.PROT_WRITE)
        self.lost = 0

    def drain(self, ips):
        """Appends every sampled IP written since the last call to `ips`."""
        head = struct.unpack_from("<Q", self.mm, 1024)[0]
        tail = struct.unpack_from("<Q", self.mm, 1032)[0]
        while tail < head:
            rtype, _misc, size = struct.unpack("<IHH", self.read(tail, 8))
            if rtype == PERF_RECORD_SAMPLE:
                ips.append(struct.unpack("<Q", self.read(tail + 8, 8))[0])
            elif rtype == PERF_RECORD_LOST:
                self.lost += struct.unpack("<Q", self.read(tail + 16, 8))[0]
            tail += size
        struct.pack_into("<Q", self.mm, 1032, tail)

    def read(self, pos, n):
        start = PAGE + pos % self.size
        end = start + n
        if end <= PAGE + self.size:
            return self.mm[start:end]
        return self.mm[start:PAGE + self.size] + self.mm[PAGE:end - self.size]


def read_maps(pid):
    """The executable mappings of `pid`: (start, end, file offset, path)."""
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    except OSError:
        pass
    return maps


def load_segments(path):
    """The ELF file's PT_LOAD segments as (file offset, vaddr, file size)."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", ident, 32)
        phentsize, phnum = struct.unpack_from("<HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        ptype, _flags, off, vaddr, _paddr, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if ptype == 1:
            segs.append((off, vaddr, filesz))
    return segs


# Escapes of Rust's legacy symbol mangling that the demangler leaves.
RUST_ESCAPES = {"$LT$": "<", "$GT$": ">", "$u20$": " ", "$C$": ",", "$RF$": "&",
                "$BP$": "*", "$LP$": "(", "$RP$": ")", "$u7b$": "{", "$u7d$": "}",
                "$u27$": "'", "$u5b$": "[", "$u5d$": "]", "$u3b$": ";", "..": "::"}


def tidy(name):
    """A symbol without its hash suffix and mangling escapes."""
    name = re.sub(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$", "", name)
    name = re.sub(r"^_(?=\$LT\$)", "", name)
    for escape, text in RUST_ESCAPES.items():
        name = name.replace(escape, text)
    return name


def split_path(name):
    """`name` split at the `::` separators outside angle brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(name):
        depth += {"<": 1, ">": -1}.get(ch, 0)
        if depth == 0 and name.startswith("::", i):
            parts.append(name[start:i])
            start = i + 2
    parts.append(name[start:])
    return [p for p in parts if p]


def short(name):
    """A function's name with its type or enclosing function, without
    the module path: `iiot_cloud::ingest::IngestPipeline::offer` becomes
    `IngestPipeline::offer`."""
    parts = split_path(name) or [name]
    fn = parts[-1]
    if len(parts) < 2:
        return fn
    owner = parts[-2]
    if owner.startswith("<") and owner.endswith(">"):
        owner = (split_path(owner[1:-1].split(" as ")[0]) or [owner])[-1]
    if owner[:1].isupper() or fn.startswith("{"):
        return f"{owner}::{fn}"
    return fn


# A source file of this repository: under crates/ or benchmark/, and not
# the standard library, a registry crate or a vendored stand-in.
FIRST_PARTY = re.compile(r"(^|/)(crates|benchmark)/")
THIRD_PARTY = re.compile(r"(^|/)(vendor|\.cargo|rustc)/")


def symbolize(path, addrs):
    """{address: [(frame, first-party short name or None), ...]} for
    `path`, innermost inlined frame first; an inlined frame is named
    with the source file it came from."""
    tool = shutil.which("llvm-symbolizer")
    if tool is None or not addrs:
        return {}
    out = subprocess.run(
        [tool, "--obj=" + path, "--inlining", "--demangle"],
        input="".join(f"0x{a:x}\n" for a in addrs), capture_output=True, text=True,
    ).stdout
    frames = {}
    unknown = (f"?? [{os.path.basename(path)}]", None)
    for addr, block in zip(addrs, out.split("\n\n")):
        lines = block.strip("\n").split("\n")
        chain = []
        for fn, loc in zip(lines[::2], lines[1::2]):
            if fn == "??":
                chain.append(unknown)
                continue
            file = loc.rsplit(":", 2)[0]
            src = "/".join(file.split("/")[-2:])
            ours = FIRST_PARTY.search(file) and not THIRD_PARTY.search(file)
            chain.append((f"{tidy(fn)}  ({src})", short(tidy(fn)) if ours else None))
        frames[addr] = chain or [unknown]
    return frames


def fold(ips, maps):
    """Sample counts by innermost frame, by symbol (outermost frame) and
    by the first three first-party frames, innermost first."""
    by_file = collections.defaultdict(collections.Counter)
    unmapped = collections.Counter()
    for ip in ips:
        for lo, hi, off, path in maps:
            if lo <= ip < hi:
                by_file[path][ip - lo + off] += 1
                break
        else:
            unmapped["[unmapped]"] += 1
    inner, outer = collections.Counter(unmapped), collections.Counter(unmapped)
    ours = collections.Counter(unmapped)
    for path, offsets in by_file.items():
        try:
            segs = load_segments(path)
        except OSError:
            segs = []
        vaddr = {}
        for o in offsets:
            for soff, sv, sz in segs:
                if soff <= o < soff + sz:
                    vaddr[o] = o - soff + sv
        frames = symbolize(path, sorted(set(vaddr.values())))
        name = os.path.basename(path)
        for o, n in offsets.items():
            chain = frames.get(vaddr.get(o), [(f"[{name}]", None)])
            symbol = chain[-1][0].split("  (")[0]
            inner[chain[0][0]] += n
            outer[symbol] += n
            # No first-party frame: the symbol, bracketed as not ours.
            first_party = [s for _, s in chain if s][:3]
            fallback = symbol if symbol.startswith(("?", "[")) else f"[{short(symbol)}]"
            ours[" <- ".join(first_party) or fallback] += n
    return inner, outer, ours


def report(title, counts, total, top):
    log(f"== {title} ==")
    for fn, n in counts.most_common(top):
        log(f"{100 * n / total:6.1f} %  {fn[:150]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=int, default=2000, help="samples per CPU-second (default 2000)")
    ap.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    ap.add_argument("--pid", type=int, help="attach to this running process instead")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- COMMAND ARGS...")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if (args.pid is None) == (not command):
        ap.error("give either --pid PID or -- COMMAND ARGS...")
    period = max(1, 10**9 // args.hz)

    if args.pid is not None:
        pid, go = args.pid, None
    else:
        # The child waits on a pipe until the event is open, so sampling
        # starts at its exec and nothing before it is lost.
        r, go = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(go)
            os.read(r, 1)
            try:
                os.execvp(command[0], command)
            finally:
                os._exit(127)
        os.close(r)
    fd, err = open_event(pid, period, on_exec=go is not None)
    if fd is None:
        if go is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        log(f"sample_profile: perf_event_open failed: {errno.errorcode.get(err, err)}"
            f" ({os.strerror(err)}); kernel.perf_event_paranoid = {paranoid()}. Nothing sampled.")
        # Refused by policy, not misused: nothing to profile here.
        return 0 if err in (errno.EACCES, errno.EPERM, errno.ENOSYS) else 1
    ring = Ring(fd)
    if go is not None:
        os.write(go, b"x")
        os.close(go)

    ips, maps = [], []
    status = 0
    interrupted = False
    try:
        while True:
            time.sleep(0.02)
            ring.drain(ips)
            # Read while the process lives: a zombie's map is empty.
            maps = read_maps(pid) or maps
            if go is not None:
                done, st = os.waitpid(pid, os.WNOHANG)
                if done:
                    status = os.waitstatus_to_exitcode(st)
                    break
            elif not os.path.exists(f"/proc/{pid}"):
                break
    except KeyboardInterrupt:
        interrupted = True
    ring.drain(ips)
    if not ips:
        log("sample_profile: no samples (the process ran too briefly or never ran user code).")
        return status
    inner, outer, ours = fold(ips, maps)
    total = len(ips)
    log(f"sample_profile: {total} task-clock samples at {args.hz} Hz of PID {pid}"
        f" ({total / args.hz:.2f} CPU-s; {ring.lost} lost){'; interrupted' if interrupted else ''}")
    report("self, by innermost (inlined) frame", inner, total, args.top)
    report("self, by symbol (outermost frame)", outer, total, args.top)
    report("self, by first three first-party frames (crates/, benchmark/)", ours, total, args.top)
    return status


if __name__ == "__main__":
    sys.exit(main())
