"""Host and build fingerprint recorded with every result."""
import glob
import hashlib
import os
import subprocess


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def caches():
    """['L1d 48K', 'L2 2048K', ...] of cpu0, from sysfs."""
    out = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, k)) for k in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out.append(f"L{level}{suffix} {size}")
    return out


def git_commit(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest(root):
    """sha256 over the library sources and build files: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, "src", "**", "*.[ch]pp"), recursive=True))
    files.append(os.path.join(root, "CMakeLists.txt"))
    for p in files:
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def cpu_times():
    """(total, steal) jiffies from /proc/stat, or None."""
    text = _read("/proc/stat") or ""
    for line in text.splitlines():
        if line.startswith("cpu "):
            v = [int(x) for x in line.split()[1:]]
            return sum(v[:8]), v[7] if len(v) > 7 else 0
    return None


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two cpu_times()."""
    if not before or not after or after[0] <= before[0]:
        return 0.0
    return (after[1] - before[1]) / (after[0] - before[0])
