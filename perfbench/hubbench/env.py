"""Thread cap, memory guard and the environment record of a results file.

``cap_threads`` must run before numpy is imported: BLAS reads its thread
variables once, when it loads.
"""

import os
import platform

THREAD_VARS = ("HUBKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(environ=os.environ) -> int:
    """Cap every BLAS/OpenMP thread pool at ``HUBKIT_THREADS`` (default and
    ceiling: ``nproc``).  Child processes inherit the variables."""
    limit = nproc()
    try:
        cap = int(environ.get("HUBKIT_THREADS", "0"))
    except ValueError:
        cap = 0
    cap = limit if cap <= 0 else min(cap, limit)
    for var in THREAD_VARS:
        environ[var] = str(cap)
    return cap


def meminfo_kib(text: str) -> dict[str, int]:
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if parts and parts[0].isdigit():
            out[key.strip()] = int(parts[0])
    return out


def read_meminfo() -> dict[str, int]:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            return meminfo_kib(fh.read())
    except OSError:
        return {}


def memory_refusal(need_bytes: int, meminfo: dict[str, int]) -> str | None:
    """Why a workload needing ``need_bytes`` must not start, or None.

    An unknown MemAvailable is not a reason to refuse.
    """
    avail_kib = meminfo.get("MemAvailable")
    if avail_kib is None:
        return None
    if need_bytes > avail_kib * 1024:
        return f"needs {need_bytes / 2**20:.0f} MiB, MemAvailable is {avail_kib / 1024:.0f} MiB"
    return None


def _l3_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="ascii") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
            scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return None
    return None


def git_sha(root) -> str:
    """HEAD of ``root/.git`` read from its files; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def record(root, seed: int, thread_cap: int) -> dict:
    import numpy as np
    import scipy

    mem = read_meminfo()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "thread_cap": thread_cap,
        "nproc": nproc(),
        "l3_bytes": _l3_bytes(),
        "mem_total_kib": mem.get("MemTotal"),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "seed": seed,
    }
