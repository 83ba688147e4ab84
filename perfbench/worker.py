"""One measurement in a fresh interpreter; run.py starts these and reads their JSON.

    worker.py probe
        time `import sepfam, sepfam.cli` and nothing else
    worker.py loop WORKLOAD SEED SECONDS
        closed loop for SECONDS of busy time, run on to the end of a block
        of request kinds, then check every output
    worker.py pass WORKLOAD SEED REQUESTS [--trace-to PATH] [--check]
        exactly REQUESTS requests; traced (spans written to PATH), checked,
        or neither

The only line printed is one JSON object.

Speed. A shared machine's speed can swing by a third or more over spans of
seconds to tens of seconds, with CPU time swinging as much as wall time.
So every timing is also reported scaled to a nominal machine speed: between
stretches of about CAL_EVERY_S of requests the worker times a fixed kernel
of the benchmark's own code (it never calls sepfam, so no change to the
program moves it), and each request's time is multiplied by the kernel's
nominal time over its measured time around that request's stretch. The
kernel comes in two forms, plain and with a pair-cut part, because a
slower host does not slow all code alike; each workload says which form
fits each of its requests. Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHUNK = 16  # requests generated at a time, outside the timed stretches
CAL_EVERY_S = 0.25  # busy seconds between two timings of the kernel
KERNEL_NOMINAL_S = 0.0005  # the kernel's typical time on a 2-core x86-64 VM
PAIRS_NOMINAL_S = 0.0012  # the same with the pair-cut part added


def import_sepfam() -> float:
    """Import the package from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sepfam
    import sepfam.cli  # noqa: F401
    took = time.perf_counter() - start
    if not Path(sepfam.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sepfam was imported from {sepfam.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    return took


def kernel_seconds(pairs: bool = False) -> float:
    """Median of three timings of the fixed calibration kernel.

    With pairs=True each timing also runs the pair-cut part, for requests
    whose time goes to method calls over element pairs on wide masks.
    """
    import reference as ref

    times = []
    for _ in range(3):
        start = time.perf_counter()
        ref.count_residue(150, 10, True)
        for _ in range(2):
            ref.is_minimal(_KERNEL_ROWS, 9)
        for _ in range(3):
            ref.edge_cut_coblocks(30, ref.prufer_decode(30, _KERNEL_CODE))
        _KERNEL_A * _KERNEL_B
        if pairs:
            for i, j in itertools.combinations(range(1, 31), 2):
                any(cut.cuts(i, j) for cut in _KERNEL_CUTS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class _Cut:
    """Two blocks of {1..n} held as a wide coblock mask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int) -> None:
        self.n, self.mask = n, mask

    def cuts(self, i: int, j: int) -> bool:
        for x in (i, j):
            if not 1 <= x <= self.n:
                raise ValueError(x)
        return bool((self.mask >> (i - 1) ^ self.mask >> (j - 1)) & 1)


_KERNEL_ROWS = [(37 * i) % 512 for i in range(64)]
_KERNEL_CODE = [(7 * i) % 30 + 1 for i in range(28)]
_KERNEL_A, _KERNEL_B = 3**9000, 7**7000
_KERNEL_CUTS = [_Cut(300, (0x9E3779B97F4A7C15**5 * (m + 3)) % (1 << 300)) for m in range(6)]


class Records:
    """Outcome of each request, in arrays sized before the loop starts.

    Requests are sent in stretches; both kernels are timed before the first
    stretch and after each one, and every request remembers its stretch and
    which kernel its time is scaled by (Workload.pairs).
    """

    def __init__(self, capacity: int) -> None:
        self.codes = array("h", [0]) * capacity
        self.values = array("Q", [0]) * capacity
        self.latency = array("d", [0.0]) * capacity
        self.stretch = array("I", [0]) * capacity
        self.pairs = array("b", [0]) * capacity
        self.capacity = capacity
        self.size = 0
        self.stretch_s: list[float] = []
        self.kernel_s = {False: [kernel_seconds()], True: [kernel_seconds(True)]}

    def full(self) -> bool:
        return self.size == self.capacity

    def close_stretch(self, seconds: float) -> None:
        self.stretch_s.append(seconds)
        for pairs, times in self.kernel_s.items():
            times.append(kernel_seconds(pairs))

    def scales(self, pairs: bool) -> list[float]:
        """Nominal over measured kernel time for each stretch.

        Each stretch takes the median of the six kernel timings nearest to
        it, three on each side, which damps the noise of single timings.
        """
        nominal = PAIRS_NOMINAL_S if pairs else KERNEL_NOMINAL_S
        times = self.kernel_s[pairs]
        return [nominal / statistics.median(times[max(0, j - 2): j + 4])
                for j in range(len(self.stretch_s))]

    def busy(self) -> tuple[float, float]:
        """(raw, scaled) seconds spent in requests.

        A stretch is scaled by the ratio of its requests' scaled to raw
        latency, so the time between requests is scaled with them.
        """
        raw = [0.0] * len(self.stretch_s)
        scaled = [0.0] * len(self.stretch_s)
        for i, lat in enumerate(self.scaled_latency()):
            raw[self.stretch[i]] += self.latency[i]
            scaled[self.stretch[i]] += lat
        return sum(self.stretch_s), sum(t * v / r for t, v, r in zip(self.stretch_s, scaled, raw) if r)

    def scaled_latency(self) -> list[float]:
        scales = {pairs: self.scales(pairs) for pairs in self.kernel_s}
        return [self.latency[i] * scales[bool(self.pairs[i])][self.stretch[i]]
                for i in range(self.size)]


def send(workload, req, records: Records, tracer=None) -> None:
    """Time one request and store its record."""
    i = records.size
    if tracer is not None:
        tracer.request = i
        span = tracer.open("request")
    start = time.perf_counter()
    try:
        code, value = workload.run(req)
    except Exception:  # a raising request is a failed request, not a stopped run
        code, value = -1, 0
    records.latency[i] = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
    records.codes[i], records.values[i] = code, value
    records.pairs[i] = workload.pairs(req)
    records.stretch[i] = len(records.stretch_s)
    records.size = i + 1


def send_all(workload, seed: int, records: Records, seconds: float, tracer=None) -> None:
    """Send requests 0, 1, ... back to back until the arrays are full or
    `seconds` of busy time have passed and the last block of request kinds
    is complete; inputs are made between requests, outside the timed calls.

    Stopping on a block boundary gives every run the workload's exact mix:
    a run cut inside a block would hold a random share of its heaviest
    requests, and with a few dozen blocks in a run that moves throughput by
    several percent from seed to seed.
    """
    block = len(workload.block)

    def done(busy: float) -> bool:
        return records.full() or (busy >= seconds and records.size % block == 0)

    queue: list = []
    busy = 0.0
    while not done(busy):
        took = 0.0
        while took < CAL_EVERY_S and not done(busy + took):
            if not queue:
                first = records.size
                queue = [workload.make(seed, i)
                         for i in range(first, min(first + CHUNK, records.capacity))]
                queue.reverse()
            start = time.perf_counter()
            send(workload, queue.pop(), records, tracer)
            took += time.perf_counter() - start
        busy += took
        records.close_stretch(took)


def check(workload, seed: int, records: Records) -> dict:
    """Judge every record against the benchmark's own answers."""
    from workloads import ERROR, KNOWN, OK, WRONG

    verdicts = {OK: 0, WRONG: 0, ERROR: 0, KNOWN: 0}
    for i in range(records.size):
        record = (records.codes[i], records.values[i])
        verdicts[workload.check(workload.make(seed, i), record)] += 1
    return verdicts


def timing_summary(records: Records) -> dict:
    """Busy time and latency quantiles, raw and scaled to nominal speed."""
    raw_busy, busy = records.busy()
    out = {"raw_busy_s": raw_busy, "busy_s": busy}
    for tag, lat in (("raw_", list(records.latency[: records.size])), ("", records.scaled_latency())):
        deciles = statistics.quantiles(lat, n=10) if len(lat) >= 2 else lat * 9
        out[f"{tag}p50_s"] = statistics.median(lat)
        out[f"{tag}p90_s"] = deciles[8]
        out[f"{tag}above_p90"] = sum(1 for x in lat if x > deciles[8])
    return out


def outputs_digest(records: Records) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(records.codes[: records.size].tobytes())
    h.update(records.values[: records.size].tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "loop", "pass"])
    parser.add_argument("workload", nargs="?")
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("amount", nargs="?", type=float, help="seconds (loop) or requests (pass)")
    parser.add_argument("--trace-to", type=Path)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    raw_setup_s = import_sepfam()
    # the import's own time, scaled by the kernel timed right after it
    setup = {"raw_setup_s": raw_setup_s,
             "setup_s": raw_setup_s * KERNEL_NOMINAL_S / kernel_seconds()}
    if args.mode == "probe":
        return setup
    from workloads import WORKLOADS

    workload, seed = WORKLOADS[args.workload], args.seed
    if args.mode == "loop":
        records = Records(int(workload.max_rate * args.amount) + len(workload.block))
        send_all(workload, seed, records, args.amount)
        rss = peak_rss_mb()  # before the checks can add to the high-water mark
        return {**setup, "completed": records.size, "capacity_reached": records.full(),
                "peak_rss_mb": rss, **timing_summary(records),
                "verdicts": check(workload, seed, records)}

    tracer = None
    if args.trace_to is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    records = Records(int(args.amount))
    try:
        send_all(workload, seed, records, float("inf"), tracer)
    finally:
        if tracer is not None:
            uninstall()
    raw_busy, busy = records.busy()
    out = {"raw_busy_s": raw_busy, "busy_s": busy, "completed": records.size,
           "digest": outputs_digest(records)}
    if tracer is not None:
        tracer.write(args.trace_to)
        out.update(calls=dict(tracer.calls), counts=dict(tracer.counts),
                   self_s=tracer.self_seconds(), spans=len(tracer.spans))
    if args.check:
        out["verdicts"] = check(workload, seed, records)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
