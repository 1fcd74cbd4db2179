"""One benchmark process: a single caller with no threads, closed loop.

Reads a pickled task from stdin. For each language it goes through the
public API the way a user does (language JSON -> minimal DFA -> syntactic
monoid -> stable semigroup -> classification -> language engine), then
answers the language's edit cycle: one edit is one update(pos, letter)
followed by one query(). Writes a pickled result to stdout at exit.

Task keys:
  languages  list of {spec, word, edits, expected} (see workloads.py)
  budget_s   seconds of edits per language; None for two edit cycles
  mode       "plain" (chunks timed per edit and as a whole, alternating),
             "traced" (the first TRACED_EDITS edits, each in a span) or
             "replay" (the same edits untraced, to compare with it)
Answers are checked against the expected ones chunk by chunk, outside the
timed loops.
"""

from __future__ import annotations

import pickle
import resource
import signal
import sys
import time
from array import array

import numpy as np

CHUNK = 256             # edits per chunk; a chunk is timed per edit or as a whole
LAT_CAPACITY = 1 << 20  # latency samples kept per language, a ring once full
REF_PROBE_NS = 20_000   # probe time the reported times are scaled to
TRACED_EDITS = 1 << 14  # edits per language in the traced run

_PROBE_TABLE = [[(i * j + 1) % 7 for j in range(7)] for i in range(7)]


def _probe_kernel():
    t, acc, slots = _PROBE_TABLE, 0, [0] * 64
    for i in range(400):
        acc = t[acc][i % 7]
        slots[i & 63] = acc
    return acc


def probe():
    """ns of a fixed pure-Python kernel, best of 3.

    The machine's speed drifts by up to 1.7x over seconds to minutes (other
    tenants, clock changes), for this kernel and for dynreg alike. Times
    measured next to a probe are scaled by REF_PROBE_NS / probe, so a run's
    figures do not depend on which speed the machine happened to be in.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _probe_kernel()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best


def speed_scale(before, after):
    """Factor taking times measured between two probes to REF_PROBE_NS speed."""
    return 2 * REF_PROBE_NS / (before + after)


class SpeedSampler:
    """Probes before and after a call and, when periodic, every PERIOD_S
    while it runs, from a SIGALRM handler in the main thread: a set-up can
    take seconds, longer than the machine stays at one speed."""

    PERIOD_S = 0.02

    def __init__(self, periodic):
        self.periodic = periodic
        self.samples = []
        self.spent_ns = 0     # time taken by the handler's probes

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(probe())
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self.samples.append(probe())
        if self.periodic:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())

    def scale(self):
        return REF_PROBE_NS * len(self.samples) / sum(self.samples)


class Stream:
    """An engine's edit cycle, replayed in chunks.

    Answers are checked chunk by chunk against the expected ones, outside
    the timed loops, and not kept: the worker's memory must not grow with
    the number of edits a run gets through, or rss_peak_mib would rise as
    the engine gets faster.
    """

    def __init__(self, eng, lang, capacity):
        self.upd, self.qry = eng.update, eng.query
        edits, expected = lang["edits"], lang["expected"]
        self.chunks = [(edits[k : k + CHUNK], expected[k : k + CHUNK])
                       for k in range(0, len(edits), CHUNK)]
        self.next_chunk = 0
        self.attempted = self.mismatches = self.true = 0
        self.lat = np.empty(capacity, dtype=np.int64)
        self.lat.fill(0)   # resident from the start
        self.nlat = 0

    def _chunks(self, stop):
        while not stop():
            c = self.next_chunk
            self.next_chunk = (c + 1) % len(self.chunks)
            yield self.chunks[c]

    def _check(self, got, want):
        self.attempted += len(got)
        self.true += sum(1 for g in got if g)
        self.mismatches += sum(1 for g, w in zip(got, want) if bool(g) != bool(w))

    def measure(self, stop):
        """Alternate chunks timed per edit (latency, ns) with chunks timed
        as a whole (throughput, no per-edit timer); the pattern flips every
        cycle so both see every edit. Each chunk's times are scaled by the
        probes taken before and after it. Returns (edits, scaled ns, raw ns)
        of the chunks timed as a whole."""
        upd, qry, clock = self.upd, self.qry, time.perf_counter_ns
        nchunks = len(self.chunks)
        whole_edits = whole_ns = raw_ns = 0
        before = probe()
        for k, (chunk, want) in enumerate(self._chunks(stop)):
            got = []
            timed = (k + k // nchunks) % 2 == 0
            if timed:
                lat = []
                for pos, letter in chunk:
                    t0 = clock()
                    upd(pos, letter)
                    r = qry()
                    lat.append(clock() - t0)
                    got.append(r)
            else:
                t0 = clock()
                for pos, letter in chunk:
                    upd(pos, letter)
                    got.append(qry())
                ns = clock() - t0
            after = probe()
            scale = speed_scale(before, after)
            before = after
            if timed:
                at = self.nlat % len(self.lat)
                self.lat[at : at + len(lat)] = np.array(lat[: len(self.lat) - at]) * scale
                self.nlat += len(lat)
            else:
                whole_ns += ns * scale
                raw_ns += ns
                whole_edits += len(chunk)
            self._check(got, want)
        return whole_edits, whole_ns, raw_ns

    def latencies(self):
        return self.lat[: min(self.nlat, len(self.lat))]

    def replay(self, stop):
        """Answer chunks with no timer inside: the untraced twin of traced()."""
        upd, qry = self.upd, self.qry
        for chunk, want in self._chunks(stop):
            got = []
            for pos, letter in chunk:
                upd(pos, letter)
                got.append(qry())
            self._check(got, want)

    def traced(self, eng, tracer, edit_id):
        """The first TRACED_EDITS edits of the cycle, each in a bench.edit
        span; returns their op_count deltas."""
        upd, qry = self.upd, self.qry
        ops = array("q")
        for chunk, want in self._chunks(after_chunks(self.traced_chunks())):
            got = []
            for pos, letter in chunk:
                before = eng.op_count
                i = tracer.begin(edit_id)
                upd(pos, letter)
                r = qry()
                tracer.finish(i)
                ops.append(eng.op_count - before)
                got.append(r)
            self._check(got, want)
        return ops

    def traced_chunks(self):
        return min(TRACED_EDITS // CHUNK, len(self.chunks))


def after_chunks(n):
    left = [n]

    def stop():
        left[0] -= 1
        return left[0] < 0

    return stop


def deadline(seconds):
    end = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= end


def run_language(lang, task, tracer, api):
    jsonio, syntactic, engines = api
    word = list(lang["word"])
    out = {"setup_ns": None, "error": None, "attempted": 0, "failed": 0}
    root = tracer.begin(tracer.name_id("bench.setup")) if tracer else None
    with SpeedSampler(periodic=task["mode"] == "plain") as speed:
        t0 = time.perf_counter_ns()
        try:
            dfa = jsonio.language_from_json(lang["spec"])
            m = syntactic.syntactic_monoid(dfa)
            sd = syntactic.stable_data(m)
            report = syntactic.classify_language(m, sd)
            eng = engines.make_language_engine(m, sd, report, word)
        except Exception as exc:  # a failed set-up is a failed answer, not a crash
            out.update(error=f"setup: {exc!r}", attempted=1, failed=1)
            return out
        finally:
            setup_ns = time.perf_counter_ns() - t0 - speed.spent_ns
            if tracer:
                tracer.finish(root)
    out["setup_ns"] = setup_ns * speed.scale()
    inner = getattr(eng, "inner", None)
    out.update(cls=report.cls, kind=eng.kind, inner_kind=getattr(inner, "kind", None))

    budget = task["budget_s"]
    capacity = LAT_CAPACITY if task["mode"] == "plain" and budget else len(lang["edits"])
    stream = Stream(eng, lang, capacity)
    speed_before = probe()
    t0 = time.perf_counter_ns()
    try:
        if task["mode"] == "traced":
            probes0 = tracer.veb_probes()
            out["ops"] = stream.traced(eng, tracer, tracer.name_id("bench.edit"))
            out["veb_probes"] = tracer.veb_probes() - probes0
        elif task["mode"] == "replay":
            stream.replay(after_chunks(stream.traced_chunks()))
        else:
            stop = after_chunks(2 * len(stream.chunks)) if budget is None else deadline(budget)
            out["whole"] = stream.measure(stop)
            out["lat"] = stream.latencies()
    except Exception as exc:  # counted in failed; the stream stops here
        out["error"] = f"edit {stream.attempted}: {exc!r}"
        out["failed"] += 1
        out["attempted"] += 1
    out["stream_ns"] = (time.perf_counter_ns() - t0) * speed_scale(speed_before, probe())
    out["attempted"] += stream.attempted
    out["failed"] += stream.mismatches
    out["true"] = stream.true
    return out


def main():
    task = pickle.load(sys.stdin.buffer)
    tracer = None
    if task["mode"] == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import dynreg.engines as engines
    import dynreg.jsonio as jsonio
    import dynreg.syntactic as syntactic

    results = [run_language(lang, task, tracer, (jsonio, syntactic, engines))
               for lang in task["languages"]]
    out = {
        "languages": results,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.dump() if tracer else None,
        "missing": tracer.missing if tracer else [],
    }
    pickle.dump(out, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
