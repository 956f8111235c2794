"""Arithmetic of the end-to-end benchmark: percentiles and the tail rule,
open-loop latency from due times, span self time, and error-rate counting.

Kept free of I/O so test_benchstats.py can pin every rule.
"""

import math

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile (the numpy default) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n, ladder=TAIL_LADDER):
    """Highest ladder percentile with at least MIN_BEYOND of `n` samples
    beyond it, or None when no ladder entry qualifies."""
    for p in ladder:
        # n * (100 - p) / 100 >= MIN_BEYOND, in tenths to stay exact.
        if n * round((100.0 - p) * 10) >= MIN_BEYOND * 1000:
            return p
    return None


def summarize(values):
    """Median, the tail percentile the sample supports, and the count."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": median(values) if values else None,
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def windowed_percentile(values, p, min_window):
    """Median over consecutive windows of at least `min_window` samples of
    each window's p-th percentile, so one stall of the host moves one
    window, not the result. Fewer than 2 * min_window samples form a
    single window."""
    k = max(1, len(values) // min_window)
    size = len(values) // k
    per_window = [percentile(values[i * size:(i + 1) * size if i < k - 1 else None], p)
                  for i in range(k)]
    return median(per_window)


def binned_rate(done_us, window_s, bin_s):
    """Closed-loop throughput: the median over the window's bins of each
    bin's completion rate, (completions - 1) / (last - first completion),
    so a stall in one bin does not move the result. A partial last bin is
    dropped; a bin with fewer than two completions has rate 0."""
    n_bins = int(window_s / bin_s + 1e-9)
    if n_bins < 1:
        raise ValueError("window shorter than one bin")
    bins = [[] for _ in range(n_bins)]
    for t in done_us:
        b = int(t / 1e6 / bin_s)
        if 0 <= b < n_bins:
            bins[b].append(t)
    rates = [(len(ts) - 1) / ((max(ts) - min(ts)) / 1e6)
             if len(ts) >= 2 and max(ts) > min(ts) else 0.0 for ts in bins]
    return median(rates)


def open_loop(due_us, send_us, done_us):
    """Open-loop request timing from the schedule.

    Each request is timed from its due time, not its actual send, so a
    stall that delays later sends counts against them. Returns
    (latency_ms of completed requests, lateness_ms of sent requests,
    number of requests never sent or failed); -1 marks missing offsets.
    """
    latency, late, missing = [], [], 0
    for due, send, done in zip(due_us, send_us, done_us):
        if send < 0:
            missing += 1
            continue
        late.append((send - due) / 1e3)
        if done < 0:
            missing += 1
        else:
            latency.append((done - due) / 1e3)
    return latency, late, missing


def self_times(spans):
    """Self time (us) per span id: its duration minus the part of its
    interval that its direct children cover (overlapping children count
    once; child time outside the parent is ignored)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            a, b = max(c["start_us"], start), min(c["end_us"], end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (end - start) - covered
    return out


def span_durations(spans, name):
    return [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]


def error_counts(phases):
    """Sums (attempted, failed) over phase results and returns them with
    the error rate. Output-check mismatches are already counted in each
    phase's `failed`; a phase result missing entirely counts as one failed
    operation, so a crash can never read as a clean run."""
    attempted = failed = 0
    for ph in phases:
        if ph is None:
            attempted += 1
            failed += 1
            continue
        attempted += int(ph["attempted"])
        failed += int(ph["failed"])
    attempted = max(attempted, 1)
    return attempted, failed, failed / attempted
