"""padicloci benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; padicloci is imported from `src/`.
One client sends generated JSON documents to `padicloci.cli.main`
in-process, stdin and stdout redirected, in a closed loop: the next
document goes out only after the previous answer is back, in one
single-threaded process, one workload at a time.  All documents are
drawn from the seed (`workloads.py`) before anything is timed, and
every answer is checked after the timed region (`checks.py`).

--trace 0 measures the end-to-end metrics with tracing off.  The loop
runs for --seconds and for at least MIN_SAMPLES documents, and ends on
a whole block.  At 30 s every workload answers several hundred
documents, so the run length is set by --seconds; a short --seconds
(5 s of jumping_scan at about 19 documents per second) is stretched by
MIN_SAMPLES instead.  Runs are 30 s because the speed of a shared
2-vCPU machine wanders over seconds: longer runs average it out, and
at 20 s the ten-seed spread of every timing metric was about half of
that at 5 s.
Metrics:
  docs_per_s      documents answered per second over the whole timed loop
                  (whole blocks only, so every run answers the same mix)
  latency_p50_ms  median per-document latency
  latency_p90_ms  90th-percentile per-document latency
  setup_s         fresh interpreter to ready: import padicloci and answer
                  one document per per-process cache key the workload
                  uses; median of several probes
  peak_rss_mb     peak resident memory of the benchmark process
  error_rate      failed / attempted documents (printed; the JSON line
                  carries it as `attempted` and `failed`)

--trace 1 runs a fixed number of blocks three times: untraced, with the
outside-in wrappers of `tracing.py`, and untraced again.  It reports the
per-layer counts and self times of the traced pass, and the tracing
overhead: traced wall time minus the mean of the two untraced passes,
with the difference of those two passes as its resolution.  The exact
counters it reports repeat exactly for a given seed.  Three of them are
counted from wrapped calls and must equal what the answers state:
characters (`specialize` calls less the re-verified scan hits) against
`scanned`, grid points (`TorsionCoset.contains` calls of a grid
verification over its number of components) against `points_checked`,
and orbit points (series evaluations inside `vanish_certificate`)
against the `points_used` of each certified equation.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# enough latency samples that at least ten lie beyond the 90th percentile
MIN_SAMPLES = 110


class Client:
    """One closed-loop client of `padicloci.cli.main`."""

    def __init__(self, cli):
        self.cli = cli

    def send(self, cmd, text):
        """(exit code, stdout, seconds) for one document."""
        saved = sys.stdin, sys.stdout, sys.stderr
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main([cmd])
        except Exception as e:  # a traceback is a failed document, not a crashed benchmark
            code = "raised %s: %s" % (type(e).__name__, e)
        finally:
            elapsed = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue(), elapsed

    def answer(self, cmd, payload):
        code, text, _ = self.send(cmd, json.dumps(payload))
        return code, text


def load_program():
    if not os.path.isfile(os.path.join(SRC, "padicloci", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import padicloci
    import padicloci.cli  # noqa: F401

    return padicloci


def prepare(workload, seed, client):
    """Blocks of (command, payload, request text), all drawn before timing."""
    blocks = workload.documents(seed)

    def answer(cmd, payload):
        code, text = client.answer(cmd, payload)
        if code != 0:
            raise RuntimeError("prerequisite %s exited %s" % (cmd, code))
        return json.loads(text)

    workloads.complete_dependent_docs([d for b in blocks for d in b], answer)
    return [[(cmd, payload, json.dumps(payload)) for cmd, payload in b] for b in blocks]


def warm_up(workload, client):
    for cmd, payload in workload.warm():
        code, _ = client.answer(cmd, payload)
        if code != 0:
            raise RuntimeError("warm-up %s exited %s" % (cmd, code))


def measure_setup(workload):
    docs = json.dumps(workload.warm())
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, probe], input=docs, capture_output=True, text=True, cwd=ROOT, timeout=120
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    return statistics.median(times)


def closed_loop(client, blocks, seconds):
    """Send whole blocks in order, wrapping round, until `seconds` have
    passed and at least MIN_SAMPLES documents were answered.

    The block running at the deadline is finished, so every run's
    samples are whole copies of the block mix and its percentiles always
    fall on the same slots.  Returns the samples (flat document index,
    code, stdout, seconds) and the wall time of the loop.
    """
    samples = []
    start = time.perf_counter()
    while True:
        base = 0
        for block in blocks:
            for k, (cmd, _, text) in enumerate(block):
                code, out, lat = client.send(cmd, text)
                samples.append((base + k, code, out, lat))
            base += len(block)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(samples) >= MIN_SAMPLES:
                return samples, elapsed


def failed_indices(flat, samples, client, digests):
    """Flat indices whose answers fail a check; each index is checked once."""
    first = {}
    bad = {}
    for idx, code, out, _ in samples:
        if idx not in first:
            first[idx] = (code, out)
        elif first[idx] != (code, out):
            bad[idx] = "answer changed on repeat"
    for idx, (code, out) in sorted(first.items()):
        if idx in bad:
            continue
        cmd, payload, _ = flat[idx]
        if digests is not None and (
            not isinstance(code, int) or checks.digest(code, out) != digests[idx]
        ):
            bad[idx] = "digest differs from the captured answer"
            continue
        try:
            reason = checks.check_document(cmd, payload, code, out, client.answer)
        except (KeyError, TypeError, ValueError, ArithmeticError) as e:  # malformed answer
            reason = "check raised %s: %s" % (type(e).__name__, e)
        if reason is not None:
            bad[idx] = reason
    return bad


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def report(rows):
    for name, value, unit, n in rows:
        print("  %-40s %14.6g %-6s (n=%s)" % (name, value, unit, n))


def run_untraced(workload, args, client, digests):
    setup_s = measure_setup(workload)
    blocks = prepare(workload, args.seed, client)
    warm_up(workload, client)
    samples, elapsed = closed_loop(client, blocks, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    flat = [d for b in blocks for d in b]
    bad = failed_indices(flat, samples, client, digests)
    for idx, reason in sorted(bad.items()):
        print("FAILED document %d (%s): %s" % (idx, flat[idx][0], reason))
    lat_ms = [s[3] * 1e3 for s in samples]
    failed = sum(1 for s in samples if s[0] in bad)
    p90 = quantile(lat_ms, 0.9)
    rows = [
        ("docs_per_s", len(samples) / elapsed, "1/s", "%d docs in %.1f s" % (len(samples), elapsed)),
        ("latency_p50_ms", statistics.median(lat_ms), "ms", len(lat_ms)),
        ("latency_p90_ms", p90, "ms", "%d, %d beyond" % (len(lat_ms), sum(x > p90 for x in lat_ms))),
        ("error_rate", failed / len(samples), "ratio", len(samples)),
        ("setup_s", setup_s, "s", SETUP_PROBES),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
    print("%s seed=%d: end-to-end, tracing off; one closed-loop client" % (workload.name, args.seed))
    print("  mix: %s" % workload.mix)
    report(rows)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name != "error_rate"}
    return not bad, len(samples), failed, metrics


# -- traced run ----------------------------------------------------------------


def _hooks(tracer):
    """Work counters taken from the calls the wrappers see."""

    def specialize(t, caller, args, result):
        t.count("complexes.characters")

    def scan(t, caller, args, result):
        # a scan specializes every character once and every hit once more
        t.count("complexes.characters", -len(result.hits))

    def teichmuller(t, caller, args, result):
        t.count("padic.teichmuller.digits", args[0].f * args[1])

    def solve(t, caller, args, result):
        t.count("cosets.components", len(result))

    def evaluate(t, caller, args, result):
        if caller == "series.vanish_certificate":  # one orbit point of one equation
            t.count("conic.orbit_points")

    tracer.on("complexes.specialize", specialize)
    tracer.on("complexes.scan_torsion", scan)
    tracer.on("padic.teichmuller", teichmuller)
    tracer.on("cosets.solve_binomial", solve)
    tracer.on("series.AnalyticSeries.evaluate", evaluate)
    return tracer


ARITH = {
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "inverse",
    "divexact_rational",
}


def _per_call_us(tracer, keys):
    calls = tracer.sum_calls(keys)
    return sum(tracer.inclusive_s(k) for k in keys) / calls * 1e6 if calls else 0.0


def layer_metrics(t, traced_s, untraced, setup_times, answers):
    """Per-layer metrics of one traced pass; untraced holds the wall times
    of the untraced passes before and after it, answers are (cmd,
    payload, code, text)."""
    untraced_s = sum(untraced) / 2
    scalar_keys = t.select("padic.PadicScalar", ARITH) + t.select("padic.UnramifiedScalar", ARITH)
    scalar_init = t.select("padic.PadicScalar", {"__init__"}) + t.select("padic.UnramifiedScalar", {"__init__"})
    cyc_ops = t.select("cyclotomic.CycNumber", ARITH)
    characters = t.counters.get("complexes.characters", 0)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("cli.self_s", t.self_s("cli.main"), "s")
    put("cli.bytes_out", sum(len(text.encode("utf-8")) for _, _, _, text in answers), "bytes")
    put("cli.refusals", sum(1 for _, _, code, _ in answers if code != 0), "count")
    put("complexes.characters", characters, "count")
    put("complexes.specialize.calls", t.calls("complexes.specialize"), "count")
    put(
        "complexes.specialize_per_character",
        t.calls("complexes.specialize") / characters if characters else 0.0,
        "ratio",
    )
    put("complexes.self_s", t.sum_self(t.select("complexes")), "s")
    put("linalg.rank_division_free.calls", t.calls("linalg.rank_division_free"), "count")
    put("linalg.rank_division_free.self_s", t.self_s("linalg.rank_division_free"), "s")
    put("laurent.evaluate.calls", t.calls("laurent.LaurentPoly.evaluate"), "count")
    put("laurent.evaluate.self_s", t.self_s("laurent.LaurentPoly.evaluate"), "s")
    put("laurent.laurent_det.calls", t.calls("laurent.laurent_det"), "count")
    put("cyclotomic.ops", t.sum_calls(cyc_ops), "count")
    put("cyclotomic.lift.calls", t.calls("cyclotomic.CycNumber.lift"), "count")
    put("cyclotomic.self_s", t.sum_self(t.select("cyclotomic")), "s")
    put("cyclotomic.share", t.sum_self(t.select("cyclotomic")) / traced_s, "ratio")
    put("padic.teichmuller.calls", t.calls("padic.teichmuller"), "count")
    put("padic.teichmuller.digits", t.counters.get("padic.teichmuller.digits", 0), "count")
    put("padic.teichmuller.self_s", t.self_s("padic.teichmuller"), "s")
    put("padic.exp.self_s", t.self_s("padic.padic_exp"), "s")
    put("padic.log.self_s", t.self_s("padic.padic_log"), "s")
    put("padic.scalar_ops", t.sum_calls(scalar_keys), "count")
    put("padic.scalar.self_s", t.sum_self(scalar_keys + scalar_init), "s")
    put("padic.modulus_poly.s", setup_times["padic.modulus_poly"], "s")
    put("padic.multiplicative_generator.s", setup_times["padic.multiplicative_generator"], "s")
    put("intlinalg.smith_normal_form.calls", t.calls("intlinalg.smith_normal_form"), "count")
    put("intlinalg.hermite_normal_form.calls", t.calls("intlinalg.hermite_normal_form"), "count")
    put("intlinalg.self_s", t.sum_self(t.select("intlinalg")), "s")
    put("cosets.components", t.counters.get("cosets.components", 0), "count")
    put("cosets.contains.calls", t.calls("cosets.TorsionCoset.contains"), "count")
    put("cosets.contains.self_s", t.self_s("cosets.TorsionCoset.contains"), "s")
    put("cosets.grid_points", t.counters.get("cosets.grid_points", 0), "count")
    put("cosets.self_s", t.sum_self(t.select("cosets")), "s")
    put("groups.embed_torsion.self_s", t.self_s("groups.embed_torsion"), "s")
    put("groups.char_exp.self_s", t.self_s("groups.char_exp"), "s")
    put("groups.char_pow.calls", t.calls("groups.char_pow"), "count")
    put("conic.conic_certificate.calls", t.calls("conic.conic_certificate"), "count")
    put("conic.orbit_points", t.counters.get("conic.orbit_points", 0), "count")
    put("conic.self_s", t.sum_self(t.select("conic")), "s")
    put("series.evaluate.calls", t.calls("series.AnalyticSeries.evaluate"), "count")
    put("series.self_s", t.sum_self(t.select("series")), "s")
    # the roadmap's per-layer microbenches, read out of the traced pass:
    # inclusive time per call, tracing cost of nested wrapped calls included
    put("micro.cyc_mul_us", _per_call_us(t, t.select("cyclotomic.CycNumber", {"__mul__", "__rmul__"})), "us")
    put("micro.rank_division_free_us", _per_call_us(t, ["linalg.rank_division_free"]), "us")
    put("micro.smith_normal_form_us", _per_call_us(t, ["intlinalg.smith_normal_form"]), "us")
    put("micro.coset_contains_us", _per_call_us(t, ["cosets.TorsionCoset.contains"]), "us")
    scalar = ("padic.PadicScalar", "padic.UnramifiedScalar")
    put("micro.scalar_add_us", _per_call_us(t, [k for c in scalar for k in t.select(c, {"__add__", "__radd__"})]), "us")
    put("micro.scalar_mul_us", _per_call_us(t, [k for c in scalar for k in t.select(c, {"__mul__", "__rmul__"})]), "us")
    put("trace.untraced_s", untraced_s, "s")
    put("trace.traced_s", traced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    # drift between the two untraced passes; an overhead smaller than
    # this is not resolved by the run
    put("trace.untraced_spread_s", abs(untraced[0] - untraced[1]), "s")
    return m


def counters_from_answers(answers):
    """The work counters as the answers themselves state them."""
    scanned = grid = used = 0
    for cmd, payload, code, text in answers:
        if code != 0:
            continue
        out = json.loads(text)
        if cmd == "jumping-scan":
            scanned += out["scanned"]
        elif cmd == "shape-check" and "scan" in out:
            scanned += out["scan"]["scanned"]
        elif cmd == "cohomology":
            scanned += 1
        elif cmd == "verify" and payload["kind"] == "solve":
            grid += out["points_checked"]
        elif cmd == "conic-check":
            used += sum(eq["points_used"] for eq in out["equations"])
        elif cmd == "find-torsion":
            used += sum(eq["points_used"] for c in out["certificates"] for eq in c["conic"]["equations"])
    return {"complexes.characters": scanned, "cosets.grid_points": grid, "conic.orbit_points": used}


def run_traced(workload, args, package, client, digests):
    # warm-up under the wrappers, before anything else fills the caches,
    # times the cache-filling calls from cold
    tracer = _hooks(tracing.Tracer())
    tracer.install(package)
    try:
        warm_up(workload, client)
    finally:
        tracer.uninstall()
    setup_times = {k: tracer.inclusive_s(k) for k in ("padic.modulus_poly", "padic.multiplicative_generator")}
    blocks = prepare(workload, args.seed, client)

    flat = [d for b in blocks[: workload.traced_blocks] for d in b]

    def untraced_pass():
        start = time.perf_counter()
        answers = [client.send(cmd, text) for cmd, _, text in flat]
        return answers, time.perf_counter() - start

    # untraced passes on both sides of the traced one, so that drift in
    # the machine's speed cancels out of the overhead
    plain, before_s = untraced_pass()

    tracer = _hooks(tracing.Tracer())
    tracer.install(package)
    traced = []
    start = time.perf_counter()
    try:
        for idx, (cmd, payload, text) in enumerate(flat):
            tracer.begin_document(idx, cmd)
            code, out, _ = client.send(cmd, text)
            tracer.end_document(code)
            traced.append((code, out))
            if cmd == "verify" and payload["kind"] == "solve":
                # the CLI tests each grid point against every component
                tested = tracer.spans[-1]["children"].get("cosets.TorsionCoset.contains", (0,))[0]
                tracer.count("cosets.grid_points", tested // len(payload["components"]))
    finally:
        traced_s = time.perf_counter() - start
        tracer.uninstall()
    plain_after, after_s = untraced_pass()

    samples = [(idx, code, out, lat) for idx, (code, out, lat) in enumerate(plain)]
    bad = failed_indices(flat, samples, client, digests)
    for idx, (code, out) in enumerate(traced):
        if (code, out) != plain[idx][:2] or plain_after[idx][:2] != plain[idx][:2]:
            bad.setdefault(idx, "tracing changed the answer, or a repeat did")
    for idx, reason in sorted(bad.items()):
        print("FAILED document %d (%s): %s" % (idx, flat[idx][0], reason))

    answers = [(cmd, payload, code, out) for (cmd, payload, _), (code, out) in zip(flat, traced)]
    metrics = layer_metrics(tracer, traced_s, (before_s, after_s), setup_times, answers)
    mismatched = []
    for name, stated in counters_from_answers(answers).items():
        if stated != metrics[name]["value"]:
            mismatched.append(name)
            print("COUNTER MISMATCH %s: wrappers %s, answers %s" % (name, metrics[name]["value"], stated))

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload.name, args.seed))
    with open(span_file, "w", encoding="utf-8") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    print("%s seed=%d: per-layer, traced pass over %d documents (%d blocks)" % (
        workload.name, args.seed, len(flat), workload.traced_blocks))
    print("  shares are over the traced wall time, %.6g s; no layer waits (single thread, no queues or locks)" % traced_s)
    report((name, v["value"], v["unit"], len(flat)) for name, v in metrics.items())
    if abs(metrics["trace.overhead_s"]["value"]) < metrics["trace.untraced_spread_s"]["value"]:
        print("  trace.overhead_s is unresolved: smaller than the drift between the untraced passes")
    print("  spans: %s" % os.path.relpath(span_file, ROOT))
    failed = len(bad)
    return not bad and not mismatched, len(flat), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_program()
    if package is None:
        print("perfbench: no padicloci sources under %s" % SRC, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    client = Client(package.cli)
    digests = None
    if args.seed == checks.DEFAULT_SEED:
        digests = checks.load_digests(workload.name)
    if args.trace:
        correct, attempted, failed, metrics = run_traced(workload, args, package, client, digests)
    else:
        correct, attempted, failed, metrics = run_untraced(workload, args, client, digests)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
