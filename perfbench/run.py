"""edlkit benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's round of cases over and over, one case
at a time, for ``--seconds`` seconds (at least one full round), and
reports the end-to-end metrics.  Their timings are scaled to a fixed
reference speed of the machine, measured by a calibration kernel that runs
between cases (see ``Calibrator``); the unscaled values are printed
alongside.  ``--trace 1`` runs a fixed number of rounds twice, untraced and
then with span wrappers installed, and reports the per-layer metrics; the
counts it reports repeat exactly for a given seed.  ``--smoke`` runs one
round of one case per kind.

Every output is checked after the timed region.  The last line of stdout
is one JSON object ``{correct, attempted, failed, metrics}``; the line
before it carries the provenance (python, numpy, BLAS, CPU, nproc), the
tail percentile with its sample count, the unscaled timings and the
calibration samples.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# One BLAS thread: two threads measured slower and noisier here, with
# bit-identical results.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
# Percentile reported as case_tail_ms: the highest one that leaves at least
# ten cases beyond it at the configured run length.
TAIL_PCT = {"exact": 95, "witness": 85, "determination": 70, "graph-orbit": 95}
# Rounds per pass of the traced run (fixed, so its counts repeat exactly).
TRACE_ROUNDS = {"exact": 4, "witness": 1, "determination": 1, "graph-orbit": 2}
# The warm-up case: first generated case whose kind starts with this.
WARMUP_KIND = {"exact": "cli.", "witness": "fdw.w.chain", "determination": "sdl_pure.ghz.n3",
               "graph-orbit": "graph_bounds.n7"}

# Machine-speed normalisation of the end-to-end timings.  On a shared host
# (measured on a 2-vCPU Xeon VM) the speed of the cores drifts by 40-75%
# over seconds to minutes, and all work slows down together: over 3-s blocks
# a batched eigh and witness solves at n = 3 and 4 correlate at 0.95-0.98.
# So a short fixed kernel, independent of edlkit, runs between cases at
# least every CAL_INTERVAL_S, and every end-to-end timing is scaled by
# CAL_REF_S over the median kernel time within CAL_WINDOW_S of it: timings
# are reported at the speed at which the kernel takes CAL_REF_S (about its
# time on that VM when the host is quiet).  A change to edlkit moves them in
# full; a change in machine speed mostly does not.  The kernel is small
# eigh calls plus Fraction sums stored in a dict, like the work of the
# workloads; a tight integer loop slowed less than the exact workload's
# cases when the host got busy, and tracked its speed about half as well.
CAL_INTERVAL_S = 0.1
CAL_WINDOW_S = 1.0
CAL_REF_S = 0.002
CAL_EIGH_N = 4
CAL_FRACTION_N = 400


def _die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "edlkit", "__init__.py")):
        _die("no edlkit sources under %s; run from a checkout of the repository" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (timed as part of the import)
    import cases
    import tracing
    return cases, tracing


def _provenance():
    import numpy as np
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    except (TypeError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": 1, "cpu": cpu, "nproc": os.cpu_count()}


class Calibrator:
    """The calibration kernel, its samples and the speed factor they give."""

    def __init__(self):
        import numpy as np
        self._eigh = np.linalg.eigh
        mat = np.random.default_rng(0).normal(size=(32, 8, 8))
        self._mat = mat + mat.transpose(0, 2, 1)
        self._mids = []
        self._durs = []
        self._last = float("-inf")

    def measure(self):
        t0 = time.perf_counter()
        for _ in range(CAL_EIGH_N):
            self._eigh(self._mat)
        acc = Fraction(0)
        table = {}
        for i in range(1, CAL_FRACTION_N + 1):
            acc += Fraction(1, i % 17 + 1)
            table[i] = (acc, i)
        t1 = time.perf_counter()
        self._mids.append(0.5 * (t0 + t1))
        self._durs.append(t1 - t0)
        self._last = t1

    def maybe_measure(self):
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.measure()

    def factor(self, t0, t1):
        """CAL_REF_S over the median kernel time within CAL_WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self._mids, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self._mids, t1 + CAL_WINDOW_S)
        if lo >= hi:  # no sample that close: take the nearest one on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._mids))
        return CAL_REF_S / statistics.median(self._durs[lo:hi])

    def median_s(self):
        return statistics.median(self._durs)

    def samples(self):
        return len(self._durs)


_IMPORT_CODE = """
import os, sys, time
t0 = time.perf_counter()
sys.path[:0] = [os.path.join(sys.argv[1], "src"), sys.argv[2]]
import numpy, cases, tracing
print(time.perf_counter() - t0)
"""


def _child_import_s():
    """Time a fresh interpreter takes to import numpy, edlkit and the benchmark."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, ROOT, HERE],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _setup(cases_mod, workload, seed, workdir, smoke):
    """Build the round, write its state files and run the warm-up case."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    generated, rnd = cases_mod.build_round(workload, seed, workdir)
    if smoke:
        seen = set()
        rnd = [c for c in rnd if not (c.kind in seen or seen.add(c.kind))]
    warm = next(c for c in generated if c.kind.startswith(WARMUP_KIND[workload]))
    warm.run()
    return rnd


def _run_cases(rnd, order_rng, rounds, seconds, tracer=None, cal=None):
    """Closed loop over the round.

    Each round runs the cases in a fresh order drawn from ``order_rng``, so
    that no case always follows the same case (whose cache and
    garbage-collector state it would inherit in every round) and a run that
    ends within a round favours no case.  With ``seconds`` set, cases run
    until that much time has passed, the first round in full; otherwise
    exactly ``rounds`` rounds run.  With ``cal`` set, the calibration kernel
    runs between cases.  Returns the outputs, the (start, end) time of every
    case, the number of rounds begun, the wall time and the peak resident
    memory in MB at the end of the first round (later rounds only add the
    outputs kept for checking, so a run that gets through more of them
    would otherwise report more memory).
    """
    outputs = []
    spans = []
    if cal is not None:
        cal.measure()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def more():
        if deadline is None:
            return done < rounds
        return done == 0 or time.perf_counter() < deadline

    done = 0
    order = list(range(len(rnd)))
    while more():
        order_rng.shuffle(order)
        for idx in order:
            if done and not more():
                break
            case = rnd[idx]
            if tracer is not None:
                tracer.case = idx
            if cal is not None:
                cal.maybe_measure()
            t0 = time.perf_counter()
            try:
                out = (True, case.run())
            except Exception as exc:  # a raising case is a failed case, not a crash
                out = (False, repr(exc))
            spans.append((t0, time.perf_counter()))
            outputs.append((idx, out))
        done += 1
        if done == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = time.perf_counter() - start
    if cal is not None:
        cal.measure()
    return outputs, spans, done, wall, rss_mb


def _count_failures(rnd, outputs):
    failed = 0
    kinds = {}
    for idx, (ok, out) in outputs:
        good = False
        if ok:
            try:
                good = bool(rnd[idx].check(out))
            except Exception:  # a check that cannot read the output fails the case
                good = False
        if not good:
            failed += 1
            kinds[rnd[idx].kind] = kinds.get(rnd[idx].kind, 0) + 1
    return failed, kinds


def _probe(cases_mod, witness_mod, EdlkitError):
    """Fixed-cap witness probe: set-up and per-iteration cost at n = 3, 4."""
    out = {}
    for label, rho, coll, cap in cases_mod.probe_inputs():
        samples = []
        for _ in range(3):
            times = []
            for max_iter in (1, cap):
                t0 = time.perf_counter()
                try:
                    witness_mod.fully_decomposable_alpha(rho, coll, max_iter=max_iter)
                except EdlkitError as exc:
                    if exc.code != "MAX_ITER":
                        raise
                else:
                    raise RuntimeError("probe %s converged within %d iterations" % (label, max_iter))
                times.append(time.perf_counter() - t0)
            iter_s = (times[1] - times[0]) / (cap - 1)
            samples.append((times[0] - iter_s, iter_s))
        out["witness.fdw_probe.setup_ms." + label] = 1e3 * statistics.median(s[0] for s in samples)
        out["witness.fdw_probe.iter_ms." + label] = 1e3 * statistics.median(s[1] for s in samples)
    return out


def _layer_metrics(tracer, summary):
    def busy(label):
        return summary.get(label, {}).get("busy_s", 0.0)

    def calls(label):
        return summary.get(label, {}).get("calls", 0)

    m = {}
    for label in ("witness.fully_decomposable_alpha", "witness.solve_sdp", "qcore.partial_trace",
                  "qcore.partial_transpose", "qcore.pauli_string", "symmetric.is_ppt_diagonal",
                  "simplex.simplex_max", "cli.main"):
        m[label + ".calls"] = (calls(label), "count")
    for label in ("witness.fully_decomposable_alpha", "witness.verify_witness", "witness.solve_sdp",
                  "witness.pure_determination_alpha", "witness.refit_certificates",
                  "witness.symmetric_sdl_probe", "qcore.partial_trace", "qcore.partial_transpose",
                  "qcore.pauli_string", "symmetric.edl_diagonal", "symmetric.edl_symmetric",
                  "symmetric.sdl_diagonal", "symmetric.is_ppt_diagonal", "simplex.simplex_max",
                  "hypergraph.min_marginal_count", "hypergraph.all_k_subsets",
                  "graphstate.lc_orbit_min_max_degree", "graphstate.uniformity_level",
                  "cli.main"):
        m[label + ".busy_s"] = (busy(label), "s")
    for label in ("witness.svec", "witness.smat", "graphstate.local_complement"):
        m[label + ".calls"] = (tracer.counts.get(label, 0), "count")

    sdp_iters = not_optimal = det_iters = visited = sdl_calls = lp_calls = 0
    for label, out in tracer.results:
        if label == "witness.solve_sdp":
            sdp_iters += out.iterations
            not_optimal += out.status != "OPTIMAL"
        elif label == "witness.pure_determination_alpha":
            det_iters += out.iterations
        elif label == "graphstate.lc_orbit_min_max_degree":
            visited += out.visited
        elif label == "symmetric.sdl_diagonal":
            sdl_calls += 1
            lp_calls += out.certificate.get("route") == "lp_bracket"
    m["witness.solve_sdp.iterations"] = (sdp_iters, "count")
    m["witness.solve_sdp.not_optimal"] = (not_optimal, "count")
    m["witness.pure_determination_alpha.iterations"] = (det_iters, "count")
    m["symmetric.sdl_diagonal.lp_share"] = (lp_calls / sdl_calls if sdl_calls else 0.0, "ratio")
    m["graphstate.orbit.visited"] = (visited, "count")
    orbit_s = summary.get("graphstate.lc_orbit_min_max_degree", {}).get("total_s", 0.0)
    m["graphstate.orbit.visited_per_s"] = (visited / orbit_s if orbit_s else 0.0, "1/s")
    cli_self = summary.get("cli.main", {}).get("self", [])
    m["cli.overhead_ms"] = (1e3 * statistics.median(cli_self) if cli_self else 0.0, "ms")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one case of each kind, one round, one set-up")
    args = parser.parse_args(argv)

    cases_mod, tracing = _import_package()
    if args.workload not in cases_mod.WORKLOADS:
        _die("unknown workload %r (choose from %s)" % (args.workload, ", ".join(cases_mod.WORKLOADS)))
    import_s = time.perf_counter() - _T_START
    from edlkit import witness as witness_mod
    from edlkit.errors import EdlkitError

    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    outdir = os.path.join(ROOT, ".perfbench_out")
    try:
        cal = Calibrator()
        for _ in range(3):
            cal.measure()
        # One set-up: the imports, timed in a fresh interpreter, then the
        # round, its state files and the warm-up case.  Each is scaled like
        # the cases, by the kernel samples around it.
        setup_times = []
        setup_ref = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            cal.measure()
            t0 = time.perf_counter()
            child_import_s = _child_import_s()
            t1 = time.perf_counter()
            rnd = _setup(cases_mod, args.workload, args.seed, workdir, args.smoke)
            t2 = time.perf_counter()
            cal.measure()
            setup_times.append(child_import_s + t2 - t1)
            setup_ref.append(setup_times[-1] * cal.factor(t0, t2))
        setup_s = statistics.median(setup_ref)

        order_rng = random.Random(args.seed)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "round_cases": len(rnd), "provenance": _provenance()}
        if args.trace == 0:
            seconds = None if args.smoke else args.seconds
            outputs, spans, done, wall, rss_mb = _run_cases(rnd, order_rng, 1, seconds, cal=cal)
            t_check = time.perf_counter()
            failed, fail_kinds = _count_failures(rnd, outputs)
            check_s = time.perf_counter() - t_check
            # Each case's latency is the median of its repetitions, one per
            # round, each scaled to the reference speed.
            per_case = [[] for _ in rnd]
            raw_case = [[] for _ in rnd]
            for (idx, _out), (t0, t1) in zip(outputs, spans):
                per_case[idx].append((t1 - t0) * cal.factor(t0, t1))
                raw_case[idx].append(t1 - t0)
            typical = sorted(statistics.median(ts) for ts in per_case)
            raw = sorted(statistics.median(ts) for ts in raw_case)
            pct = TAIL_PCT[args.workload]

            def summary(values):
                tail = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
                return len(values) / sum(values), statistics.median(values), tail

            per_s, p50, tail = summary(typical)
            metrics = {
                "setup_s": (setup_s, "s"),
                "cases_per_s": (per_s, "1/s"),
                "case_p50_ms": (1e3 * p50, "ms"),
                "case_tail_ms": (1e3 * tail, "ms"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            beyond = sum(len(ts) for ts in per_case if statistics.median(ts) > tail)
            raw_per_s, raw_p50, raw_tail = summary(raw)
            info.update({"cases": len(spans), "rounds": done, "wall_s": wall, "check_s": check_s,
                         "tail_percentile": pct, "cases_beyond_tail": beyond,
                         "unscaled": {"cases_per_s": raw_per_s, "case_p50_ms": 1e3 * raw_p50,
                                      "case_tail_ms": 1e3 * raw_tail,
                                      "setup_s": statistics.median(setup_times)},
                         "calibration": {"ref_s": CAL_REF_S, "median_s": cal.median_s(),
                                         "samples": cal.samples()}})
        else:
            # Untraced and traced rounds alternate, so that drift in machine
            # speed falls on both sides of the overhead estimate.
            tracer = tracing.Tracer(cases_mod.MODULES)
            outputs, spans = [], []
            plain_wall = traced_wall = 0.0
            for _ in range(1 if args.smoke else TRACE_ROUNDS[args.workload]):
                out, ts, _done, wall, _rss = _run_cases(rnd, order_rng, 1, None)
                outputs += out
                spans += ts
                plain_wall += wall
                tracer.install()
                try:
                    out, ts, _done, wall, _rss = _run_cases(rnd, order_rng, 1, None, tracer)
                finally:
                    tracer.uninstall()
                outputs += out
                spans += ts
                traced_wall += wall
            failed, fail_kinds = _count_failures(rnd, outputs)
            metrics = _layer_metrics(tracer, tracer.summary())
            metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
            if args.workload == "witness":
                probe = _probe(cases_mod, witness_mod, EdlkitError)
            else:
                probe = {k: 0.0 for k in ("witness.fdw_probe.setup_ms.n3",
                                          "witness.fdw_probe.setup_ms.n4",
                                          "witness.fdw_probe.iter_ms.n3",
                                          "witness.fdw_probe.iter_ms.n4")}
            for key, value in probe.items():
                metrics[key] = (value, "ms")
            os.makedirs(outdir, exist_ok=True)
            trace_path = os.path.join(outdir, "trace-%s-%d.json" % (args.workload, args.seed))
            tracer.write(trace_path)
            info.update({"cases": len(spans), "untraced_wall_s": plain_wall,
                         "traced_wall_s": traced_wall, "spans": len(tracer.spans),
                         "trace_file": os.path.relpath(trace_path, ROOT)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    info.update({"failed": failed, "fail_ratio": failed / len(outputs), "failed_kinds": fail_kinds,
                 "setup_samples_s": setup_times, "import_s": import_s})
    print(json.dumps(info, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(outputs), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
