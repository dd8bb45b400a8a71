"""End-to-end benchmark of the featurize -> train -> infer -> verify loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload infer_fixtures --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each request is a set of
`invqsar.cli.main` calls made in-process, and the next request starts when
the previous one returns.  Set-up generates every input from --seed and
writes it as files; then rounds of requests (a fixed batch per workload)
run for about --seconds of timed work.  Every answer is checked from
the files the program wrote.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics from the traced ones
(spans recorded by wrappers installed on module attributes, see
spans.py), plus the tracing overhead.  See README.md for the metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# The default solver backend runs `python -m invqsar.milp.highs_cli` in a
# child process, which finds the package only through PYTHONPATH.
if not (SRC / "invqsar").is_dir():
    sys.exit(f"no invqsar sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from invqsar import cli  # noqa: E402

from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import STRESS_SEED, TRAIN_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# No request starts later than this after start-up, so that a run ends
# within 180 s even when requests hit the solver timeout.
DEADLINE_S = 130.0
WORK = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_scaled_s": "s",
    "latency_p50_scaled_s": "s",
    "cpu_scaled_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

# The host's CPU speed drifts by up to 1.7x, in phases of seconds to
# tens of seconds and over hours, which no run length averages away.  A
# fixed reference computation is therefore timed after start-up, after
# each set-up and around every timed request, and the times are scaled by
# REFERENCE_S over the probes around them.  A "scaled" second is a second
# on a host where the probe takes REFERENCE_S.  Raw times are printed and
# kept in the run record next to the scaled ones.
REFERENCE_S = 0.080
_REF_X = np.random.default_rng(0).random((300, 491))


def reference_work() -> None:
    """The kinds of work in the program's hot paths: an interpreter loop
    and coordinate-descent sweeps over strided numpy columns (descriptor
    counting, Lasso), and starting a Python child process (the solver
    backend).  The child's start is kernel work that in-process code does
    not see, and it tracks the host's speed for the infer requests best."""
    s = 0
    for i in range(300_000):
        s += i * i % 7
    n, k = _REF_X.shape
    w = np.zeros(k)
    r = _REF_X[:, 0] - 0.5
    for _ in range(6):
        for j in range(k):
            if w[j] != 0.0:
                r += w[j] * _REF_X[:, j]
            rho = float(_REF_X[:, j] @ r) / n
            w[j] = max(rho - 0.01, 0.0) - max(-rho - 0.01, 0.0)
            if w[j] != 0.0:
                r -= w[j] * _REF_X[:, j]
    subprocess.run([sys.executable, "-c", "pass"], check=True)


def probe() -> tuple[float, float]:
    """Wall and CPU seconds (this process and its children) of one
    reference computation."""
    w, c = time.perf_counter(), cpu_now()
    reference_work()
    return time.perf_counter() - w, cpu_now() - c


def scaled_times(times: list[float], probes: list[float]) -> list[float]:
    """Each time, scaled by the mean of the probes before and after it."""
    return [x * 2 * REFERENCE_S / (a + b) for x, a, b in zip(times, probes, probes[1:])]


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def call(argvs: list[list[str]]) -> tuple[list, list[str]]:
    """Run CLI commands in this process; exit code None means the command
    raised (the traceback goes into its captured output)."""
    codes, outs = [], []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed request
                traceback.print_exc(file=buf)
                code = None
        codes.append(code)
        outs.append(buf.getvalue())
        if code not in (0, 3):
            break
    return codes, outs


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Round:
    """One timed pass over the workload's requests, checked afterwards.
    Requests due after the run deadline are not sent and count as failed.

    With `scaled`, the reference probe runs before every request and after
    the last, outside the timed parts, and `scaled_latencies` and
    `scaled_cpus` hold each request's times scaled by the probes around
    it.  `wall` and `cpu` are sums over the requests only."""

    def __init__(self, requests, tracer: Tracer | None = None, scaled: bool = False):
        self.attempted = len(requests)
        self.latencies: list[float] = []
        self.cpus: list[float] = []
        probes = [probe()] if scaled else []
        results = []
        for req in requests:
            if time.perf_counter() - _T0 > DEADLINE_S:
                break
            if tracer is not None:
                tracer.request = req.rid
            c = cpu_now()
            t = time.perf_counter()
            results.append(call(req.argvs))
            self.latencies.append(time.perf_counter() - t)
            self.cpus.append(cpu_now() - c)
            if scaled:
                probes.append(probe())
        self.wall = sum(self.latencies)
        self.cpu = sum(self.cpus)
        self.probes = [p[0] for p in probes]
        self.scaled_latencies = scaled_times(self.latencies, self.probes)
        self.scaled_cpus = scaled_times(self.cpus, [p[1] for p in probes])
        self.problems = [f"{req.rid}: not sent before the run deadline"
                         for req in requests[len(results):]]
        self.rids = [req.rid for req in requests[:len(results)]]
        self.keys = []
        for req, (codes, outs) in zip(requests, results):
            try:
                problem = req.check(codes, outs)
                key = req.repeat_key() if problem is None else None
            except Exception as exc:  # noqa: BLE001 - a check that crashes is a failure
                problem, key = f"{type(exc).__name__}: {exc}", None
            if problem:
                self.problems.append(f"{req.rid}: {problem} | {outs[-1][-300:]!r}")
            self.keys.append(key)


def src_digest() -> str:
    """Hash of the program sources, so that counts are compared only
    between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, load_before) -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "stress_seed": STRESS_SEED,
        "train_seed": TRAIN_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_before = os.getloadavg()
    import_s = time.perf_counter() - _T0

    setup = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # The solver backend writes its LP and solution files to a temporary
    # directory; keep those inside the checkout too, for this process and
    # its solver children.
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir / "tmp")
    try:
        # An untimed pass warms the probe's code paths up.
        reference_work()
        probes = [probe()[0]]
        setup_times = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            t = time.perf_counter()
            requests, warm = setup(call, run_dir / f"setup{i}", args.seed)
            call(warm.argvs)
            setup_times.append(time.perf_counter() - t)
            probes += [probe()[0], probe()[0]]
        # One factor for the whole set-up, from the median of its probes:
        # the set-ups are few, and a single probe pair is too noisy.
        raw_setup = import_s + statistics.median(setup_times)
        setup_s = {"raw": raw_setup,
                   "scaled": raw_setup * REFERENCE_S / statistics.median(probes),
                   "import_s": import_s, "times": setup_times, "probes": probes}
        if args.trace:
            result = traced_runs(requests, args)
        else:
            result = timed_runs(requests, args, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = run_record(args, load_before)
    record.update(result)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2))

    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} rounds={result['rounds']} "
          f"requests={result['attempted']} nproc={record['nproc']} "
          f"load={record['loadavg_before'][0]:.2f}->{record['loadavg_after'][0]:.2f} "
          f"src_lines={record['src_lines']}")
    for key, m in result["metrics"].items():
        print(f"{args.workload:<15} {key:<34} {m['value']:>14.6g} {m['unit']}")
    for key, value in result.get("raw", {}).items():
        print(f"{args.workload:<15} {'raw ' + key:<34} {value:>14.6g} s")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


def _outcome(rounds: list[Round]) -> dict:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.problems) for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    first = rounds[0].keys
    for r in rounds[1:]:
        for i, (a, b) in enumerate(zip(first, r.keys)):
            if a is not None and b is not None and a != b:
                problems.append(f"request {i}: output changed between rounds")
    return {
        "rounds": len(rounds),
        "round_walls": [r.wall for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems,
    }


def _more(rounds: int, start: float, seconds: float) -> bool:
    """Start another round unless the timed phase, probes and checks
    included, already reaches the run length less half a round, so that
    it lasts `seconds` on average."""
    if not rounds:
        return True
    if time.perf_counter() - _T0 > DEADLINE_S:
        return False
    elapsed = time.perf_counter() - start
    return elapsed < seconds - elapsed / rounds / 2


def timed_runs(requests, args, setup_s: dict) -> dict:
    rounds: list[Round] = []
    start = time.perf_counter()
    while _more(len(rounds), start, args.seconds):
        rounds.append(Round(requests, scaled=True))
    out = _outcome(rounds)
    latencies = [x for r in rounds for x in r.scaled_latencies]
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": setup_s["scaled"],
        "wall_scaled_s": statistics.mean(sum(r.scaled_latencies) for r in rounds),
        "latency_p50_scaled_s": statistics.median(latencies) if latencies else 0.0,
        "cpu_scaled_s": statistics.mean(sum(r.scaled_cpus) for r in rounds),
        "peak_rss_mb": peak / 1024.0,
        "verified_frac": (out["attempted"] - out["failed"]) / out["attempted"],
    }
    out["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                      for k, v in values.items()}
    out["setup"] = setup_s
    out["raw"] = {
        "setup_s": setup_s["raw"],
        "wall_s": statistics.mean(r.wall for r in rounds),
        "latency_p50_s": statistics.median(x for r in rounds for x in r.latencies),
        "cpu_s": statistics.mean(r.cpu for r in rounds),
        "probe_s_median": statistics.median(x for r in rounds for x in r.probes),
    }
    out["probe_s"] = [x for r in rounds for x in r.probes]
    out["requests"] = [[rid, raw, x] for r in rounds for rid, raw, x
                       in zip(r.rids, r.latencies, r.scaled_latencies)]
    return out


def traced_runs(requests, args) -> dict:
    tracer = Tracer()
    tracer.install()
    plain: list[Round] = []
    traced: list[Round] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while _more(len(traced), start, args.seconds):
        plain.append(Round(requests))
        first = len(tracer.spans)
        tracer.enabled = True
        traced.append(Round(requests, tracer))
        tracer.enabled = False
        layers.append(layer_metrics(tracer.spans, first))
    out = _outcome(plain + traced)
    out["traced_walls"] = [r.wall for r in traced]
    exact = {k: layers[0][k] for k in sorted(EXACT_COUNTS)}
    for key in exact:
        seen = {lay[key] for lay in layers}
        if len(seen) > 1:
            out["problems"].append(f"{key} differs between rounds: {sorted(seen)}")
    earlier = WORK / "counts" / f"{args.workload}-seed{args.seed}-src{src_digest()}.json"
    if earlier.exists() and json.loads(earlier.read_text()) != exact:
        out["problems"].append(f"exact counts differ from an earlier run: {earlier}")
    earlier.parent.mkdir(parents=True, exist_ok=True)
    earlier.write_text(json.dumps(exact, sort_keys=True))
    out["correct"] = not out["problems"]
    values = {k: exact[k] if k in exact
              else statistics.median(lay[k] for lay in layers) for k in layers[0]}
    values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                  - statistics.median(r.wall for r in plain))
    out["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
    return out


if __name__ == "__main__":
    sys.exit(main())
