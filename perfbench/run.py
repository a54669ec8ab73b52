"""Verdict benchmark for gparith.

    python3 perfbench/run.py --workload exact-verdicts --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of real `gparith` invocations, issued one at a
time through `gparith.cli.main(argv)` in this one process (a closed loop
with one client).  Every call reloads the config and builds fresh contexts,
so memo state is cold per request, as for a shell call.  The seed is passed
to every request as the global `--seed`.  The list is repeated until
`--seconds` have passed (at least once); a request's time is its median over
passes, corrected for machine speed by a reference timed in a separate
interpreter on the same CPU (speed.py).

A request fails when it raises, exits non-zero, fails its output check, or
its report digest differs from the first pass.  Reports and the quadruple
CSV go to a scratch directory inside this benchmark's folder, removed at
exit.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs untraced
passes, then installs the layer tracer (tracer.py) and runs traced passes;
it prints the per-layer metrics, including the tracing overhead.  The last
stdout line is the JSON result; the line before it records machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

from speed import Reference, corrected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    # "out": verify/eval/formula honour the global --out; "stdout": the
    # quadruples subcommands ignore --out and print their JSON.
    report: str
    check: str = "ok"


PSI_FORMULA = ("forall n in [1, 30]: exists n2 in [2*m, 10000]: "
               "g(n+m+n2) - g(n+n2) - g(m+n2) + g(n2) - g(n+m) + g(n) + g(m) - g(0) = 0")
Q_FORMULA = ("forall k in [1,150]: forall l in [1,150]: k*l > 149 or "
             "(Q(23, 23*k, 23*l, 23*k*l) and Q(23, 23*l, 23*k, 23*k*l)) "
             "or not Q(23, 23*l, 23*k, 23*k*l)")

WORKLOADS: dict[str, tuple[Request, ...]] = {
    # exact core (Fraction arithmetic + exactnum); memo-heavy (3.5/3.6),
    # memo-light (3.1 triples) and memo-free (eval) sequence use
    "exact-verdicts": (
        Request("verify-core", ("verify", "core", "--samples", "200"), "out"),
        Request("verify-3.1", ("verify", "3.1", "--samples", "400"), "out"),
        Request("verify-3.5-3.6", ("verify", "3.5/3.6", "--n-max", "4",
                                   "--nprime-max", "100", "--pairs", "60"), "out"),
        Request("formula-psi", ("formula", PSI_FORMULA, "--bind", "m=5"), "out",
                check="psi"),
        Request("eval-g", ("eval", "nint(beta*n*nint(alpha*n))", "--n", "0..1000"),
                "out", check="eval"),
    ),
    # numpy lanes, harness loops (mu_found) and bohr tables
    "lane-scans": (
        Request("verify-3.2", ("verify", "3.2", "--pairs", "25"), "out"),
        Request("verify-3.3", ("verify", "3.3", "--m-max", "500"), "out"),
        Request("verify-3.4", ("verify", "3.4", "--orbit", "500000",
                               "--samples", "1000000"), "out"),
        Request("verify-3.7", ("verify", "3.7"), "out"),
        Request("verify-3.8", ("verify", "3.8"), "out"),
        Request("verify-4.1", ("verify", "4.1", "--m-max", "20000"), "out"),
        Request("verify-4.2", ("verify", "4.2", "--m-max", "1000"), "out"),
        Request("verify-4.3", ("verify", "4.3"), "out"),
        Request("verify-4.4", ("verify", "4.4"), "out"),
    ),
    # writes the Q store (build + CSV export) and reads it back (import,
    # structural check, ~22k formula steps of Q.contains)
    "quadruples": (
        Request("quadruples-build", ("quadruples", "build", "--m-max", "1500",
                                     "--h-factor", "1000", "--csv", "{tmp}/q.csv"),
                "stdout", check="build"),
        Request("verify-Q1-csv", ("verify", "Q1", "--from", "{tmp}/q.csv"), "out",
                check="import"),
        Request("verify-Q1", ("verify", "Q1", "--m-max", "1500"), "out"),
        Request("formula-Q", ("formula", Q_FORMULA, "--q-csv", "{tmp}/q.csv"),
                "out", check="true"),
    ),
}


def request_names() -> list[str]:
    return [r.name for reqs in WORKLOADS.values() for r in reqs]


# ---------------------------------------------------------------------------
# Output checks (untimed).  They use no gparith code except `psi`, which
# compares the bounded formula with the exact window of Lemma 3.3.
# ---------------------------------------------------------------------------


def _nint_cbrt2_times(n: int) -> int:
    """nint(2^(1/3) * n) in integers: the q with (2q-1)^3 <= 16 n^3 < (2q+1)^3."""
    target = 16 * n ** 3
    q = round(1.2599210498948732 * n)
    while (2 * q - 1) ** 3 > target:
        q -= 1
    while (2 * q + 1) ** 3 <= target:
        q += 1
    return q


class Checker:
    def __init__(self) -> None:
        self.quadruples: int | None = None
        self._psi: bool | None = None

    def psi_expected(self) -> bool:
        if self._psi is None:
            from gparith.config import load_config
            from gparith.focheck import AlphaContext
            alpha = load_config(None).constant("alpha")
            self._psi = AlphaContext(alpha, 1).in_window(5, 30)
        return self._psi

    def problem(self, req: Request, report: str) -> str | None:
        """None when the report passes the request's check, else why not."""
        lines = report.splitlines()
        if not lines:
            return "empty report"
        if req.check == "eval":
            for line in lines:
                n, v = (int(x) for x in line.split("\t"))
                if v != n * _nint_cbrt2_times(n):
                    return f"g({n}) = {v} is wrong"
            return None if len(lines) == 1001 else f"{len(lines)} values"
        last = json.loads(lines[-1])
        if req.check == "build":
            self.quadruples = last["quadruples"]
            return None if self.quadruples > 0 else "empty Q"
        if req.check == "import":
            got = last["summary"]["quadruples"]
            return None if got == self.quadruples else (
                f"imported {got} of {self.quadruples} quadruples")
        if req.check == "true":
            return None if last["value"] is True else "formula is false"
        if req.check == "psi":
            want = self.psi_expected()
            return None if last["value"] == want else (
                f"psi(5, 30) = {last['value']}, window says {want}")
        return None if last.get("violations") == 0 else "violations reported"


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    wall: float  # wall seconds
    digest: str
    report_bytes: int
    records: int
    error: str | None
    seconds: float = 0.0  # wall seconds corrected to the reference speed (speed.py)


def run_request(cli, req: Request, seed: int, tmp: str, checker: Checker) -> Outcome:
    out_path = os.path.join(tmp, f"{req.name}.jsonl")
    argv = ["--seed", str(seed)]
    if req.report == "out":
        argv += ["--out", out_path]
    argv += [a.replace("{tmp}", tmp) for a in req.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crashing request is a failed one
        rc = f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    report = stdout.getvalue()
    if req.report == "out" and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            report = fh.read() + report
        os.remove(out_path)
    if rc != 0:
        error = f"exit {rc}: {stderr.getvalue().strip()[-300:]}"
    else:
        try:
            error = checker.problem(req, report)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable report: {exc!r}"
    stable = report.replace(tmp, "{tmp}").encode()
    return Outcome(wall, hashlib.sha256(stable).hexdigest(), len(report.encode()),
                   len(report.splitlines()), error)


def run_pass(cli, reqs, seed, tmp, checker, ref: Reference, first: list | None,
             tracer=None):
    """One pass over the requests; flags digests that differ from `first`.
    The reference is timed between requests, once before the first."""
    outcomes = []
    before = ref.seconds()
    for i, req in enumerate(reqs):
        if tracer is None:
            o = run_request(cli, req, seed, tmp, checker)
        else:
            with tracer.span("request", f"request.{req.name}"):
                o = run_request(cli, req, seed, tmp, checker)
        after = ref.seconds()
        o.seconds = corrected(o.wall, before, after)
        before = after
        if o.error is None and first is not None and o.digest != first[i].digest:
            o.error = "report digest differs from the first pass"
        if o.error is not None:
            print(f"FAILED {req.name}: {o.error}", file=sys.stderr)
        outcomes.append(o)
    return outcomes


def run_passes(cli, reqs, seed, seconds, tmp, checker, ref, first=None, tracer=None,
               before_pass=None, after_pass=None):
    """Passes until `seconds` have elapsed (at least one)."""
    passes = []
    start = perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        outcomes = run_pass(cli, reqs, seed, tmp, checker, ref,
                            first if first is not None else (passes[0] if passes else None),
                            tracer)
        passes.append(outcomes)
        if after_pass is not None:
            after_pass(outcomes)
        if perf_counter() - start >= seconds:
            return passes


def request_medians(passes) -> list[float]:
    return [statistics.median(p[i].seconds for p in passes)
            for i in range(len(passes[0]))]


def verdict_s(passes) -> float:
    """Time of one pass over the requests: the sum of per-request medians,
    which damps a slow moment better than the median of pass totals."""
    return sum(request_medians(passes))


# ---------------------------------------------------------------------------
# Set-up time and machine facts
# ---------------------------------------------------------------------------

# Run in a fresh interpreter: import of gparith plus the default config load
# (field construction, Sturm isolation), as before a first CLI request.
SETUP_PROBE = """\
from time import perf_counter
t0 = perf_counter()
import gparith.cli
from gparith.config import load_config
load_config(None)
print(perf_counter() - t0)
"""


def setup_sample(ref: Reference) -> float:
    before = ref.seconds()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=60, check=True)
    return corrected(float(done.stdout), before, ref.seconds())


def machine_facts(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "gparith")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "src_sha256": src.hexdigest()[:16],
            "seed": seed}


def _git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git; 'none' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "gparith", "cli.py")):
        sys.exit(f"error: gparith sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gparith.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported gparith from {cli.__file__}, not {SRC}")
    return cli


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    reqs = WORKLOADS[workload]
    cli = import_cli()
    checker = Checker()
    unsteady = []
    # One CPU for the whole run: the reference interpreter and the set-up
    # probes inherit it, so the reference is timed where the requests run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        with Reference() as ref:
            if not trace:
                # set-up is sampled before every pass, so its median spans the run
                setup_sample(ref)  # warm-up: bytecode caches, page cache
                setups: list[float] = []
                passes = run_passes(cli, reqs, seed, seconds, tmp, checker, ref,
                                    before_pass=lambda: setups.append(setup_sample(ref)))
                untraced = passes
                metrics = {
                    "setup_s": (statistics.median(setups), "s"),
                    "verdict_s": (verdict_s(passes), "s"),
                    "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                    / 1024.0, "MB"),
                }
            else:
                from tracer import Tracer, layer_metrics
                passes = run_passes(cli, reqs, seed, seconds / 2, tmp, checker, ref)
                untraced = passes[:]
                tracer = Tracer()
                samples = []

                def collect(outcomes):
                    samples.append(layer_metrics(tracer, outcomes))
                    tracer.reset()

                tracer.install()
                try:
                    traced = run_passes(cli, reqs, seed, seconds / 2, tmp, checker, ref,
                                        first=passes[0], tracer=tracer, after_pass=collect)
                finally:
                    tracer.uninstall()
                passes += traced
                metrics = {}
                for key, (_, unit) in samples[0].items():
                    values = [sample[key][0] for sample in samples]
                    if unit == "count" and len(set(values)) > 1:
                        unsteady.append(key)
                        print(f"FAILED count {key} differs between traced passes: {values}",
                              file=sys.stderr)
                    metrics[key] = (statistics.median(values), unit)
                metrics["trace.overhead_s"] = (verdict_s(traced) - verdict_s(untraced), "s")
                medians = dict(zip((r.name for r in reqs), request_medians(untraced)))
                for name in request_names():
                    metrics[f"request.{name}.s"] = (medians.get(name, 0.0), "s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(len(p) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p)
    detail = {"passes": len(passes),
              # corrected / wall seconds: how fast the machine ran, as a diagnostic
              "speed_factor": round(statistics.median(o.seconds / o.wall for p in untraced
                                                      for o in p), 4),
              "request_s": {r.name: round(t, 4)
                            for r, t in zip(reqs, request_medians(untraced))},
              "records": {r.name: o.records for r, o in zip(reqs, passes[0])}}
    result = {"correct": failed == 0 and not unsteady, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": machine_facts(args.seed), "workload": args.workload,
                      **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
