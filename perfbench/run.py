"""Benchmark of the ellcy command line, import included.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Every timed command is a fresh ``python -m ellcy ...`` process, run one
after another (a closed loop with one client), with ``PYTHONPATH`` set to
the ``src`` directory of the tree that holds this file.  The seed picks the
commands of a workload from a fixed band of nearly equal cost; the program
sees only their argv.  The workload's commands are repeated in as many
rounds as fit in ``--seconds``, and at least one.  Each round also makes a
few trivial ``ellcy euler`` calls that measure start-up.  After every timed
call, calibrate.py runs a fixed piece of stdlib work in a fresh process;
the times are scaled by CAL_REF_S over its mean time in the run, which
takes out most of the host's drift in speed.

Every output is checked: against the sha256 recorded in reference.json,
``--method direct`` output against the closed route's output at the same
size, ``nl`` output against -4 times the E10 coefficient from divisor sums,
and ``check`` output for FAIL lines.  A wrong exit code, wrong output or
timeout counts as a failed command.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs every
command once more under trace_child.py and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record`` re-records
reference.json from the tree, after the independent checks above pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from calibrate import CHECKSUM
from trace_child import FORMS, INVARIANTS, SERIES_METHODS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SETUP_ARGV = ["euler"]
SETUP_PER_ROUND = 5
COMMAND_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # stop starting commands after this, to exit in time
# Reported times are at the host speed at which calibrate.py takes this long
# (about its time on an idle 2.1 GHz Xeon with Python 3.11).
CAL_REF_S = 0.3


def _band(template: str, values) -> list[list[str]]:
    return [template.format(v).split() for v in values]


# Each workload is a list of slots; the seed picks one argv per slot.
# Sizes are chosen so the picks of one slot cost within a few per cent of
# each other, which keeps the seed from moving the timings.
WORKLOADS = {
    # A few long series: the eta product loop, invert/sqrt and the E8
    # enumeration do nearly all the work; no Noether-Lefschetz number.
    "large-series": [
        _band("series inv-delta --prec {}", range(196, 201)),
        _band("series inv-sqrt-delta --json --prec {}", range(196, 201)),
        _band("series theta-e8 --prec {}", range(196, 201)),
        _band("gv fiber --prec {}", range(196, 201)),
        _band("gv section --method direct --prec {}", range(196, 201)),
        # 3(prec - 1) + 2 = 188..200 terms of 1/Delta and E10
        _band("gv multifiber --m 3 --prec {}", range(63, 68)),
    ],
    # About 1.3k medium E4*E6 products: nl_number rebuilds E10 for every
    # (n, h).  The cost of the two NL-sum tables grows like prec^4, so their
    # size is fixed; the seed picks the single NL number.
    "nl-sum": [
        [["gv", "fiber", "--method", "direct", "--prec", "40"]],
        [["gv", "multifiber", "--m", "2", "--method", "direct",
          "--prec", "22"]],
        [["nl", "--h", str(h), "--d1", str(d1), "--d2", "1"]
         for h in range(4) for d1 in range(996, 1005)],
    ],
    # All routes and oracles in one process, the only place where generators
    # are shared.  Its one knob moves the cost by ~25% a step, so it is fixed.
    "self-check": [
        [["check", "--prec", "22"]],
    ],
}

CHECK_NAMES = (
    "ring-laws", "slice-partition", "precision-honesty",
    "pairing-determinant", "pushforward-kernel", "nl-vanishing",
    "theta-e8-equals-e4", "e10-sigma9", "eta-power-additivity",
    "fiber-dual-route", "section-dual-route", "multifiber-dual-route-m2",
    "multifiber-dual-route-m3", "gv-integrality", "euler-hodge")
ROUTES = tuple(name for name in INVARIANTS if name != "nl_number")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for metric in SERIES_METHODS:
        units[f"series.{metric}.calls"] = "count"
        units[f"series.{metric}.self_s"] = "s"
    units["series.mul.work"] = "products"
    units["series.max_coeff_bits"] = "bits"
    for fname in FORMS:
        units[f"forms.{fname}.calls"] = "count"
        units[f"forms.{fname}.self_s"] = "s"
        units[f"forms.{fname}.repeat_share"] = "ratio"
    units["invariants.nl_number.calls"] = "count"
    units["invariants.nl_number.self_s"] = "s"
    units["invariants.nl_number.repeat_share"] = "ratio"
    for route in ROUTES:
        units[f"invariants.{route}.total_s"] = "s"
        units[f"invariants.{route}.repeat_share"] = "ratio"
    for check in CHECK_NAMES:
        units[f"checks.{check}.total_s"] = "s"
    units["cli.self_s"] = "s"
    units["setup.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class TreeError(Exception):
    """The tree under test is missing or is not the code being run."""


@dataclass
class Run:
    argv: list[str]
    code: int | None  # None when killed at the timeout
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kib: int
    trace: dict | None = None


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment without its PYTHON* settings.

    Settings such as PYTHONUNBUFFERED or PYTHONDONTWRITEBYTECODE change what
    a command costs, so they are dropped; bytecode caches are written.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def check_tree(root: Path) -> None:
    """Abort unless ``import ellcy`` resolves inside root/src."""
    src = (root / "src").resolve()
    probe = subprocess.run(
        [sys.executable, "-c", "import ellcy; print(ellcy.__file__)"],
        env=child_env(root), capture_output=True, timeout=COMMAND_TIMEOUT_S)
    if probe.returncode != 0:
        raise TreeError(f"cannot import ellcy from {src}: "
                        f"{probe.stderr.decode(errors='replace').strip()}")
    found = Path(probe.stdout.decode().strip()).resolve()
    if not found.is_relative_to(src):
        raise TreeError(f"ellcy resolves to {found}, outside {src}")


class Spawner:
    """Runs commands one at a time through spawner.py.

    Wall time is from spawn to exit; exit status and max RSS come from
    os.wait4 on the command.  A command still running at its timeout is
    killed and gets code None.  Output goes through files in a temporary
    directory inside the tree.
    """

    def __init__(self, root: Path):
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
        self.dir = Path(self.tmp.name)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(root), text=True)

    def spawn(self, argv: list[str], timeout: float) -> dict:
        """Run one full argv; its output is left in self.dir/out and err."""
        request = {"argv": argv, "out": str(self.dir / "out"),
                   "err": str(self.dir / "err"),
                   "timeout": max(timeout, 0.001)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        return json.loads(line)

    def run(self, argv: list[str], timeout: float, trace: bool = False) -> Run:
        spans = self.dir / "spans"
        prefix = [sys.executable, "-m", "ellcy"]
        if trace:
            spans.unlink(missing_ok=True)
            prefix = [sys.executable, str(HERE / "trace_child.py"), str(spans)]
        reply = self.spawn(prefix + argv, timeout)
        run = Run(argv, reply["status"], (self.dir / "out").read_bytes(),
                  (self.dir / "err").read_bytes(), reply["wall_s"],
                  reply["maxrss_kib"])
        if trace and run.code is not None and spans.exists():
            run.trace = json.loads(spans.read_text())
        return run

    def calibrate(self) -> float:
        """Wall time of one calibrate.py process, whose output is checked."""
        reply = self.spawn([sys.executable, str(HERE / "calibrate.py")],
                           COMMAND_TIMEOUT_S)
        out = (self.dir / "out").read_text().strip()
        if reply["status"] != 0 or out != CHECKSUM:
            raise RuntimeError(f"calibrate.py exited {reply['status']} "
                               f"and printed {out!r}, not {CHECKSUM!r}")
        return reply["wall_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.tmp.cleanup()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def closed_route(argv: list[str]) -> list[str] | None:
    """The closed-route command of the same size for a --method direct one."""
    if "--method" not in argv:
        return None
    i = argv.index("--method")
    if argv[i + 1] != "direct":
        return None
    return argv[:i] + argv[i + 2:]


def sigma9(n: int) -> int:
    return sum(d ** 9 for d in range(1, n + 1) if n % d == 0)


def expected_nl(argv: list[str]) -> bytes:
    """``nl`` output from -4 * E10, E10 = 1 - 264 sum sigma_9(n) q^n."""
    opt = dict(zip(argv[1::2], map(int, argv[2::2])))
    h, d1, d2 = opt["--h"], opt["--d1"], opt["--d2"]
    half = d2 * d2 + d1 * d2 - h + 1  # half the bordered discriminant
    if half < 0:
        return b"0 (discriminant negative)\n"
    e10 = 1 if half == 0 else -264 * sigma9(half)
    return f"{-4 * e10}\n".encode()


class Checker:
    """Decides whether one command's run is correct."""

    def __init__(self, spawner: Spawner, reference: dict[str, str] | None,
                 deadline: float):
        self.spawner = spawner
        self.reference = reference
        self.deadline = deadline
        self.closed: dict[str, Run] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, argv: list[str], trace: bool = False) -> Run | None:
        """Run one counted command; None if the run deadline has passed."""
        self.attempted += 1
        left = self.deadline - time.perf_counter()
        if left <= 0:
            self.failures.append(f"{' '.join(argv)}: run deadline passed")
            return None
        run = self.spawner.run(argv, min(COMMAND_TIMEOUT_S, left), trace)
        reason = self.fault(run)
        if reason:
            self.failures.append(f"{' '.join(argv)}: {reason}")
        return run

    def closed_run(self, argv: list[str]) -> Run | None:
        """The closed route's run at the same size, for a direct command."""
        closed = closed_route(argv)
        if closed is None:
            return None
        key = " ".join(closed)
        if key not in self.closed:
            left = self.deadline - time.perf_counter()
            self.closed[key] = self.spawner.run(
                closed, min(COMMAND_TIMEOUT_S, left))
        return self.closed[key]

    def fault(self, run: Run) -> str | None:
        argv = run.argv
        if run.code is None:
            return "timed out"
        if run.code != 0:
            tail = run.stderr.decode(errors="replace").strip()[-200:]
            return f"exit code {run.code}: {tail}"
        if self.reference is not None:
            want = self.reference.get(" ".join(argv))
            if want is None:
                return "no reference output recorded"
            if digest(run.stdout) != want:
                return "output differs from the recorded reference"
        oracle = self.closed_run(argv)
        if oracle is not None and (oracle.code != 0
                                   or oracle.stdout != run.stdout):
            return "differs from the closed route at the same size"
        if argv[0] == "nl" and run.stdout != expected_nl(argv):
            return "differs from -4 * E10 by divisor sums"
        if argv[0] == "check" and any(
                line.startswith(b"FAIL") for line in run.stdout.splitlines()):
            return "self-check reported FAIL"
        return None


def pick_commands(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in WORKLOADS[workload]]


def measure(checker: Checker, commands: list[list[str]], seconds: float):
    """Run rounds for about `seconds`.

    Returns (rounds, setup runs, runs per command, calibration times).
    Each round runs every command once, with SETUP_PER_ROUND start-up calls
    spread between the commands so that they sample the whole round.  Every
    timed call is followed by one calibration, so the calibrations sample
    the host's speed all through the run.  A round starts only if one more
    round as long as the last one ends no more than half a round after
    `seconds`, so runs last `seconds` on average; the first round always
    runs.
    """
    checker.run(SETUP_ARGV)  # warm-up: writes the bytecode caches
    for argv in commands:
        checker.closed_run(argv)  # untimed oracles, before the first round
    setup: list[Run] = []
    runs: dict[int, list[Run]] = defaultdict(list)
    calibration: list[float] = []
    rounds, round_s = 0, 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start + round_s / 2 <= seconds:
        round_start = time.perf_counter()
        if round_start >= checker.deadline:
            break
        for i, argv in enumerate(commands):
            for _ in range(i, SETUP_PER_ROUND, len(commands)):
                run = checker.run(SETUP_ARGV)
                if run:
                    setup.append(run)
                    calibration.append(checker.spawner.calibrate())
            run = checker.run(argv)
            if run:
                runs[i].append(run)
                calibration.append(checker.spawner.calibrate())
        rounds += 1
        round_s = time.perf_counter() - round_start
    return rounds, setup, runs, calibration


def traced_round(checker: Checker, commands: list[list[str]],
                 runs: dict[int, list[Run]]) -> list[Run]:
    """Run every command once under trace_child.py.

    A traced run must print exactly what the untraced one printed.
    """
    traced = []
    for i, argv in enumerate(commands):
        run = checker.run(argv, trace=True)
        if run is None:
            continue
        plain = runs[i][0]
        if run.trace is None:
            checker.failures.append(f"{' '.join(argv)}: no trace written")
        elif run.code != plain.code or run.stdout != plain.stdout:
            checker.failures.append(
                f"{' '.join(argv)}: traced output differs from untraced")
        else:
            traced.append(run)
    return traced


def mean_round_s(runs: dict[int, list[Run]]) -> float:
    """Wall time of the mean round: the sum of each command's mean."""
    return sum(statistics.mean(r.wall_s for r in rs) for rs in runs.values())


def end_to_end(setup: list[Run], runs: dict[int, list[Run]],
               calibration: list[float]) -> dict:
    """Times at the reference speed: measured wall time * CAL_REF_S / the
    run's mean calibration time.

    wall_s is the mean round; setup_s the median start-up call.  The host's
    speed drifts by tens of per cent in phases of seconds to minutes.  Over
    such phases, means spread less from run to run than medians, and the
    scaling takes out most of what is left: on a 2-core Xeon VM it cut the
    run-to-run spread of 30 s runs by four to five times.
    """
    scale = CAL_REF_S / statistics.mean(calibration)
    everything = setup + [r for rs in runs.values() for r in rs]
    return {
        "wall_s": mean_round_s(runs) * scale,
        "setup_s": statistics.median(r.wall_s for r in setup) * scale,
        "peak_rss_mb": max(r.maxrss_kib for r in everything) / 1024,
    }


def _no_calls() -> dict[str, float]:
    return {"calls": 0, "repeats": 0, "self_s": 0.0, "total_s": 0.0}


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, repeats, self and total seconds per span name.

    Self time is a span's duration minus that of its direct children, which
    in one thread never overlap.  Total time counts only the outermost span
    of a name, so recursion is not counted twice.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(_no_calls)
    for i, (name, start, end, parent, repeat) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["repeats"] += repeat
        s["self_s"] += (end - start - child_ns[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["total_s"] += (end - start) / 1e9
    return stats


def per_layer(traced: list[Run], untraced_round_s: float) -> dict[str, float]:
    stats: dict[str, dict[str, float]] = defaultdict(_no_calls)
    for run in traced:
        for name, s in layer_stats(run.trace["spans"]).items():
            for k, v in s.items():
                stats[name][k] += v
    values = {}
    for metric in per_layer_units():
        layer, _, field = metric.rpartition(".")
        s = stats.get(layer) or _no_calls()
        if field == "repeat_share":
            values[metric] = s["repeats"] / s["calls"] if s["calls"] else 0.0
        elif field in s:
            values[metric] = s[field]
    values["series.mul.work"] = sum(r.trace["mul_work"] for r in traced)
    values["series.max_coeff_bits"] = max(
        r.trace["max_coeff_bits"] for r in traced)
    values["setup.import_s"] = statistics.median(
        r.trace["import_s"] for r in traced)
    values["trace.overhead_s"] = sum(r.wall_s for r in traced) \
        - untraced_round_s
    return values


def src_loc(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src" / "ellcy").glob("*.py")))


def commit(root: Path) -> str | None:
    """HEAD of the tree's git repository, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              root: Path = ROOT, reference: dict[str, str] | None = None,
              commands: list[list[str]] | None = None) -> dict:
    """One benchmark run; returns the result object printed last."""
    t0 = time.perf_counter()
    check_tree(root)
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    if commands is None:
        commands = pick_commands(workload, seed)
    with Spawner(root) as spawner:
        checker = Checker(spawner, reference, t0 + RUN_DEADLINE_S)
        rounds, setup, runs, calibration = measure(checker, commands,
                                                   seconds)
        metrics = end_to_end(setup, runs, calibration) \
            if setup and len(runs) == len(commands) else {}
        units = dict(END_TO_END_UNITS)
        if trace and metrics:
            traced = traced_round(checker, commands, runs)
            metrics = per_layer(traced, mean_round_s(runs)) \
                if len(traced) == len(commands) else {}
            units = per_layer_units()
    failed = len(checker.failures)
    attempted = checker.attempted
    for line in checker.failures:
        print(f"FAILED {line}", file=sys.stderr)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": rounds, "setup_samples": len(setup),
        "src_loc": src_loc(root), "commit": commit(root),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "argv": [["ellcy", *argv] for argv in commands],
    }
    print("meta " + json.dumps(meta))
    for i, rs in sorted(runs.items()):
        times = " ".join(f"{r.wall_s:.4f}" for r in rs)
        print(f"command {' '.join(commands[i])}: {times} s")
    print(f"setup {' '.join(f'{r.wall_s:.4f}' for r in setup)} s")
    print(f"calibration {' '.join(f'{t:.4f}' for t in calibration)} s")
    for name, value in metrics.items():
        print(f"{name:46s} {value:>16.6f} {units[name]}")
    print(f"{'error_rate':46s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} commands failed)")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def record(root: Path = ROOT) -> dict[str, str]:
    """Digests of every command any seed can pick, checked by the oracles."""
    check_tree(root)
    argvs = [SETUP_ARGV] + [argv for slots in WORKLOADS.values()
                            for slot in slots for argv in slot]
    reference = {}
    with Spawner(root) as spawner:
        checker = Checker(spawner, None, float("inf"))
        for argv in argvs:
            run = checker.run(argv)
            reference[" ".join(argv)] = digest(run.stdout)
    if checker.failures:
        raise TreeError("; ".join(checker.failures))
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from this tree")
    args = parser.parse_args()
    try:
        if args.record:
            reference = record()
            REFERENCE.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")
            print(f"recorded {len(reference)} outputs in {REFERENCE}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except TreeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
