"""Benchmark of frob2d: one seeded workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src``.  Set-up (building algebras, words and files from the seed) runs
several times and is reported as a median; then one untimed warm-up round,
then whole rounds of the workload's operations until ``--seconds`` of
operation time have passed.  Every result is checked, outside the timed
call.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
printed; with ``--trace 1`` the per-layer ones, from a traced round (spans
are written to ``.bench_out/``).  The last line of stdout is the result
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 15  # set-up repetitions; setup_s is their median
MIN_OPS = 100  # timed operations per run, at least
PROBE_REPEATS = 7  # subprocess probe pairs for cli.interpreter_ms and cli.import_ms


class Crashed(RuntimeError):
    """A child process died with a traceback: an error, not a wrong answer."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # The default int-to-str digit limit is what a user's shell has.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_child(command, cwd) -> tuple[int, list]:
    proc = subprocess.run(command, env=child_env(), cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    if "Traceback (most recent call last)" in proc.stderr:
        raise Crashed(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, proc.stdout.splitlines()


class Runner:
    """Runs rounds of operations, traced or not, and tallies their outcomes."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=_dir(".bench_work")))
        self.tracer = None
        self.wrong = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_cli(self, argv):
        if self.tracer is None:
            return run_child([sys.executable, "-m", "frob2d.cli", *argv], self.workdir)
        dump = self.workdir / "child-trace.json"
        try:
            return run_child([sys.executable, str(HERE / "cli_child.py"), str(dump), *argv],
                             self.workdir)
        finally:
            if dump.exists():
                self.tracer.merge(dump)
                dump.unlink()

    def setup(self):
        import workloads

        ctx = types.SimpleNamespace(root=ROOT, workdir=self.workdir, run_cli=self.run_cli)
        rng = random.Random(self.seed)
        ops = workloads.WORKLOADS[self.workload](rng, ctx)
        rng.shuffle(ops)
        return ops

    def round(self, ops):
        """One pass over ``ops``: a list of (seconds, outcome) per operation."""
        results = []
        for index, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op = index
                run = lambda op=op: self.tracer.call("op." + op.kind, op.run)
            else:
                run = op.run
            start = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # the operation failed; count it, keep going
                elapsed = time.perf_counter() - start
                print(f"error: {op.kind}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
                results.append((elapsed, "error"))
                continue
            elapsed = time.perf_counter() - start
            try:
                ok = op.check(result)
            except Exception as exc:  # a malformed result is a wrong answer
                print(f"check: {op.kind}: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
                ok = False
            if not ok:
                self.wrong += 1
                print(f"wrong: {op.kind}", file=sys.stderr)
            results.append((elapsed, "ok" if ok else "wrong"))
        return results


def _dir(name) -> Path:
    path = ROOT / name
    path.mkdir(exist_ok=True)
    return path


def timed_rounds(runner, ops, seconds) -> list:
    """Whole rounds until ``seconds`` of operation time: one result list per round.

    Rounds are never cut, so every run holds the same mix.
    """
    rounds, spent = [], 0.0
    while spent < seconds or len(rounds) * len(ops) < MIN_OPS:
        rounds.append(runner.round(ops))
        spent += busy(rounds[-1])
    return rounds


def busy(results) -> float:
    return sum(t for t, _ in results)


def ops_per_s(rounds) -> float:
    """Median over rounds of correct operations per second of operation time."""
    return statistics.median(
        sum(1 for _, outcome in results if outcome == "ok") / busy(results)
        for results in rounds)


def end_to_end(runner, setups, rounds) -> dict:
    latencies = [t for results in rounds for t, _ in results]
    deciles = statistics.quantiles(latencies, n=10)
    usage = resource.RUSAGE_CHILDREN if runner.workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(rounds),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


PROBE_COMMANDS = (
    ["check", "--extended", "{data}/kxk_ext.json"],
    ["invariant", "{data}/z2.json", "--genus", "50"],
    ["eval", "{data}/torus.cob", "{data}/dual_numbers.json"],
    ["naturality", "{data}/z2_negate_x.json", "{data}/z2_ext.json", "{data}/z2_ext.json"],
    ["naturality", "--word", "{data}/torus.cob", "{data}/identity_d.json",
     "{data}/dual_numbers.json", "{data}/dual_numbers.json"],
    ["tensor", "{data}/z2.json", "{work}/nocomult.json", "-o", "{work}/product.json"],
    ["search-theta", "{data}/kxk.json", "--bound", "1"],
)


def handler_probe(runner) -> float:
    """Median ms of in-process ``cli.main`` over the six subcommands, stdout captured."""
    import reference
    from frob2d import cli

    work = runner.workdir
    doc = reference.tensor(reference.z2(), reference.split_pair()).document(with_comult=False)
    (work / "nocomult.json").write_text(json.dumps(doc))
    fields = {"data": ROOT / "src" / "frob2d" / "data", "work": work}
    commands = [[a.format(**fields) for a in argv] for argv in PROBE_COMMANDS]
    times = []
    for _ in range(3):
        for argv in commands:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"handler probe {argv[0]} exited {code}: {sink.getvalue()}")
    return statistics.median(times) * 1e3


def process_probes() -> dict:
    """Bare interpreter start, and importing frob2d.cli on top of it, in ms.

    The import cost is the median of paired differences, so a slow spell of
    the machine shifts both halves of a pair alike.  The first pair warms up.
    """
    pairs = []
    for _ in range(PROBE_REPEATS + 1):
        pair = []
        for code in ("pass", "import frob2d.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                           cwd=ROOT, timeout=60)
            pair.append(time.perf_counter() - start)
        pairs.append(pair)
    pairs = pairs[1:]
    return {"cli.interpreter_ms": statistics.median(b for b, _ in pairs) * 1e3,
            "cli.import_ms": statistics.median(f - b for b, f in pairs) * 1e3}


def traced(runner, ops, seconds) -> tuple[dict, list]:
    """Untraced rounds, then set-up, one round and the handler probe traced.

    ``cli.handler_ms`` comes from a second, untraced handler probe, so it
    holds no tracer cost.
    """
    import tracer
    import workloads

    plain = timed_rounds(runner, ops, seconds / 2)
    tr = runner.tracer = tracer.Tracer()
    tr.install(extra_modules=[workloads])
    try:
        ops = tr.call("setup", runner.setup)
        traced_results = runner.round(ops)
        tr.op = -2
        tr.call("handler_probe", handler_probe, runner)
    finally:
        tr.uninstall()
        runner.tracer = None
    tr.write(_dir(".bench_out") / f"spans-{runner.workload}.tsv")
    probes = process_probes()
    probes["cli.handler_ms"] = handler_probe(runner)
    probes["trace.overhead_frac"] = ops_per_s(plain) / ops_per_s([traced_results]) - 1
    return tracer.layer_values(tr, probes), plain + [traced_results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wide_words", "axioms", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frob2d" / "__init__.py").is_file():
        print(f"error: no frob2d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import frob2d

    if Path(frob2d.__file__).resolve().parent != ROOT / "src" / "frob2d":
        print(f"error: imported frob2d from {frob2d.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Expected answers may have more digits than the default int-to-str limit
    # allows.  Lifted here only: child_env keeps the default for the children.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)

    runner = Runner(args.workload, args.seed)
    try:
        setups, ops = [], None
        for _ in range(SETUPS):
            start = time.perf_counter()
            ops = runner.setup()
            setups.append(time.perf_counter() - start)
        runner.round(ops)  # warm-up: fills caches, computes expected answers
        if args.trace:
            import tracer

            values, rounds = traced(runner, ops, args.seconds)
            declared = spec["per_layer"]
            units = {name: (unit, better, moves) for name, unit, better, moves in tracer.PER_LAYER}
        else:
            rounds = timed_rounds(runner, ops, args.seconds)
            values = end_to_end(runner, setups, rounds)
            declared = spec["end_to_end"]
            units = {m["name"]: (m["unit"], m["better"], ()) for m in declared}
    finally:
        runner.close()

    if [m["name"] for m in declared] != list(values) or any(
            units[m["name"]][0] != m["unit"] for m in declared):
        raise SystemExit("error: metrics differ from BENCHMARK.json")
    outcomes = [outcome for results in rounds for _, outcome in results]
    failed = sum(1 for outcome in outcomes if outcome != "ok")
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} operations, "
          f"{len(outcomes)} latency samples")
    if not args.trace:
        # Zero on most workloads, so not a bounded metric: BENCHMARK.json
        # carries it as failed/attempted.
        print(f"fail_frac = {failed / len(outcomes):.6g} ratio (lower is better; "
              "wrong answers, exceptions and crashes over operations attempted)")
    for name, value in values.items():
        unit, better, moves = units[name]
        where = "".join(f"; moves {m} on {w}" for m, w in moves)
        print(f"{name} = {value:.6g} {unit} ({better} is better{where})")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
