"""Run one benchmark workload in this process and print its result as one JSON line.

Started by run.py, one child process per workload so that peak RSS is the
workload's own:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--setup-only]

A workload is a closed loop with one client: it repeats a fixed pass over its
seeded inputs, each operation starting when the previous one ends, until
`--seconds` have passed. Every pass does the same work, so per-pass rates are
comparable and their median is steady; every pass must also reproduce the
first pass's output digests. Outputs are checked against the other public
path that must agree with them (`python -m foragesim` against the API, one
life against the Monte Carlo batch, CSV reload against the table in memory,
canonical text against its re-parse) and, for recorded seeds, against
golden.json.

Every end-to-end time is in reference seconds (see hostspeed.py): wall time
scaled by how fast the host ran a fixed kernel around the operation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import gen
import hostspeed
import spans

# foragesim's modules, imported in Bench.setup so that set-up time includes the import
cli = scenario = sim = None

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
# The trace keys and stats columns README documents; digests ignore later additions.
TRACE_KEYS = (
    "step", "state", "event", "node", "option",
    "w_pos_before", "w_pos_after", "w_neg_before", "w_neg_after",
    "battery", "capacitor", "mood", "x", "y",
)
STATS_COLUMNS = ("episode", "outcome", "lifetime", "recharges_station", "recharges_wireless")
MODULES = ("statemachine", "energy", "weights", "world", "sim", "scenario", "cli")
PARSE_SAMPLES = 1000  # enough that the p99 has ten samples beyond it
CLI_PROBES = 15  # least subprocess calls per verb on the workloads that do not loop over the CLI
CLI_SLICE = 2  # subprocess calls per verb between two passes on those workloads
PARSE_SLICE = 100  # parse+validate samples between two passes
INTERP_PROBES = 7  # bare and importing interpreters timed in the traced run
SETUP_PROBES = 20  # least fresh set-up-only processes per untraced run
SETUP_SLICE = 2  # set-up-only processes between two passes
SCN_PARSE_REPS = 8  # in-process parses of each scenario_cli text per pass
CLI_TIMEOUT_S = 60
_RUN_LINE = re.compile(r"^outcome=(\S+) lifetime=(\d+)$", re.M)


def sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# -- semantic payloads -------------------------------------------------------


def result_payload(r) -> list:
    return [
        r.outcome,
        r.lifetime,
        r.death_step,
        sorted([n, o, c] for (n, o), c in r.choices_made.items()),
        sorted(r.first_choices.items()),
        sorted([n, o, e.w_pos, e.w_neg, e.successes, e.failures]
               for (n, o), e in r.final_weights.items()),
        sorted(r.recharges.items()),
    ]


def trace_digest(path: Path) -> tuple[str, int, Counter]:
    """Digest of a JSONL trace restricted to TRACE_KEYS, its row count and its choices.

    Streams the file, so checking a long trace does not raise peak RSS.
    """
    h = hashlib.sha256()
    rows = 0
    choices = Counter()
    with path.open() as fh:
        for line in fh:
            row = json.loads(line)
            h.update(json.dumps({k: row[k] for k in TRACE_KEYS if k in row}).encode())
            rows += 1
            if row.get("event") == "choice":
                choices[f"choices.{row['node']}.{row['option']}"] += 1
    return h.hexdigest(), rows, choices


def project_stats(text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [[row[c] for c in STATS_COLUMNS] for row in rows]


@dataclass
class Outcome:
    """What one operation produced, summarised outside the timed region."""

    payload: object = None
    ticks: int = 0
    lives: int = 0
    units: int = 1  # operations in the fail_fraction sense: lives, writes, parses, CLI calls
    counts: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    parse_us: float | None = None
    cli_verb: str | None = None


def life_counts(results) -> Counter:
    c = Counter()
    for r in results:
        c["ticks"] += r.lifetime
        c["lives"] += 1
        c["deaths"] += r.death_step is not None
        for source, n in r.recharges.items():
            c[f"recharges.{source}"] += n
        for (node, option), n in r.choices_made.items():
            c[f"choices.{node}.{option}"] += n
    return c


def lives_outcome(results, extra=None) -> Outcome:
    counts = life_counts(results)
    return Outcome(
        payload=[[result_payload(r) for r in results], extra],
        ticks=counts["ticks"],
        lives=len(results),
        units=len(results),
        counts=counts,
    )


# -- the run -----------------------------------------------------------------


class Check(Exception):
    """An output that disagrees with the path it must agree with."""


class Failure(Exception):
    """An operation that raised or exited with an undocumented code."""


class Op(NamedTuple):
    """One timed operation on input `item`; `verb` is set for CLI calls."""

    run: Callable[[], object]
    summary: Callable[[object], Outcome]
    item: int
    verb: str | None = None


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.items = gen.GENERATORS[workload](seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.known_failures: Counter = Counter()
        self.unexpected: list[str] = []
        self.speed = hostspeed.HostSpeed()

    # set-up: import the program, parse every input, build the configs
    def setup(self) -> float:
        """Set the program up; returns the time it took in reference seconds."""
        global cli, scenario, sim
        self.speed.sample(force=True)
        self.speed.sample(force=True)
        start = time.perf_counter()
        from foragesim import cli, scenario, sim

        self.parse_inputs()
        wall = time.perf_counter() - start
        self.speed.sample(force=True)
        self.speed.sample(force=True)
        return wall * self.speed.scale()

    def parse_inputs(self) -> None:
        self.scenarios = []
        self.cfgs = []
        self.later_cfgs = []
        for i, item in enumerate(self.items):
            sc, diags = scenario.parse_scenario_checked(item.text, name=item.label)
            valid = sc is not None and not any(d.severity == "error" for d in diags)
            self.scenarios.append(sc if valid else None)
            if not valid or self.workload == "scenario_cli":
                self.cfgs.append(None)
                self.later_cfgs.append(None)
                continue
            if self.workload == "learning_lives":
                cfg = sim.SimConfig(sc, seed=item.seed, max_steps=item.steps,
                                    memory_mode=sim.MEMORY_NONVOLATILE,
                                    weights_path=self.tmp / f"weights{i}.csv")
                later = sim.SimConfig(sc, seed=item.seed + item.episodes, max_steps=item.steps,
                                      memory_mode=sim.MEMORY_NONVOLATILE,
                                      weights_path=cfg.weights_path)
            else:
                cfg = sim.SimConfig(sc, seed=item.seed, max_steps=item.steps)
                later = None
            self.cfgs.append(cfg)
            self.later_cfgs.append(later)

    def scn_path(self, i: int) -> Path:
        path = self.tmp / f"in{i}.scn"
        path.write_text(self.items[i].text)
        return path

    # -- operations --------------------------------------------------------

    def ops(self, in_process_cli: bool) -> list[Op]:
        w = self.workload
        if w == "mc_quiet":
            return [Op(self._mc_run(i), self._mc_summary(i), i) for i in range(len(self.items))]
        if w == "trace_run":
            return [Op(self._trace_run(i), self._trace_summary(i), i) for i in range(len(self.items))]
        if w == "learning_lives":
            return [Op(self._learn_run(i), self._learn_summary(i), i) for i in range(len(self.items))]
        ops = []
        for i in range(len(self.items)):
            ops += [Op(self._parse_run(i), self._parse_summary(i), i)] * SCN_PARSE_REPS
        for i, item in enumerate(self.items):
            for verb in item.cli:
                ops.append(self._cli_op(i, verb, in_process_cli))
        return ops

    def _mc_run(self, i):
        def run():
            stats = sim.run_monte_carlo(self.cfgs[i], self.items[i].episodes)
            sim.write_stats_csv(stats, self.tmp / "stats.csv")
            return stats
        return run

    def _mc_summary(self, i):
        def summary(stats):
            csv_text = (self.tmp / "stats.csv").read_text()
            return lives_outcome(stats.results, project_stats(csv_text))
        return summary

    def _trace_run(self, i):
        def run():
            result, trace = sim.run_episode(self.cfgs[i])
            sim.write_trace_jsonl(trace, self.tmp / "trace.jsonl")
            return result, len(trace)
        return run

    def _trace_summary(self, i):
        def summary(raw):
            result, rows = raw
            digest, written, _ = trace_digest(self.tmp / "trace.jsonl")
            if written != rows:
                raise Check(f"{self.items[i].label}: trace file has {written} rows, trace {rows}")
            out = lives_outcome([result], digest)
            out.units += 1  # the trace write
            return out
        return summary

    def _learn_run(self, i):
        def run():
            self.cfgs[i].weights_path.unlink(missing_ok=True)
            first = sim.run_monte_carlo(self.cfgs[i], self.items[i].episodes)
            later = sim.run_monte_carlo(self.later_cfgs[i], self.items[i].episodes)
            sim.write_stats_csv(later, self.tmp / "stats.csv")
            return first, later
        return run

    def _learn_summary(self, i):
        from foragesim import weights

        def summary(raw):
            first, later = raw
            path = self.cfgs[i].weights_path
            final = later.results[-1].final_weights
            loaded = weights.load_weights(path).entries
            if loaded.keys() != final.keys() or any(
                abs(loaded[k].w_pos - final[k].w_pos) > 5e-10
                or abs(loaded[k].w_neg - final[k].w_neg) > 5e-10
                or (loaded[k].successes, loaded[k].failures) != (final[k].successes, final[k].failures)
                for k in final
            ):
                raise Check(f"{self.items[i].label}: weights CSV does not reload to the final table")
            stats_rows = project_stats((self.tmp / "stats.csv").read_text())
            return lives_outcome(first.results + later.results, [path.read_text(), stats_rows])
        return summary

    def _parse_run(self, i):
        text, label = self.items[i].text, self.items[i].label

        def run():
            start = time.perf_counter()
            sc, diags = scenario.parse_scenario_checked(text, name=label)
            parse_s = time.perf_counter() - start
            if sc is None or any(d.severity == "error" for d in diags):
                return parse_s, sc, None, None
            canonical = scenario.serialize_scenario(sc)
            again, _ = scenario.parse_scenario_checked(canonical, name=label)
            return parse_s, sc, again, canonical
        return run

    def _parse_summary(self, i):
        def summary(raw):
            parse_s, sc, again, canonical = raw
            if canonical is not None:
                if again != sc or scenario.serialize_scenario(again) != canonical:
                    raise Check(f"{self.items[i].label}: canonical text does not round-trip")
            return Outcome(payload=canonical if canonical is not None else "invalid",
                           parse_us=parse_s * 1e6)
        return summary

    # -- the command line ----------------------------------------------------

    def _cli_steps(self, i: int) -> int:
        """Horizon of a CLI run: short enough that start-up stays a visible share."""
        return self.items[i].steps if self.workload == "scenario_cli" else min(self.items[i].steps, 1000)

    def _cli_argv(self, i: int, verb: str) -> tuple[list[str], list[str]]:
        """Arguments and output files of one CLI call on item i."""
        item = self.items[i]
        path = str(self.scn_path(i))
        if verb == "validate":
            return ["validate", path], []
        common = ["--seed", str(item.seed), "--steps", str(self._cli_steps(i))]
        if self.workload in ("scenario_cli", "trace_run"):
            return (["run", path, *common, "--trace", str(self.tmp / "cli_trace.jsonl")],
                    ["cli_trace.jsonl"])
        argv = ["mc", path, *common, "--episodes", str(item.episodes),
                "--out", str(self.tmp / "cli_stats.csv")]
        files = ["cli_stats.csv"]
        if self.workload == "learning_lives":
            argv += ["--memory", "nonvolatile", "--weights", str(self.tmp / "cli_weights.csv")]
            files.append("cli_weights.csv")
        return argv, files

    def _cli_op(self, i: int, verb: str, in_process: bool):
        argv, files = self._cli_argv(i, verb)

        def run():
            for name in files:
                (self.tmp / name).unlink(missing_ok=True)
            start = time.perf_counter()
            if in_process:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                stdout, stderr = out.getvalue(), err.getvalue()
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "foragesim", *argv], cwd=self.tmp,
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            return time.perf_counter() - start, code, stdout, stderr

        def summary(raw):
            wall, code, stdout, stderr = raw
            if code not in (0, 1, 2, 3) or "Traceback (most recent call last)" in stderr:
                raise Failure(f"{self.items[i].label} {verb}: exit {code}, internal error")
            out = self._cli_outputs(argv[0], code, stdout, files)
            out.wall_s = wall
            out.cli_verb = verb
            return out

        return Op(run, summary, i, verb)

    def _cli_outputs(self, command, code, stdout, files) -> Outcome:
        payload = {"exit": code}
        out = Outcome(payload=payload)
        if command == "run" and code == 0:
            m = _RUN_LINE.search(stdout)
            if m is None:
                raise Check(f"run printed no outcome line: {stdout!r}")
            payload["outcome"], payload["lifetime"] = m.group(1), int(m.group(2))
            out.ticks, out.lives = int(m.group(2)), 1
            out.counts.update(ticks=out.ticks, lives=1, deaths=m.group(1) == "died")
        for name in files:
            if name.endswith(".jsonl"):
                payload[name], _, choices = trace_digest(self.tmp / name)
                out.counts.update(choices)
                continue
            text = (self.tmp / name).read_text()
            if "stats" in name:
                payload[name] = project_stats(text)
                if code == 0:
                    rows = payload[name]
                    out.ticks, out.lives = sum(int(r[2]) for r in rows), len(rows)
                    out.counts.update(ticks=out.ticks, lives=out.lives,
                                      deaths=sum(r[1] == "died" for r in rows),
                                      **{"recharges.station": sum(int(r[3]) for r in rows),
                                         "recharges.wireless": sum(int(r[4]) for r in rows)})
            else:
                payload[name] = text
        return out

    def expected_cli(self, i: int, verb: str) -> dict:
        """What a CLI call on item i must produce, computed through the API."""
        item = self.items[i]
        sc = self.scenarios[i]
        if verb == "validate" or sc is None:
            return {"exit": 0 if sc is not None else 1}
        (argv_verb, *_), files = self._cli_argv(i, verb)
        for name in files:
            (self.tmp / name).unlink(missing_ok=True)
        steps = self._cli_steps(i)
        if files[0].endswith(".jsonl"):
            result, trace = sim.run_episode(sim.SimConfig(sc, seed=item.seed, max_steps=steps))
            sim.write_trace_jsonl(trace, self.tmp / files[0])
            stdout = f"outcome={result.outcome} lifetime={result.lifetime}\n"
        else:
            extra = {}
            if self.workload == "learning_lives":
                extra = dict(memory_mode=sim.MEMORY_NONVOLATILE, weights_path=self.tmp / files[1])
            cfg = sim.SimConfig(sc, seed=item.seed, max_steps=steps, **extra)
            sim.write_stats_csv(sim.run_monte_carlo(cfg, item.episodes), self.tmp / files[0])
            stdout = ""
        return self._cli_outputs(argv_verb, 0, stdout, files).payload


# -- measuring ----------------------------------------------------------------


@dataclass
class Pass:
    busy_s: float = 0.0  # wall time of every operation
    busy_ref_s: float = 0.0  # the same in reference seconds
    op_s: list = field(default_factory=list)  # reference seconds per operation; None where it failed
    op_ticks: list = field(default_factory=list)
    op_lives: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    parse_us: list = field(default_factory=list)  # (input index, reference us)
    cli_s: dict = field(default_factory=lambda: {"validate": [], "run": []})
    payloads: list = field(default_factory=list)


def run_op(bench: Bench, op, tracer: spans.Tracer | None = None) -> tuple[Outcome | None, float, float]:
    """Run one operation (traced, when `tracer` is given), then check it untraced.

    Returns the outcome (None when the operation failed), its wall time and the
    host-speed scale taken around it; the outcome's times are already scaled.
    """
    bench.attempted += 1
    bench.speed.sample()
    if tracer is not None:
        spans.install(tracer)
    error = None
    start = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # an internal error in the program under test
        error = exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    bench.speed.sample()
    scale = bench.speed.scale()
    if error is not None:
        bench.failed += 1
        _record_failure(bench, op, f"{type(error).__name__}: {error}")
        return None, elapsed, scale
    try:
        out = op.summary(raw)
    except Failure as failure:
        bench.failed += 1
        _record_failure(bench, op, str(failure))
        return None, elapsed, scale
    except Check as mismatch:
        bench.failed += 1
        bench.mismatches.append(str(mismatch))
        return None, elapsed, scale
    bench.attempted += out.units - 1
    out.wall_s *= scale
    if out.parse_us is not None:
        out.parse_us *= scale
    return out, elapsed, scale


def _record_failure(bench: Bench, op: Op, message: str) -> None:
    if bench.items[op.item].known_bad:
        bench.known_failures[message.split(":")[0]] += 1
    elif message not in bench.unexpected:
        bench.unexpected.append(message)


def measure(bench: Bench, ops, seconds: float, traced: spans.Tracer | None = None,
            reparse: bool = False, between=None) -> list[Pass]:
    """Repeat the pass until `seconds` have gone by; always at least one pass.

    With `reparse`, each pass first parses the workload's inputs again, as
    the traced pass must (its parse spans). `between()` runs after each pass, so that probes are spread over the run
    instead of sampling one stretch of the host's varying speed.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if passes and between is not None:
            between()
        p = Pass()
        if reparse:
            bench.speed.sample()
            if traced is not None:
                spans.install(traced)
            start = time.perf_counter()
            bench.parse_inputs()
            elapsed = time.perf_counter() - start
            if traced is not None:
                traced.restore()
            bench.speed.sample()
            p.busy_s += elapsed
            p.busy_ref_s += elapsed * bench.speed.scale()
        for op in ops:
            out, elapsed, scale = run_op(bench, op, traced)
            p.busy_s += elapsed
            p.busy_ref_s += elapsed * scale
            p.op_s.append(None if out is None else (out.wall_s or elapsed * scale))
            p.op_ticks.append(0 if out is None else out.ticks)
            p.op_lives.append(0 if out is None else out.lives)
            if out is None:
                p.digests.append(None)
                p.payloads.append(None)
                continue
            p.digests.append(sha(json.dumps(out.payload, sort_keys=True)))
            p.payloads.append(None if bench.items[op.item].known_bad or passes else out.payload)
            p.counts += out.counts
            if out.parse_us is not None:
                p.parse_us.append((op.item, out.parse_us))
            if out.cli_verb is not None:
                p.cli_s[out.cli_verb].append(out.wall_s)
        passes.append(p)
    return passes


def check_passes(bench: Bench, ops, passes: list[Pass]) -> str:
    """Every pass must repeat the first; CLI outputs must match the API. Returns the digest."""
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        for n, (a, b) in enumerate(zip(first.digests, p.digests)):
            if a is not None and b is not None and a != b:
                bench.failed += 1
                bench.mismatches.append(f"pass {k} operation {n} differs from pass 1")
    for n, op in enumerate(ops):
        if op.verb is not None and first.digests[n] is not None:
            check_cli(bench, op, [first.digests[n]])
    if bench.workload == "mc_quiet":
        for i, cfg in enumerate(bench.cfgs):
            result, _ = sim.run_episode(cfg)
            if first.payloads[i] is not None and result_payload(result) != first.payloads[i][0][0]:
                bench.failed += 1
                bench.mismatches.append(f"{bench.items[i].label}: first life differs from run_episode")
    return sha(json.dumps(first.payloads, sort_keys=True))


def check_golden(bench: Bench, digest: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    expected = golden.get(bench.workload, {}).get(str(bench.seed))
    if expected is not None and expected != digest:
        bench.failed += 1
        bench.mismatches.append(f"digest {digest[:16]} differs from golden {expected[:16]}")


def median(values) -> float:
    """Median, or NaN (which run.py refuses to report) when nothing was measured."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def rate(passes: list[Pass], work: str) -> float:
    """Work per second of a pass: each operation's work over its typical time.

    `work` is "op_ticks" or "op_lives". Each operation contributes its work
    (the same in every pass) and the median of its times over the passes;
    operations that simulate nothing are left out.
    """
    done = elapsed = 0.0
    for k, amount in enumerate(getattr(passes[0], work)):
        times = [p.op_s[k] for p in passes if p.op_s[k] is not None]
        if amount and times:
            done += amount
            elapsed += median(times)
    return done / elapsed if elapsed else float("nan")


class Probes:
    """Samples taken between passes, so that they spread over the run.

    Parse+validate samples and CLI calls serve the workloads whose passes do
    not parse or call the CLI themselves; set-up probes (fresh processes that
    only set up) serve every untraced run. `finish` tops the samples up to
    their minimum counts and checks the CLI outputs against the API.
    """

    def __init__(self, bench: Bench, parse: bool, cli_calls: bool, setups: bool):
        self.bench = bench
        self.parse_slice = PARSE_SLICE if parse else 0
        self.parse_us: list[tuple[int, float]] = []  # (input index, reference us)
        self.next_item = 0
        verbs = ("validate", "run") if cli_calls else ()
        self.cli_ops = [bench._cli_op(0, verb, in_process=False) for verb in verbs]
        self.walls = {"validate": [], "run": []}
        self.digests = {"validate": set(), "run": set()}
        self.setups = setups
        self.setup_s: list[float] = []

    def __call__(self) -> None:
        self.parse(self.parse_slice)
        for _ in range(CLI_SLICE):
            for op in self.cli_ops:
                self.call(op)
        for _ in range(SETUP_SLICE if self.setups else 0):
            self.setup_probe()

    def parse(self, count: int) -> None:
        items = self.bench.items
        times = []
        self.bench.speed.sample(force=True)
        for _ in range(count):
            i = self.next_item
            self.next_item = (i + 1) % len(items)
            start = time.perf_counter()
            scenario.parse_scenario_checked(items[i].text, name=items[i].label)
            times.append((i, time.perf_counter() - start))
        self.bench.speed.sample(force=True)
        scale = self.bench.speed.scale()
        self.parse_us += [(i, t * scale * 1e6) for i, t in times]

    def call(self, op) -> None:
        out, _, _ = run_op(self.bench, op)
        if out is not None:
            self.walls[op.verb].append(out.wall_s)
            self.digests[op.verb].add(sha(json.dumps(out.payload, sort_keys=True)))

    def setup_probe(self) -> None:
        b = self.bench
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", b.workload,
             "--seed", str(b.seed), "--seconds", "0", "--tmp", str(b.tmp), "--setup-only"],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        self.setup_s.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def finish(self) -> None:
        if len(self.parse_us) < PARSE_SAMPLES and self.parse_slice:
            self.parse(PARSE_SAMPLES - len(self.parse_us))
        for op in self.cli_ops:
            for _ in range(CLI_PROBES - len(self.walls[op.verb])):
                self.call(op)
            check_cli(self.bench, op, self.digests[op.verb])
        while self.setups and len(self.setup_s) < SETUP_PROBES:
            self.setup_probe()


def check_cli(bench: Bench, op, digests) -> None:
    i, verb = op.item, op.verb
    try:
        expected = sha(json.dumps(bench.expected_cli(i, verb), sort_keys=True))
    except Exception as exc:  # the API failed where the CLI did not
        expected = f"{type(exc).__name__}: {exc}"
    if set(digests) - {expected}:
        bench.failed += 1
        bench.mismatches.append(f"{bench.items[i].label} {verb}: CLI output differs from the API")


def interpreter_probe(bench: Bench) -> tuple[float, float]:
    """Median time of a bare interpreter and of one that imports foragesim.cli, in reference s."""
    def wall(code: str) -> float:
        times = []
        for _ in range(INTERP_PROBES):
            bench.speed.sample()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           timeout=CLI_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            bench.speed.sample()
            times.append(elapsed * bench.speed.scale())
        return statistics.median(times)

    bare = wall("pass")
    return bare, wall("import foragesim.cli") - bare


def parse_time(samples: list[tuple[int, float]]) -> float:
    """Each input's median parse+validate time, averaged over the inputs.

    The inputs' times differ by up to 1.5x, so the median of all samples
    would jump between the inputs' modes as their shares of the samples shift.
    """
    by_item: dict[int, list[float]] = {}
    for i, t in samples:
        by_item.setdefault(i, []).append(t)
    return statistics.mean(median(times) for times in by_item.values()) if by_item else float("nan")


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def src_lines() -> dict:
    import importlib

    out = {}
    for name in MODULES:
        module = importlib.import_module(f"foragesim.{name}")
        out[f"{name}.src_lines"] = len(Path(module.__file__).read_text().splitlines())
    return out


def layer_metrics(t: spans.Tracer, traced: list[Pass], untraced: list[Pass]) -> dict:
    """Per-layer numbers per traced pass from the span totals, times in reference us."""
    passes = len(traced)
    scale = sum(p.busy_ref_s for p in traced) / sum(p.busy_s for p in traced)
    c, n = t.calls, t.counts
    us = lambda *names: sum(t.self_ns[x] for x in names) * scale / passes / 1e3  # noqa: E731
    per = lambda v: v / passes  # noqa: E731
    ticks = c["energy.discharge"]
    sim_self = us("sim.episode", "sim.mc", "sim.behaviour") * passes
    layers = [name for name in t.self_ns if not name.startswith("bench.")]
    return {
        "statemachine.dispatch_calls": per(c["statemachine.dispatch"]),
        "statemachine.dispatch_self_us": us("statemachine.dispatch"),
        "statemachine.transitions": per(n["statemachine.transitions"]),
        "statemachine.restarts": per(c["statemachine.start"] - c["sim.episode"]),
        "statemachine.useful_dispatch_ratio":
            n["statemachine.useful_dispatches"] / c["statemachine.dispatch"] if c["statemachine.dispatch"] else 0.0,
        "statemachine.self_us": us("statemachine.dispatch", "statemachine.start"),
        "energy.discharge_calls": per(ticks),
        "energy.discharge_us": us("energy.discharge"),
        "energy.charge_calls": per(c["energy.charge"]),
        "energy.charge_us": us("energy.charge"),
        "energy.threshold_events": per(n["energy.threshold_events"]),
        "energy.mood_us": us("energy.mood"),
        "energy.self_us": us("energy.discharge", "energy.charge", "energy.mood", "energy.gain",
                             "energy.threshold"),
        "weights.select_calls": per(c["weights.select"]),
        "weights.select_us": us("weights.select"),
        "weights.rng_draws": per(n["weights.rng_draws"]),
        "weights.record_calls": per(c["weights.record"]),
        "weights.record_us": us("weights.record"),
        "weights.save_calls": per(c["weights.save"]),
        "weights.save_us": us("weights.save"),
        "weights.load_calls": per(c["weights.load"]),
        "weights.load_us": us("weights.load"),
        "weights.csv_bytes": per(n["weights.csv_bytes"]),
        "weights.self_us": us("weights.select", "weights.record", "weights.save", "weights.load"),
        "world.sense_calls": per(c["world.sense"]),
        "world.sense_us": us("world.sense"),
        "world.move_calls": per(c["world.move"]),
        "world.move_us": us("world.move"),
        "world.field_evals": per(c["world.field"]),
        "world.self_us": us("world.sense", "world.move", "world.field"),
        "sim.ticks": per(ticks),
        "sim.lives": per(n["sim.lives"]),
        "sim.deaths": per(n["sim.deaths"]),
        "sim.recharges_station": per(n["sim.recharges_station"]),
        "sim.recharges_wireless": per(n["sim.recharges_wireless"]),
        "sim.choices": per(n["sim.choices"]),
        "sim.self_us_per_tick": sim_self / ticks if ticks else 0.0,
        "sim.idle_tick_ratio": (ticks - c["sim.behaviour"]) / ticks if ticks else 0.0,
        "sim.trace_rows_built": per(c["sim.trace_build"]),
        "sim.trace_build_us": us("sim.trace_build"),
        "sim.trace_rows_kept_ratio":
            n["sim.trace_rows_written"] / c["sim.trace_build"] if c["sim.trace_build"] else 0.0,
        "sim.trace_write_us": us("sim.trace_write"),
        "sim.trace_bytes": per(n["sim.trace_bytes"]),
        "sim.self_us": us("sim.episode", "sim.mc", "sim.behaviour", "sim.trace_build",
                          "sim.trace_write", "sim.stats_write"),
        "scenario.parse_calls": per(c["scenario.parse"]),
        "scenario.parse_us": us("scenario.parse"),
        "scenario.serialize_us": us("scenario.serialize"),
        "scenario.diagnostics": per(n["scenario.diagnostics"]),
        "scenario.self_us": us("scenario.parse", "scenario.serialize"),
        "cli.self_us": us("cli.main"),
        # the layers' calibrated self time over the untraced time of the same pass
        "bench.accounted_ratio": us(*layers) / 1e6 / median(p.busy_ref_s for p in untraced),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    bench = Bench(args.workload, args.seed, args.tmp)
    setup_s = bench.setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"setup_s": setup_s}
    cli_workload = args.workload == "scenario_cli"
    if args.trace == 0:
        ops = bench.ops(in_process_cli=False)
        probes = Probes(bench, parse=not cli_workload, cli_calls=not cli_workload, setups=True)
        passes = measure(bench, ops, args.seconds, between=probes)
        probes.finish()
        if cli_workload:
            parse_us = [x for p in passes for x in p.parse_us]
            walls = {verb: [x for p in passes for x in p.cli_s[verb]] for verb in ("validate", "run")}
        else:
            parse_us, walls = probes.parse_us, probes.walls
        report["setup_s"] = median([setup_s, *probes.setup_s])
        metrics = {
            "ticks_per_s": rate(passes, "op_ticks"),
            "episodes_per_s": rate(passes, "op_lives"),
            "parse_validate_us": parse_time(parse_us),
            "cli_validate_s": median(walls["validate"]),
            "cli_run_s": median(walls["run"]),
        }
        report["samples"] = {
            "passes": len(passes),
            "parse_validate_us_p99": percentile([t for _, t in parse_us], 0.99),
            "parse_validate_n": len(parse_us),
            "cli_validate_n": len(walls["validate"]),
            "cli_run_n": len(walls["run"]),
            "setup_n": 1 + len(probes.setup_s),
            "kernel_ms_median": median(bench.speed.all) * 1e3,
        }
    else:
        ops = bench.ops(in_process_cli=True)
        half = args.seconds / 2
        probes = Probes(bench, parse=not cli_workload, cli_calls=False, setups=False)
        untraced = measure(bench, ops, half, reparse=True, between=probes)
        probes.finish()
        parse_us = [x for p in untraced for x in p.parse_us] if cli_workload else probes.parse_us
        tracer = spans.Tracer()
        traced = measure(bench, ops, half, traced=tracer, reparse=True)
        passes = untraced
        metrics = layer_metrics(tracer, traced, untraced)
        metrics["bench.trace_overhead_ratio"] = (
            rate(traced, "op_ticks") / rate(untraced, "op_ticks"))
        metrics["scenario.parse_validate_us_p99"] = percentile([t for _, t in parse_us], 0.99)
        metrics["scenario.parse_validate_samples"] = len(parse_us)
        metrics["cli.interp_start_s"], metrics["cli.import_s"] = interpreter_probe(bench)
        metrics.update(src_lines())
        if traced[0].digests != untraced[0].digests:
            bench.failed += 1
            bench.mismatches.append("traced pass differs from untraced pass")

    digest = check_passes(bench, ops, passes)
    check_golden(bench, digest)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.update(
        metrics=metrics,
        attempted=bench.attempted,
        failed=bench.failed,
        correct=not bench.mismatches and not bench.unexpected,
        digest=digest,
        counts=dict(sorted(passes[0].counts.items())),
        mismatches=bench.mismatches[:10],
        unexpected_failures=bench.unexpected[:10],
        known_bad_failures=dict(bench.known_failures),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
