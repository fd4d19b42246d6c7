#!/usr/bin/env python3
"""perfbench: what an operator waits for on the wan-paper fixture.

Three workloads drive the shipped `hoyan` binary the way an operator does,
from this single generator process, on a fixture made by
`hoyan gen --size wan-paper --seed <seed>`:

  wan-paper-sweep    `hoyan sweep <dir> --k 1 --threads <nproc>`, default options
  wan-paper-oneshot  a seeded list of one-shot `verify` / `packet` / `scope` queries
  wan-paper-serve    `hoyan serve <dir> --k 1 --workers 2`: one closed-loop reader
                     of `reach` requests, one writer pushing two `whatif` edits

Usage (from the root of a hoyan checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke [--workload NAME] [--trace 0|1]

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, and the spans of the run are written under `.bench_work/`.
`--smoke` runs one pass of each workload on `--size small` and prints one
such object per workload, keyed by name. perfbench/README.md explains the
metrics and the layers they are split into.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("wan-paper-sweep", "wan-paper-oneshot", "wan-paper-serve")
DEFAULT_SEED = 42
K = 1
NPROC = len(os.sched_getaffinity(0))
SERVE_WORKERS = 2
# Reads the serve reader completes before the writer pushes its first edit.
WARMUP_READS = 300
# One read in this many asks for k=2, which the resident k=1 cache cannot
# answer, so the daemon simulates the family.
MISS_EVERY = 200
# The reader's pause between a reply and its next request: it keeps the
# reader from taking a whole core away from the daemon while it pushes. The
# read rate is taken from the time spent waiting on replies, so the pause
# does not enter it.
READ_GAP_S = 0.005
# Fixture loads per sweep or oneshot run; `setup_s` is their median. (A
# serve run's set-up is its three daemon start-ups.) The host's speed moves
# in steps of a fraction of a second, so the loads are spread over about two
# seconds instead of run back to back.
LOADS = 21
LOAD_GAP_S = 0.1
ONESHOT_QUERIES = 6
# Seeds of a oneshot run's extra fixtures: seed + i * stride.
FIXTURE_SEED_STRIDE = 1_000_003
TIMEOUT_S = 170
# Recorded sweep report digests, by fixture size and seed.
EXPECTED = os.path.join(BENCH, "expected.json")


class BenchError(Exception):
    """A failure that leaves no result to report (build, fixture, daemon)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def target_dir():
    # A relative CARGO_TARGET_DIR is taken from the checkout root.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds `hoyan` and the in-process probe from this checkout."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError(f"{ROOT} is not a hoyan checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    probe_manifest = os.path.join(BENCH, "probe", "Cargo.toml")
    for extra in (["--bin", "hoyan"], ["--manifest-path", probe_manifest]):
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "hoyan"), os.path.join(release, "perfbench-probe")


class Child:
    """One `hoyan` process: its output lines with arrival times, exit code
    and peak resident memory."""

    def __init__(self, argv, log_path):
        self.t0 = time.perf_counter()
        self.errlog = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.errlog, stdin=subprocess.DEVNULL
        )
        self.lines = []  # (seconds since spawn, bytes)
        self.rc = None
        self.rss_mb = 0.0

    def readline(self):
        line = self.proc.stdout.readline()
        if line:
            self.lines.append((time.perf_counter() - self.t0, line))
        return line

    def finish(self, timeout=TIMEOUT_S):
        """Reads the rest of stdout, reaps the process and returns the
        seconds from spawn until exit with every line read."""
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            while self.readline():
                pass
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.errlog.close()
        wall = time.perf_counter() - self.t0
        self.proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        return wall

    def kill(self):
        if self.rc is None:
            self.proc.kill()
            self.finish()


def run_child(argv, log_path):
    c = Child(argv, log_path)
    return c, c.finish()


def probe(probe_bin, request, log_path):
    with open(log_path, "ab") as err:
        out = subprocess.run(
            [probe_bin], input=json.dumps(request).encode(), stdout=subprocess.PIPE,
            stderr=err, timeout=TIMEOUT_S,
        )
    if out.returncode != 0:
        raise BenchError(f"probe {request['cmd']} failed (see {log_path})")
    return json.loads(out.stdout)


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(xs):
    """The highest of p99 and p90 with at least ten samples beyond it; the
    median when there are too few samples for either."""
    for q in (0.99, 0.9):
        if len(xs) * (1 - q) >= 10:
            return quantile(xs, q)
    return statistics.median(xs)


class Run:
    """State shared by the workloads: binaries, fixture, seeded choices,
    operations attempted and the set of operations that failed."""

    def __init__(self, hoyan, probe_bin, workload, seed, seconds, size, expected):
        self.hoyan, self.probe_bin = hoyan, probe_bin
        self.workload, self.seed, self.seconds, self.size = workload, seed, seconds, size
        self.expected = expected
        self.rng = random.Random(f"{workload}/{seed}")
        self.dir = os.path.join(WORK, f"{workload}-{size}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.errlog = os.path.join(self.dir, "stderr.log")
        self.attempted = 0
        self.lock = threading.Lock()  # the serve reader counts operations too
        self.failures = {}  # operation id -> first reason
        self.spans = []  # benchmark-side spans: name, parent, start_s, end_s
        self.t0 = time.perf_counter()

    def op(self):
        with self.lock:
            self.attempted += 1
            return self.attempted

    def fail(self, op, reason):
        with self.lock:
            if op not in self.failures:
                log(f"operation {op} failed: {reason}")
                self.failures[op] = reason

    def span(self, name, start, end):
        self.spans.append({"name": name, "parent": None, "start_s": start - self.t0,
                           "end_s": end - self.t0})

    def gen(self, into, seed):
        """Writes the seeded fixture."""
        run_child([self.hoyan, "gen", into, "--size", self.size, "--seed", str(seed)],
                  self.errlog)
        if not os.path.isdir(into) or not os.listdir(into):
            raise BenchError(f"hoyan gen wrote nothing to {into}")

    def fixtures(self, seeds):
        """Generates one fixture per seed; the first is the run's main
        fixture. Every wan-paper seed yields the same device names and
        prefixes, so its facts hold for all."""
        self.fixture_dirs = []
        for i, seed in enumerate(seeds):
            d = os.path.join(self.dir, f"fixture{i}")
            self.gen(d, seed)
            self.fixture_dirs.append(d)
        self.fixture_dir = self.fixture_dirs[0]
        self.facts = probe(self.probe_bin, {"cmd": "facts", "dir": self.fixture_dir},
                           self.errlog)

    def load_setup(self):
        """The CLI workloads' set-up: `hoyan diff <dir> <dir>` loads and
        parses every file of a fixture and must find nothing changed; done
        LOADS times over the run's fixtures. Returns the median seconds.
        `hoyan gen` is not timed: its cost is file creation, whose median
        moved by more than half between sets of runs on one host."""
        walls = []
        for i in range(LOADS):
            d = self.fixture_dirs[i % len(self.fixture_dirs)]
            c, wall = run_child([self.hoyan, "diff", d, d], self.errlog)
            if c.rc != 0 or not any(b"all clean" in l for _, l in c.lines):
                raise BenchError(f"hoyan diff of {d} with itself exited {c.rc}")
            walls.append(wall)
            time.sleep(LOAD_GAP_S)
        return statistics.median(walls)

    def oracle(self, d, queries):
        return probe(self.probe_bin, {"cmd": "oracle", "dir": d, "queries": queries},
                     self.errlog)["answers"]

    def layers(self, queries, edits=()):
        req = {"cmd": "layers", "dir": self.fixture_dir, "k": K, "threads": NPROC,
               "queries": queries, "edits": list(edits)}
        start = time.perf_counter()
        out = probe(self.probe_bin, req, self.errlog)
        base = start - self.t0
        offset = len(self.spans)
        for s in out["spans"]:
            self.spans.append({
                "name": s["name"],
                "parent": None if s["parent"] is None else s["parent"] + offset,
                "start_s": s["start_s"] + base, "end_s": s["end_s"] + base,
            })
        return out["metrics"]

    def cli_trace_flags(self, tag):
        """Tracing flags for a CLI child; its outputs land in the run dir."""
        return ["--stats-json", os.path.join(self.dir, f"{tag}.stats.json"), "--timing",
                "--trace", os.path.join(self.dir, f"{tag}.trace.json")]

    def write_trace(self, metrics):
        """Writes the benchmark's spans (with self times) and the CLI
        children's stats to one file, kept after the run."""
        children = {i: 0.0 for i in range(len(self.spans))}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end_s"] - s["start_s"]
        for i, s in enumerate(self.spans):
            s["self_s"] = s["end_s"] - s["start_s"] - children[i]
        stats = {}
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(".stats.json"):
                with open(os.path.join(self.dir, name)) as f:
                    stats[name[: -len(".stats.json")]] = json.load(f)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        path = os.path.join(WORK, "traces", f"{self.workload}-{self.size}-{self.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": self.workload, "seed": self.seed, "size": self.size,
                       "spans": self.spans, "cli_stats": stats, "metrics": metrics}, f, indent=1)
        log(f"spans written to {path}")

    def result(self, metrics, units):
        failed = len(self.failures)
        return {
            "correct": failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


# Per-layer metrics of the serve daemon and of `whatif` pushes. The CLI
# workloads run no daemon and push no edit, so these read zero there.
SERVE_LAYERS = ("core.serve.whatif_policy_s", "core.serve.whatif_igp_s",
                "core.serve.cache_hit_ratio", "core.serve.requests", "core.serve.rejected",
                "core.serve.over_budget", "core.serve.reach_miss_ms_p50") + tuple(
    f"{layer}.{edit}" for edit in ("policy", "igp") for layer in (
        "config.diff_s", "core.snapshot.compile_s", "core.snapshot.classify_s",
        "core.snapshot.dirty_share", "core.verify.reverify_s",
        "core.verify.families_recomputed", "core.verify.families_reused"))


# ---------------------------------------------------------------- sweep

REPORT_LINE = re.compile(rb"^  (\S+): not \d+-failure resilient at \[(.*)\]$")
SUMMARY = re.compile(rb"^swept (\d+) prefixes at k=\d+ in ")


def parse_sweep(lines):
    """Returns (summary index, {prefix: [fragile devices]}) of a sweep's
    stdout lines; summary index is None when there is no summary line."""
    summary = next((i for i, (_, l) in enumerate(lines) if SUMMARY.match(l)), None)
    fragile = {}
    for _, line in lines[(summary or 0) + 1:]:
        m = REPORT_LINE.match(line.rstrip(b"\n"))
        if m:
            names = [n.strip().strip('"') for n in m.group(2).decode().split(",")]
            fragile[m.group(1).decode()] = names
    return summary, fragile


def sweep_sample(rng, facts, fragile, n):
    """Seeded (prefix, device) pairs: half on fragile verdicts, half not."""
    pairs = []
    listed = sorted(fragile)
    for _ in range(n // 2):
        if listed:
            p = rng.choice(listed)
            pairs.append((p, rng.choice(fragile[p])))
    for _ in range(100 * n):
        if len(pairs) == n:
            break
        p = rng.choice(facts["prefixes"])
        d = rng.choice(facts["devices"])
        if d not in fragile.get(p, ()):
            pairs.append((p, d))
    return pairs


def check_sweep_sample(pairs, fragile, answers, k=K):
    """Compares sampled sweep verdicts with BatfishLike answers. A device is
    fragile iff some set of at most k failures (but not the empty set)
    breaks its route. Returns the list of disagreements."""
    bad = []
    for (p, d), a in zip(pairs, answers):
        mf = a["min_failures"]
        expect_fragile = mf is not None and 1 <= mf <= k
        if (d in fragile.get(p, ())) != expect_fragile:
            bad.append(f"{p} at {d}: sweep fragile={d in fragile.get(p, ())}, "
                       f"BatfishLike min_failures={mf}")
    return bad


def sweep_workload(run, traced):
    run.fixtures([run.seed])
    setup = run.load_setup()
    argv = [run.hoyan, "sweep", run.fixture_dir, "--k", str(K), "--threads", str(NPROC)]
    sweeps = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < run.seconds:
        op = run.op()
        c, wall = run_child(argv, run.errlog)
        run.span("hoyan sweep", c.t0, c.t0 + wall)
        sweeps.append((op, c, wall))
    measured = time.perf_counter() - start

    n_prefixes = len(run.facts["prefixes"])
    expected = run.expected.get(run.size, {}).get(str(run.seed))
    first_body = None
    latencies, emits, sizes = [], [], []
    for op, c, wall in sweeps:
        summary, fragile = parse_sweep(c.lines)
        body = b"".join(l for _, l in c.lines[(summary or 0) + 1:])
        if c.rc != 0:
            run.fail(op, f"hoyan sweep exited {c.rc}")
        if any(b"QUARANTINED" in l for _, l in c.lines):
            run.fail(op, "QUARANTINED family in the report")
        if summary is None:
            run.fail(op, "no summary line")
            continue
        swept = int(SUMMARY.match(c.lines[summary][1]).group(1))
        if swept != n_prefixes:
            run.fail(op, f"swept {swept} prefixes, the fixture has {n_prefixes}")
        if expected and hashlib.sha256(body).hexdigest() != expected["sweep_body_sha256"]:
            run.fail(op, "report body differs from the recorded digest")
        if first_body is None:
            first_body = body
            pairs = sweep_sample(run.rng, run.facts, fragile, 8)
            answers = run.oracle(run.fixture_dir, [
                {"kind": "route", "prefix": p, "device": d, "k": K} for p, d in pairs])
            for bad in check_sweep_sample(pairs, fragile, answers):
                run.fail(op, "oracle disagrees: " + bad)
        elif body != first_body:
            run.fail(op, "report differs between sweeps of one fixture")
        # Every prefix is one answer: a listed prefix arrives with its line,
        # the others when the process exits.
        line_at = {}
        for t, line in c.lines[summary + 1:]:
            m = REPORT_LINE.match(line.rstrip(b"\n"))
            if m:
                line_at[m.group(1)] = t
        latencies += list(line_at.values()) + [wall] * max(0, swept - len(line_at))
        emits.append(wall - c.lines[summary][0])
        sizes.append(sum(len(l) for _, l in c.lines))

    waits = [w for _, _, w in sweeps]
    e2e = {
        "setup_s": setup,
        "wait_s_p50": statistics.median(waits),
        "answer_ms_p50": 1e3 * quantile(latencies, 0.5) if latencies else measured * 1e3,
        "answer_ms_tail": 1e3 * tail(latencies) if latencies else measured * 1e3,
        "answers_per_s": len(latencies) / sum(waits),
    }
    if traced:
        c, wall = run_child(argv + run.cli_trace_flags("sweep"), run.errlog)
        run.span("hoyan sweep (traced)", c.t0, c.t0 + wall)
        layers = dict.fromkeys(SERVE_LAYERS, 0.0)
        layers.update(run.layers(oneshot_queries(run)))
        emit = statistics.median(emits)
        layers.update({
            "process.peak_rss_mb": statistics.median(c.rss_mb for _, c, _ in sweeps),
            "report.emit_s": emit,
            "report.bytes": statistics.median(sizes),
            "e2e.trace_overhead_s": wall - e2e["wait_s_p50"],
            "e2e.residual_s": e2e["wait_s_p50"] - emit - sum(layers[n] for n in (
                "config.parse_s", "core.network.model_s", "core.isis.build_s",
                "core.verify.sweep_s")),
        })
        return layers
    return e2e


# ---------------------------------------------------------------- oneshot

def oneshot_queries(run):
    """The run's seeded list of six one-shot queries. Query i asks about
    fixture i when the run has that many fixtures, else the main one."""
    rng = random.Random(f"oneshot/{run.seed}")
    prefixes, devices = run.facts["prefixes"], run.facts["devices"]
    sources = [d for d in devices if d.startswith("MAN")] or devices
    qs = [{"kind": "verify", "prefix": rng.choice(prefixes), "device": rng.choice(devices),
           "k": k} for k in (0, 1, 2, 1)]
    qs.append({"kind": "packet", "prefix": rng.choice(prefixes), "device": rng.choice(sources),
               "k": 1})
    qs.append({"kind": "scope", "prefix": rng.choice(prefixes)})
    rng.shuffle(qs)
    for i, q in enumerate(qs):
        q["dir"] = run.fixture_dirs[i] if i < len(run.fixture_dirs) else run.fixture_dir
    return qs


def query_argv(run, q):
    argv = [run.hoyan, q["kind"], q["dir"], "--prefix", q["prefix"]]
    if q["kind"] == "verify":
        argv += ["--device", q["device"], "--k", str(q["k"])]
    elif q["kind"] == "packet":
        argv += ["--from", q["device"], "--k", str(q["k"])]
    return argv


def parse_verdict(q, text):
    """The answer a one-shot query printed, as comparable values."""
    if q["kind"] == "scope":
        m = re.match(r"(\d+) devices hold a route for \S+:\n", text)
        names = [l.strip() for l in text.splitlines()[1:]]
        return {"devices": names} if m and int(m.group(1)) == len(names) else None
    now = re.search(r"(?:reachable|delivered) now: +(true|false)", text)
    res = re.search(r"resilient to \d+ failures: +(true|false)", text)
    if not now or not res:
        return None
    return {"now": now.group(1) == "true", "resilient": res.group(1) == "true"}


def check_oneshot(q, verdict, answer):
    """Compares one query's verdict with the BatfishLike answer; returns a
    reason on disagreement, None on agreement."""
    if q["kind"] == "scope":
        if sorted(verdict["devices"]) != sorted(answer["devices"]):
            return f"scope of {q['prefix']} differs from BatfishLike"
        return None
    mf = answer["min_failures"]
    route_now, route_resilient = mf != 0, mf is None
    if q["kind"] == "verify":
        if (verdict["now"], verdict["resilient"]) != (route_now, route_resilient):
            return (f"verify {q['prefix']} at {q['device']} k={q['k']}: {verdict}, "
                    f"BatfishLike min_failures={mf}")
        return None
    # A packet needs the route at its source: delivered now implies a route
    # now, and k-resilient delivery implies a k-resilient route.
    if (verdict["now"] and not route_now) or (verdict["resilient"] and not route_resilient):
        return (f"packet {q['device']} -> {q['prefix']} k={q['k']}: {verdict}, but BatfishLike "
                f"min_failures={mf} for the route at the source")
    return None


def oracle_query(q):
    """The BatfishLike question behind a one-shot query."""
    if q["kind"] == "scope":
        return {"kind": "scope", "prefix": q["prefix"]}
    return {"kind": "route", "prefix": q["prefix"], "device": q["device"], "k": q["k"]}


def oneshot_workload(run, traced):
    # Six fixtures, one per query: a verdict's cost is mostly the compile of
    # its fixture, so the median spans six seeded topologies, not one.
    run.fixtures([run.seed + i * FIXTURE_SEED_STRIDE for i in range(ONESHOT_QUERIES)])
    setup = run.load_setup()
    queries = oneshot_queries(run)
    done = []  # (op, query index, child, wall)
    start = time.perf_counter()
    while len(done) < len(queries) or time.perf_counter() - start < run.seconds:
        i = len(done) % len(queries)
        op = run.op()
        c, wall = run_child(query_argv(run, queries[i]), run.errlog)
        run.span(f"hoyan {queries[i]['kind']}", c.t0, c.t0 + wall)
        done.append((op, i, c, wall))
    measured = time.perf_counter() - start

    answers = {i: run.oracle(q["dir"], [oracle_query(q)])[0]
               for i, q in enumerate(queries) if q.get("k", 0) <= 1}
    first, emits, size = {}, [], 0
    for op, i, c, wall in done:
        text = b"".join(l for _, l in c.lines).decode(errors="replace")
        verdict = parse_verdict(queries[i], text)
        if c.rc != 0:
            run.fail(op, f"hoyan {queries[i]['kind']} exited {c.rc}")
        elif verdict is None:
            run.fail(op, f"unreadable answer: {text[:200]!r}")
        elif i in first and text != first[i]:
            run.fail(op, "answer differs between runs of one query")
        elif i in answers:
            bad = check_oneshot(queries[i], verdict, answers[i])
            if bad:
                run.fail(op, "oracle disagrees: " + bad)
        first.setdefault(i, text)
        if c.lines:
            emits.append(wall - c.lines[0][0])
        size += len(text)

    waits = [w for *_, w in done]
    e2e = {
        "setup_s": setup,
        "wait_s_p50": statistics.median(waits),
        "answer_ms_p50": 1e3 * statistics.median(waits),
        "answer_ms_tail": 1e3 * tail(waits),
        "answers_per_s": len(done) / measured,
    }
    if traced:
        # Tracing overhead on the first two queries of the list.
        overhead = []
        for i in range(2):
            c, wall = run_child(query_argv(run, queries[i]) + run.cli_trace_flags(f"query{i}"),
                                run.errlog)
            run.span(f"hoyan {queries[i]['kind']} (traced)", c.t0, c.t0 + wall)
            overhead.append(wall - statistics.median(w for _, j, _, w in done if j == i))
        layers = dict.fromkeys(SERVE_LAYERS, 0.0)
        layers.update(run.layers(queries))
        layers.update({
            "process.peak_rss_mb": statistics.median(c.rss_mb for _, _, c, _ in done),
            "report.emit_s": statistics.median(emits),
            "report.bytes": size,
            "e2e.trace_overhead_s": statistics.mean(overhead),
            # The probe compiles the main fixture, which query 0 asked about.
            "e2e.residual_s": statistics.median(w for _, j, _, w in done if j == 0) - sum(
                layers[n] for n in ("config.parse_s", "core.network.model_s",
                                    "core.isis.build_s", "core.verify.oneshot_query_s")),
        })
        return layers
    return e2e


# ---------------------------------------------------------------- serve

class Conn:
    """One closed-loop client connection to the daemon."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")
        self.bytes = 0

    def ask(self, req):
        """Sends one request line and returns (reply, seconds)."""
        line = (req if isinstance(req, bytes) else json.dumps(req).encode() + b"\n")
        t = time.perf_counter()
        self.sock.sendall(line)
        reply = self.rfile.readline()
        dt = time.perf_counter() - t
        self.bytes += len(reply)
        try:
            return json.loads(reply), dt
        except ValueError:
            return {"ok": False, "error": f"unreadable reply {reply[:100]!r}"}, dt

    def close(self):
        self.rfile.close()
        self.sock.close()


def edit_policy(rng, d):
    """Deletes one seeded `ip prefix-list ... permit` line on one PE.
    Returns (device, new text, prefix of the deleted line)."""
    pes = sorted(f[:-4] for f in os.listdir(d) if f.startswith("PE") and f.endswith(".cfg"))
    for _ in range(len(pes)):
        dev = rng.choice(pes)
        with open(os.path.join(d, dev + ".cfg")) as f:
            lines = f.read().splitlines(keepends=True)
        permits = [i for i, l in enumerate(lines) if re.match(r"ip prefix-list \S+ permit ", l)]
        if permits:
            i = rng.choice(permits)
            prefix = lines[i].split()[-1]
            return dev, "".join(lines[:i] + lines[i + 1:]), prefix
    raise BenchError("no PE carries a prefix-list permit line")


def edit_igp(rng, d):
    """Raises one seeded `link-metric` on one core router by one.
    Returns (device, new text)."""
    crs = sorted(f[:-4] for f in os.listdir(d) if f.startswith("CR") and f.endswith(".cfg"))
    for _ in range(len(crs)):
        dev = rng.choice(crs)
        with open(os.path.join(d, dev + ".cfg")) as f:
            lines = f.read().splitlines(keepends=True)
        metrics = [i for i, l in enumerate(lines) if re.match(r"\s+link-metric \d+\s*$", l)]
        if metrics:
            i = rng.choice(metrics)
            n = int(lines[i].split()[-1])
            lines[i] = lines[i].replace(str(n), str(n + 1))
            return dev, "".join(lines)
    raise BenchError("no core router carries a link-metric line")


def copy_with(src, dst, dev, text):
    shutil.copytree(src, dst)
    with open(os.path.join(dst, dev + ".cfg"), "w") as f:
        f.write(text)


class Daemon:
    """A `hoyan serve` process, started and timed until its banner."""

    def __init__(self, run, d, extra=()):
        self.child = Child([run.hoyan, "serve", d, "--addr", "127.0.0.1:0", "--k", str(K),
                            "--workers", str(SERVE_WORKERS), "--threads", str(NPROC)]
                           + list(extra), run.errlog)
        banner = self.child.readline()
        self.startup = time.perf_counter() - self.child.t0
        m = re.search(rb"listening on (\S+)", banner)
        if not m:
            self.child.kill()
            raise BenchError(f"hoyan serve printed no banner: {banner[:200]!r}")
        self.addr = m.group(1).decode()

    def stop(self):
        """Asks the daemon to shut down and reaps it."""
        try:
            c = Conn(self.addr)
            c.ask({"kind": "shutdown"})
            c.close()
        except OSError:
            self.child.proc.kill()
        self.child.finish(timeout=60)


def answers_of(conn, pairs):
    """The daemon's (reachable now, resilient) answer for each pair at its
    resident k, or the whole reply when it is not ok."""
    out = []
    for p, d in pairs:
        r, _ = conn.ask({"kind": "reach", "prefix": p, "device": d})
        out.append((r.get("reachable_now"), r.get("resilient")) if r.get("ok") else r)
    return out


def expected_answers(run, d, pairs):
    """BatfishLike's (reachable now, resilient at K) for each pair."""
    answers = run.oracle(d, [{"kind": "route", "prefix": p, "device": dev, "k": K}
                             for p, dev in pairs])
    return [(a["min_failures"] != 0, a["min_failures"] is None) for a in answers]


def read_mix(run):
    """The reader's seeded requests, encoded once: (line, off-cache)."""
    rng = random.Random(f"reads/{run.seed}")
    mix = []
    for i in range(4096):
        req = {"kind": "reach", "prefix": rng.choice(run.facts["prefixes"]),
               "device": rng.choice(run.facts["devices"])}
        miss = i % MISS_EVERY == MISS_EVERY - 1
        if miss:
            req["k"] = 2
        mix.append((json.dumps(req).encode() + b"\n", miss))
    return mix


def serve_workload(run, traced):
    run.fixtures([run.seed])
    base = run.fixture_dir
    pe, pe_text, policy_prefix = edit_policy(run.rng, base)
    e1 = os.path.join(run.dir, "edit-policy")
    copy_with(base, e1, pe, pe_text)
    cr, cr_text = edit_igp(run.rng, e1)
    e2 = os.path.join(run.dir, "edit-igp")
    copy_with(e1, e2, cr, cr_text)
    devices, prefixes = run.facts["devices"], run.facts["prefixes"]
    pairs = [(policy_prefix, run.rng.choice(devices)) for _ in range(3)]
    pairs += [(run.rng.choice(prefixes), run.rng.choice(devices)) for _ in range(3)]
    expect = {e1: expected_answers(run, e1, pairs), e2: expected_answers(run, e2, pairs)}

    # Set-up samples: a fresh daemon on each edited directory, whose answers
    # must match BatfishLike's, then the daemon under load on `base`. A
    # traced run reports no set-up and checks only the last directory.
    startups = []
    for d in ((e2,) if traced else (e1, e2)):
        op = run.op()
        daemon = Daemon(run, d)
        try:
            startups.append(daemon.startup)
            c = Conn(daemon.addr)
            got = answers_of(c, pairs)
            c.close()
        finally:
            daemon.stop()
        if got != expect[d]:
            run.fail(op, f"fresh daemon on {os.path.basename(d)} answers {got}, "
                         f"BatfishLike {expect[d]}")
    daemon = Daemon(run, base)
    try:
        startups.append(daemon.startup)
        run.span("hoyan serve startup", daemon.child.t0, daemon.child.t0 + daemon.startup)
        reads, pushes, measured, stats, reply_bytes = serve_load(
            run, daemon, (("policy", pe_text, expect[e1]), ("igp", cr_text, expect[e2])), pairs)
    finally:
        daemon.stop()

    # After the run, a fresh one-shot verify of the edited directory must
    # give the answer the daemon and BatfishLike gave.
    p0, d0 = pairs[0]
    op = run.op()
    c, _ = run_child([run.hoyan, "verify", e2, "--prefix", p0, "--device", d0, "--k", str(K)],
                     run.errlog)
    verdict = parse_verdict({"kind": "verify"}, b"".join(l for _, l in c.lines).decode())
    if c.rc != 0 or verdict is None or (verdict["now"], verdict["resilient"]) != expect[e2][0]:
        run.fail(op, f"fresh verify of {p0} at {d0}: {verdict}, BatfishLike {expect[e2][0]}")
    if stats.get("ok") is not True:
        run.fail(op, f"stats: {stats}")

    if traced:
        # Tracing is priced on one more start-up on `base`, against the
        # untraced start-up of the daemon under load.
        traced_daemon = Daemon(run, base, run.cli_trace_flags("serve"))
        traced_daemon.stop()
        run.span("hoyan serve startup (traced)", traced_daemon.child.t0,
                 traced_daemon.child.t0 + traced_daemon.startup)
        misses = [dt for _, dt, ok, miss in reads if miss and ok]
        edits = [{"name": "policy", "dir": e1}, {"name": "igp", "dir": e2}]
        layers = run.layers(oneshot_queries(run), edits)
        hits, total = stats.get("cache_hits", 0), stats.get("reach", 0)
        layers.update({
            "process.peak_rss_mb": daemon.child.rss_mb,
            "report.emit_s": 0.0,
            "report.bytes": reply_bytes,
            "core.serve.whatif_policy_s": pushes[0],
            "core.serve.whatif_igp_s": pushes[1],
            "core.serve.cache_hit_ratio": hits / total if total else 0.0,
            "core.serve.requests": stats.get("requests", 0),
            "core.serve.rejected": stats.get("rejected", 0),
            "core.serve.over_budget": stats.get("over_budget", 0),
            "core.serve.reach_miss_ms_p50": 1e3 * statistics.median(misses) if misses else 0.0,
            "e2e.trace_overhead_s": traced_daemon.startup - startups[-1],
            "e2e.residual_s": startups[-1] - sum(layers[n] for n in (
                "config.parse_s", "core.network.model_s", "core.isis.build_s",
                "core.verify.sweep_s")),
        })
        return layers
    # A failed read counts as slower than any limit: the whole run. The read
    # rate is replies per second of waiting on them, leaving out the pause.
    lat = [dt if ok else measured for _, dt, ok, _ in reads]
    return {
        "setup_s": statistics.median(startups),
        "wait_s_p50": statistics.median(pushes),
        "answer_ms_p50": 1e3 * quantile(lat, 0.5),
        "answer_ms_tail": 1e3 * tail(lat),
        "answers_per_s": sum(1 for _, _, ok, _ in reads if ok) / (sum(lat) or measured),
    }


def serve_load(run, daemon, edits, pairs):
    """The measured phase on the daemon under load: the reader runs for the
    whole phase; after WARMUP_READS reads the writer pushes each edit and
    checks the daemon's answers against the edit's expected ones. Returns
    (reads, push latencies, phase seconds, stats reply, reply bytes)."""
    mix = read_mix(run)
    reads = []  # (op, seconds, ok, off-cache)
    stop, warm = threading.Event(), threading.Event()
    reader, writer = Conn(daemon.addr), Conn(daemon.addr)

    def read_loop():
        i = 0
        try:
            while not stop.is_set():
                line, miss = mix[i % len(mix)]
                reply, dt = reader.ask(line)
                op = run.op()
                reads.append((op, dt, reply.get("ok") is True, miss))
                if reply.get("ok") is not True:
                    run.fail(op, f"reach: {reply}")
                i += 1
                if i == WARMUP_READS:
                    warm.set()
                time.sleep(READ_GAP_S)
        except OSError as e:
            run.fail(run.op(), f"reader connection: {e}")
        finally:
            warm.set()

    pushes = []
    start = time.perf_counter()
    thread = threading.Thread(target=read_loop)
    thread.start()
    try:
        warm.wait(TIMEOUT_S)
        for name, text, expect in edits:
            op = run.op()
            reply, dt = writer.ask({"kind": "whatif", "configs": [text]})
            now = time.perf_counter()
            run.span(f"whatif {name}", now - dt, now)
            pushes.append(dt)
            if reply.get("ok") is not True or reply.get("quarantined"):
                run.fail(op, f"whatif {name}: {reply}")
            got = answers_of(writer, pairs)
            if got != expect:
                run.fail(op, f"after the {name} push the daemon answers {got}, "
                             f"BatfishLike {expect}")
        while time.perf_counter() - start < run.seconds:
            time.sleep(0.05)
    finally:
        stop.set()
        thread.join()
    measured = time.perf_counter() - start
    stats, _ = writer.ask({"kind": "stats"})
    reply_bytes = reader.bytes + writer.bytes
    reader.close()
    writer.close()
    return reads, pushes, measured, stats, reply_bytes


RUNNERS = {"wan-paper-sweep": sweep_workload, "wan-paper-oneshot": oneshot_workload,
           "wan-paper-serve": serve_workload}


def run_workload(hoyan, probe_bin, workload, seed, seconds, trace, size, expected, spec):
    run = Run(hoyan, probe_bin, workload, seed, seconds, size, expected)
    log(f"{workload} seed={seed} size={size} trace={trace} nproc={NPROC}")
    try:
        metrics = RUNNERS[workload](run, trace)
        kind = "per_layer" if trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if trace:
            run.write_trace(metrics)
        missing = [n for n in units if n not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        return run.result(metrics, units)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of each workload on --size small")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(EXPECTED) as f:
            expected = json.load(f)
        hoyan, probe_bin = build()
        if args.smoke:
            names = [args.workload] if args.workload else list(WORKLOADS)
            out = {w: run_workload(hoyan, probe_bin, w, args.seed, 0, args.trace, "small",
                                   expected, spec) for w in names}
        else:
            out = run_workload(hoyan, probe_bin, args.workload, args.seed, args.seconds,
                               args.trace, "wan-paper", expected, spec)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
