#!/usr/bin/env python3
"""Layered solver benchmark for the Snowflake HPGMG reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload vcycle-gsrb-128 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The script builds the `perfbench-worker` binary from source (its own cargo
package in this directory), then measures every implementation of the
workload -- hand, seq, omp, oclsim, cjit -- each in its own child process,
in an order drawn from the seed. With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Run conditions,
every raw sample and the gate verdicts go to a human-readable summary on
the preceding lines and to .perfbench/results/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

IMPLS = ["hand", "seq", "omp", "oclsim", "cjit"]
BACKENDS = ["seq", "omp", "oclsim", "cjit"]
KINDS = ["smooth", "bottom", "residual", "restrict", "interp"]
LEVEL_BUCKETS = ["L0", "L1", "L2plus"]
STAGES = ["lower", "specialize", "emit_c", "verify", "lint"]

# Whole-run deadline: the contract allows 180 s per run after the build.
RUN_DEADLINE_S = 170.0
# Timed set-ups per Snowflake solver in an end-to-end run (median reported).
SETUPS = 3
# Timed solve rounds even when the measuring window is spent.
MIN_ROUNDS = 3
# Each implementation solves for this long per round (at least once), so
# every implementation gets an equal share of the measuring window and
# fast ones collect many samples.
SLICE_S = 0.8
# A solve during which the hypervisor stole more than this share of the
# CPU time (/proc/stat `steal`) is left out of the medians: on a shared
# 2-vCPU guest, steal bursts slowed the two-thread implementations by up
# to 4x for tens of seconds. Every sample stays in the record.
STEAL_LIMIT = 0.05
MIN_CLEAN = 3
# The measuring window grows by up to this much while an implementation
# still has fewer than MIN_CLEAN clean solves.
EXTEND_S = 25.0

# Correctness gate. cjit runs the same left-fold arithmetic as seq through
# a C compiler; hand is an independent implementation whose rounding
# differs, so it is compared only above the round-off floor.
CJIT_REL_TOL = 1e-12
HAND_REL_TOL = 1e-6
HAND_FLOOR = 1e-10  # relative to the initial residual norm


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def metric_table(spec, trace):
    """[(name, unit)] of the metrics a run reports."""
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def per_layer_names():
    """Every per-layer metric name this script emits, in report order."""
    names = []
    names += [f"op_s.{k}.{b}" for k in KINDS for b in BACKENDS]
    names += [f"level_s.{lv}.{b}" for lv in LEVEL_BUCKETS for b in BACKENDS]
    for prefix in ["smooth_L0_gbs", "smooth_L0_roofline_frac", "spec_hit_rate",
                   "op_call_us.bottom", "parallel_tasks_per_cycle",
                   "phases_per_cycle", "hpgmg_self_s", "compile_s.backend",
                   "trace_overhead_s"]:
        names += [f"{prefix}.{b}" for b in BACKENDS]
    names += [f"compile_s.{s}" for s in STAGES]
    names += [f"op_calls_per_cycle.{k}" for k in KINDS]
    names += ["points_per_cycle", "forkjoin_us", "stream_gbs",
              "cjit_cc_calls", "cjit_disk_hits", "levels_build_s"]
    return names


def end_to_end_names():
    return [f"solve_dof_per_s.{i}" for i in IMPLS] + ["setup_s", "peak_rss_mb"]


# --------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    # Passive wait: libgomp's default active spin starves the rayon-shim
    # threads of the next measurement on a small host.
    env["OMP_WAIT_POLICY"] = "passive"
    env["OMP_NUM_THREADS"] = str(nproc)
    # `cc` and the JIT write their temporary files here, inside the checkout.
    env["TMPDIR"] = os.path.join(STATE, "tmp")
    env.pop("LD_PRELOAD", None)
    return env


class Child:
    """One `perfbench-worker serve` process: JSON commands in, one JSON
    reply line out. Any crash, signal, timeout or garbled reply marks the
    child failed and kills its process group."""

    started = []

    def __init__(self, cmd, err_path):
        os.makedirs(os.path.dirname(err_path), exist_ok=True)
        self.err_path = err_path
        self.err = open(err_path, "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, start_new_session=True)
        self.buf = b""
        self.failure = None
        Child.started.append(self)

    def request(self, command, timeout):
        if self.failure is not None:
            return None
        try:
            self.proc.stdin.write((command + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            return self.fail(self.exit_note())
        return self.read(timeout)

    def read(self, timeout):
        deadline = time.monotonic() + max(1.0, timeout)
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return self.fail(f"timed out after {max(1.0, timeout):.0f} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return self.fail(self.exit_note())
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError:
            return self.fail("unparseable reply")

    def exit_note(self):
        try:
            rc = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            return "closed its output but did not exit"
        if rc < 0:
            return f"killed by signal {signal.Signals(-rc).name}"
        return f"exit code {rc}"

    def fail(self, why):
        self.failure = why
        self.kill()
        return None

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()

    def close(self):
        """End the child's input, wait for it to exit (killing it after
        10 s) and release it. A non-zero exit after its last reply still
        marks it failed."""
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass
        try:
            rc = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            rc = None
        self.kill()
        self.err.close()
        if self.failure is None and rc != 0:
            self.failure = "did not exit" if rc is None else self.exit_note()

    def stderr_tail(self):
        try:
            with open(self.err_path) as f:
                return f.read()[-2000:]
        except OSError:
            return ""


def build():
    """Build the worker from source; returns its path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               CARGO_HOME=os.path.join(STATE, "cargo-home"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("perfbench: building the worker failed")
        sys.exit(1)
    return os.path.join(target, "release", "perfbench-worker")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between
    (a run condition: it slows the multi-threaded implementations most)."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return (r.stdout or r.stderr).strip().splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unavailable"


def llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        entries = [e for e in os.listdir(base) if e.startswith("index")]
    except OSError:
        return 0
    for entry in entries:
        d = os.path.join(base, entry)
        try:
            with open(os.path.join(d, "level")) as f:
                level = int(f.read())
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            best = max(best, (level, int(size.rstrip("KMG")) * mult))
        except (OSError, ValueError, IndexError):
            continue
    return best[1]


SOURCE_TOPS = ["Cargo.toml", "crates", "shims", "perfbench"]


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_TOPS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            if p.endswith((".rs", ".toml", ".py", ".lock")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def source_revision():
    """The git commit of a clean checkout; the commit plus `-dirty` and a
    digest of the sources when they differ from it; the digest alone
    outside git."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            st = subprocess.run(["git", "status", "--porcelain", "--"] + SOURCE_TOPS,
                                cwd=ROOT, capture_output=True, text=True, timeout=10)
            if st.returncode == 0 and not st.stdout.strip():
                return "git:" + lines[1]
            return f"git:{lines[1]}-dirty+{source_digest()}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest()


def conditions(seed, stream):
    llc = llc_bytes()
    array_bytes = int(stream.get("array_bytes", 0)) if stream else 0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": child_env()["OMP_NUM_THREADS"],
        "OMP_WAIT_POLICY": "passive",
        "stream_gbs": stream.get("stream_gbs") if stream else None,
        "stream_array_bytes": array_bytes,
        "llc_bytes": llc,
        "stream_4x_llc_rule_met": bool(llc) and array_bytes >= 4 * llc,
        "cc": first_line(["cc", "--version"]),
        "rustc": first_line(["rustc", "--version"]),
        "revision": source_revision(),
        "seed": seed,
        "client": "one closed-loop solve at a time, one implementation per child process",
    }


# ----------------------------------------------------------------- gating

def floats(history):
    """Residual history from the worker's exact bit patterns."""
    return [struct.unpack(">d", bytes.fromhex(h))[0] for h in history]


def gate(results, trace):
    """Cross-implementation correctness checks. Returns {impl: [reasons]}
    for every implementation that violated one."""
    bad = {}

    def flag(impl, why):
        bad.setdefault(impl, []).append(why)

    ok = {i: r for i, r in results.items() if r is not None and "skipped" not in r}
    for impl, r in ok.items():
        if not r.get("repeats_bitwise_equal", False):
            flag(impl, "timed solves disagree with each other")
        if trace and impl != "hand" and not r.get("traced_bitwise_equal", False):
            flag(impl, "traced run differs from the untraced run")
    rust = [b for b in ["seq", "omp", "oclsim"] if b in ok]
    ref = rust[0] if rust else None
    if ref:
        for b in rust[1:]:
            if ok[b]["history"] != ok[ref]["history"]:
                flag(b, f"residual history not bitwise equal to {ref}")
        if "cjit" in ok:
            for c, s in zip(floats(ok["cjit"]["history"]), floats(ok[ref]["history"])):
                if abs(c - s) > CJIT_REL_TOL * abs(s):
                    flag("cjit", f"residual {c!r} not within {CJIT_REL_TOL} of {ref} {s!r}")
                    break
    if "hand" in ok:
        hand = floats(ok["hand"]["history"])
        for b in BACKENDS:
            if b not in ok:
                continue
            snow = floats(ok[b]["history"])
            if len(snow) != len(hand):
                flag(b, "history length differs from hand")
                continue
            for h, s in zip(hand, snow):
                if abs(h) > HAND_FLOOR * abs(hand[0]) and abs(s - h) > HAND_REL_TOL * abs(h):
                    flag(b, f"residual {s!r} does not track hand {h!r}")
                    break
    count_keys = ["points_per_op"] if not trace else ["points_per_cycle", "op_calls_per_cycle"]
    snow_ok = [b for b in BACKENDS if b in ok]
    for key in count_keys:
        if snow_ok:
            base = ok[snow_ok[0]].get(key)
            for b in snow_ok[1:]:
                if ok[b].get(key) != base:
                    flag(b, f"{key} differs from {snow_ok[0]}")
    if trace:
        for b in snow_ok:
            r = ok[b]
            if r.get("points_per_cycle") != r.get("points_counted_per_cycle"):
                flag(b, "kernel points counted by the backend differ from the plan's")
    return bad


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or (None, None) below 20 samples, where it would not
    lie above the median."""
    n = len(xs)
    if n < 20:
        return None, None
    return sorted(xs)[n - 11], 100.0 * (n - 10) / n


def steal_pairs(r):
    """(steal share, seconds) per solve; a solve without a /proc/stat
    reading counts as unperturbed."""
    steal = r.get("steal") or [None] * len(r["solve_s"])
    return [(st or 0.0, s) for s, st in zip(r["solve_s"], steal)]


def clean_count(r):
    return sum(1 for st, _ in steal_pairs(r) if st <= STEAL_LIMIT)


def clean_solves(r):
    """Solve times measured while the hypervisor stole at most STEAL_LIMIT
    of the CPU time; when fewer than MIN_CLEAN were, the least-stolen half
    of all solves."""
    pairs = steal_pairs(r)
    clean = [s for st, s in pairs if st <= STEAL_LIMIT]
    if len(clean) >= MIN_CLEAN:
        return clean
    pairs.sort()
    return [s for _, s in pairs[:(len(pairs) + 1) // 2]]


def solve_stats(results):
    """Median and tail of each implementation's solve time, with counts."""
    stats = {}
    for impl, r in results.items():
        if r and r.get("solve_s"):
            xs = clean_solves(r)
            t, q = tail(xs)
            stats[impl] = {"n": len(r["solve_s"]), "n_used": len(xs),
                           "median_s": median(xs), "tail_s": t, "tail_percentile": q}
    return stats


def end_to_end(results, wl_dof):
    m = {}
    for impl in IMPLS:
        r = results.get(impl)
        if r and r.get("solve_s"):
            m[f"solve_dof_per_s.{impl}"] = wl_dof / median(clean_solves(r)) / 1e6
    setups = [median(results[b]["setup_s"]) for b in BACKENDS
              if results.get(b) and "setup_s" in results[b]]
    if len(setups) == len(BACKENDS):
        m["setup_s"] = sum(setups)
    rss = [r["vmhwm_kb"] for r in results.values() if r and r.get("vmhwm_kb")]
    if rss:
        m["peak_rss_mb"] = max(rss) / 1024.0
    return m


def per_layer(results, probes):
    m = {}
    stream = probes.get("stream", {}).get("stream_gbs")
    for b in BACKENDS:
        r = results.get(b)
        if not r or "op_s" not in r:
            continue
        for k in KINDS:
            m[f"op_s.{k}.{b}"] = r["op_s"][k]
        for lv in LEVEL_BUCKETS:
            m[f"level_s.{lv}.{b}"] = r["level_s"][lv]
        per_solve_bytes = r["smooth_l0_bytes"]
        gbs = per_solve_bytes / r["smooth_l0_s"] / 1e9 if r["smooth_l0_s"] > 0 else None
        m[f"smooth_L0_gbs.{b}"] = gbs
        if gbs is not None and stream:
            m[f"smooth_L0_roofline_frac.{b}"] = gbs / stream
        runs = r["spec_hits"] + r["spec_misses"]
        m[f"spec_hit_rate.{b}"] = r["spec_hits"] / runs if runs else 0.0
        m[f"op_call_us.bottom.{b}"] = r["bottom_call_s"] * 1e6
        m[f"parallel_tasks_per_cycle.{b}"] = r["parallel_tasks_per_cycle"]
        m[f"phases_per_cycle.{b}"] = r["phases_per_cycle"]
        m[f"hpgmg_self_s.{b}"] = r["hpgmg_self_s"]
        m[f"compile_s.backend.{b}"] = r["compile_backend_s"]
        m[f"trace_overhead_s.{b}"] = median(r["traced_solve_s"]) - median(r["solve_s"])
    seq = results.get("seq") or {}
    for s in STAGES:
        if "compile_stage_s" in seq:
            m[f"compile_s.{s}"] = seq["compile_stage_s"][s]
    ref = next((results[b] for b in BACKENDS if results.get(b) and "op_calls_per_cycle" in results[b]), None)
    if ref:
        for k in KINDS:
            m[f"op_calls_per_cycle.{k}"] = ref["op_calls_per_cycle"][k]
        m["points_per_cycle"] = ref["points_per_cycle"]
    if "levels_build_s" in seq:
        m["levels_build_s"] = seq["levels_build_s"]
    cj = results.get("cjit") or {}
    if "disk_misses" in cj:
        m["cjit_cc_calls"] = cj["disk_misses"]
        m["cjit_disk_hits"] = cj["disk_hits"]
    if "forkjoin_us" in probes.get("forkjoin", {}):
        m["forkjoin_us"] = probes["forkjoin"]["forkjoin_us"]
    if stream:
        m["stream_gbs"] = stream
    return m


# -------------------------------------------------------------------- run

def run_workload(worker, workload, seed, seconds, trace, spec):
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    attempted, failed = 0, 0
    notes = {}

    def remaining():
        return deadline - time.monotonic()

    probes, results = {}, {}
    probe_cmds = {"stream": [worker, "stream"]}
    if trace:
        probe_cmds["forkjoin"] = [worker, "forkjoin"]
    for name, cmd in probe_cmds.items():
        attempted += 1
        probe = Child(cmd, os.path.join(STATE, "logs", f"probe-{name}.err"))
        res = probe.read(min(60.0, remaining()))
        probe.close()
        if probe.failure is None:
            probes[name] = res
        else:
            failed += 1
            notes[name] = probe.failure
            log(f"perfbench: probe {name} failed: {probe.failure}\n{probe.stderr_tail()}")

    rng = random.Random(seed)
    order = IMPLS[:]
    rng.shuffle(order)
    children = {}
    for impl in order:
        cmd = [worker, "serve", "--workload", workload, "--impl", impl, "--state", STATE]
        if trace and impl != "hand":
            cmd.append("--trace")
        child = Child(cmd, os.path.join(STATE, "logs", f"{workload}-{impl}.err"))
        hello = child.read(min(60.0, remaining()))
        if hello is not None and "skipped" in hello:
            notes[impl] = "skipped: " + hello["skipped"]
            child.close()
            continue
        attempted += 1
        children[impl] = child
        results[impl] = dict(hello or {}, setup_s=[], solve_s=[], hist=[],
                             traced_solve_s=[], thist=[], steal=[])

    def alive():
        return [i for i in order if i in children and children[i].failure is None]

    def ask(impl, command, reserve):
        ticks = cpu_ticks()
        reply = children[impl].request(command, remaining() - reserve)
        if reply is None:
            return None
        r = results[impl]
        for key, value in reply.items():
            if key in ("setup_s", "s", "h", "ts", "th"):
                continue
            r[key] = value
        if "setup_s" in reply:
            r["setup_s"].append(reply["setup_s"])
        if "s" in reply:
            r["solve_s"].append(reply["s"])
            r["hist"].append(reply["h"])
            r["steal"].append(steal_share(ticks, cpu_ticks()))
        if "ts" in reply:
            r["traced_solve_s"].append(reply["ts"])
            r["thist"].append(reply["th"])
        return reply

    # Set-ups (interleaved across implementations), warm-ups, then timed
    # rounds: every implementation solves for one slice per round, in a
    # seeded order, until the measuring window is spent.
    for k in range(1 if trace else SETUPS):
        # The hand solver is not part of setup_s: one set-up is enough.
        for impl in rng.sample(alive(), len(alive())):
            if k == 0 or impl != "hand":
                ask(impl, "setup", 30.0)
    for impl in alive():
        ask(impl, "warmup", 20.0)
    t_measure = time.monotonic()
    rounds, ticks = 0, cpu_ticks()
    while alive() and remaining() > 20.0:
        elapsed = time.monotonic() - t_measure
        if rounds >= MIN_ROUNDS and elapsed >= seconds and (
                elapsed >= seconds + EXTEND_S
                or all(clean_count(results[i]) >= MIN_CLEAN for i in alive())):
            break
        for impl in rng.sample(alive(), len(alive())):
            slice_end = time.monotonic() + SLICE_S
            while ask(impl, "solve", 15.0) is not None and time.monotonic() < slice_end:
                pass
        rounds += 1
    steal = steal_share(ticks, cpu_ticks())
    measured_s = time.monotonic() - t_measure
    for impl in alive():
        ask(impl, "done", 5.0)
    for impl, child in children.items():
        child.close()
        if child.failure is not None:
            failed += 1
            notes[impl] = child.failure
            log(f"perfbench: {impl} failed: {child.failure}\n{child.stderr_tail()}")
            results[impl] = None
        elif not results[impl]["hist"]:
            failed += 1
            notes[impl] = "no timed solve before the run deadline"
            results[impl] = None
        else:
            r = results[impl]
            r["history"] = r["hist"][0]
            r["repeats_bitwise_equal"] = all(h == r["history"] for h in r["hist"])
            if trace and impl != "hand":
                same = r["thist"] + [r["counted_history"]]
                r["traced_bitwise_equal"] = all(h == r["history"] for h in same)

    verdicts = gate(results, trace)
    failed += len(verdicts)
    correct = not verdicts
    dof = int(round(next((r["dof"] for r in results.values() if r and "dof" in r), 0)))
    metrics = per_layer(results, probes) if trace else end_to_end(results, dof)
    table = metric_table(spec, trace)
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in table if metrics.get(name) is not None}
    missing = [name for name, _ in table if name not in report]

    cond = conditions(seed, probes.get("stream"))
    cond["run_seconds"] = seconds
    cond["impl_order"] = order
    cond["rounds"] = rounds
    cond["cpu_steal_share"] = steal
    cond["measured_s"] = measured_s
    cond["wall_s"] = time.monotonic() - t_start
    record = {"workload": workload, "trace": trace, "conditions": cond,
              "correct": correct, "attempted": attempted, "failed": failed,
              "gate": verdicts, "notes": notes, "missing": missing,
              "metrics": report, "solve_stats": solve_stats(results),
              "raw": results, "probes": probes}
    out_dir = os.path.join(STATE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    summarize(record)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": report}


def summarize(record):
    cond = record["conditions"]
    print(f"workload {record['workload']}  trace={int(record['trace'])}  "
          f"seed={cond['seed']}  order={','.join(cond['impl_order'])}")
    print(f"  conditions: nproc={cond['nproc']} OMP_NUM_THREADS={cond['OMP_NUM_THREADS']} "
          f"OMP_WAIT_POLICY={cond['OMP_WAIT_POLICY']} stream={cond['stream_gbs']} GB/s "
          f"(arrays {cond['stream_array_bytes'] >> 20} MiB each, LLC {cond['llc_bytes'] >> 20} MiB, "
          f"4x-LLC rule met: {cond['stream_4x_llc_rule_met']})")
    print(f"  cc: {cond['cc']}  rustc: {cond['rustc']}  {cond['revision']}  "
          f"rounds={cond['rounds']} cpu steal={cond['cpu_steal_share']}")
    for impl, st in record["solve_stats"].items():
        tail_txt = (f"p{st['tail_percentile']:.0f} {st['tail_s'] * 1e3:.1f} ms"
                    if st["tail_s"] is not None else "tail n/a (<20 samples)")
        print(f"  {impl:6s} solve median {st['median_s'] * 1e3:9.2f} ms  {tail_txt}  "
              f"n={st['n_used']} of {st['n']}")
    for name, v in record["metrics"].items():
        print(f"  {name:34s} {v['value']:.6g} {v['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"gate {'PASS' if record['correct'] else 'FAIL'}")
    for impl, why in record["gate"].items():
        print(f"    gate {impl}: {'; '.join(why)}")
    for impl, why in record["notes"].items():
        print(f"    note {impl}: {why}")
    if record["missing"]:
        print(f"    missing metrics: {', '.join(record['missing'])}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log("perfbench: no solver sources next to the benchmark; nothing to build")
        sys.exit(1)
    os.makedirs(STATE, exist_ok=True)
    worker = build()
    workloads = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads:
        try:
            res = run_workload(worker, wl, args.seed, args.seconds, bool(args.trace), spec)
        finally:
            # Whatever happened, no worker outlives the run.
            for child in Child.started:
                child.close()
        if len(workloads) == 1:
            combined = res
            break
        print(json.dumps(res))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, v in res["metrics"].items():
            combined["metrics"][f"{wl}/{name}"] = v
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
