"""pakemail benchmark: one workload per run, or every workload in turn.

    python3 bench/run.py --workload auth-loopback --seed 3 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, default seed and length

Run it from the root of a checkout; it imports ``pakemail`` from ``src/``
and keeps its keystores, maildirs and relay log under ``bench/.work/``,
which it removes when it ends. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
first third of the run is untraced (the baseline for the tracing overhead)
and the rest is traced, and the object carries the per-layer metrics. The
full result, with context fields, goes to ``bench/results/``. Nothing is
printed or written until the output has been checked for secrets.

Exit codes: 0 valid run; 1 a correctness check failed; 2 the output would
have held a secret; 3 the program's source is missing.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("groups", "pake", "confirm", "transport", "relay", "manager",
           "sealed", "analysis", "harness")
REPEATS = 5  # set-ups per run; setup_s is built from medians

# Fresh interpreter: import every layer, derive the group constants and run
# one exponentiation per fixed base, so lazily built state counts as set-up.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from pakemail import {modules}
g = groups.get_group(sys.argv[2])
for base in (g.generator, g.M, g.N):
    g.exp(base, 0x5eed)
""".format(modules=", ".join(MODULES))

CONTEXT_NOTE = ("relay traffic crossed the host loopback interface (127.0.0.1), "
                "not a real link; maildir traffic stayed on the local file system")


# ---------------------------------------------------------------------------
# Secrets the output must never contain
# ---------------------------------------------------------------------------

class SecretSet:
    """Passwords, pi, sk, K and chained keys seen in this run, raw and hex."""

    def __init__(self, pake_module) -> None:
        self._pake = pake_module
        self.fixed: set[bytes] = set()      # 32-byte secrets: sk, K, chained keys, pi
        self.variable: set[bytes] = set()   # passwords and decimal pi

    def add_key(self, key: bytes | None) -> None:
        if key is not None:
            self.fixed.add(bytes(key))

    def add_password(self, password: bytes, group) -> None:
        self.variable.add(password)
        self.variable.add(password.hex().encode())
        # A toy-group pi is one byte below 11 and cannot be told apart from
        # any byte of output; its password is still checked above.
        if group.security_bits >= 128:
            pi = group.scalar_from_password(password, self._pake.password_context(group))
            self.fixed.add(group.scalar_bytes(pi))
            self.variable.add(str(pi).encode())

    def leaks(self, blob: bytes) -> bool:
        lowered = blob.lower()
        raw = self.fixed
        hexed = {k.hex().encode() for k in self.fixed}
        for i in range(len(blob)):
            if blob[i:i + 32] in raw or lowered[i:i + 64] in hexed:
                return True
        return any(s in blob or s in lowered for s in self.variable)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values) -> tuple[str, float] | None:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for name, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(values) * (1 - q) >= 10:
            return name, percentile(values, q)
    return None


def probe_seconds(group_name: str) -> float:
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE, str(SRC), group_name], check=True, cwd=ROOT)
    return time.perf_counter() - start


# The gauge's usual time on the machine the benchmark was tuned on. Gated
# times are scaled to a machine that runs the gauge in this time.
REFERENCE_MS = 5.0


def cpu_reference_ms() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the machine ran."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def run_phase(workload, stats, seconds: float) -> None:
    """Run ops for ``seconds``, timing the reference loop about four times a second.

    The reference loop's time is left out of ``stats.elapsed``.
    """
    start = time.perf_counter()
    end = start + seconds
    next_reference = start
    reference_s = 0.0
    while (now := time.perf_counter()) < end:
        if now >= next_reference:
            stats.cpu_reference_ms.append(cpu_reference_ms())
            reference_s += stats.cpu_reference_ms[-1] / 1e3
            next_reference = now + 0.25
        workload.op(stats)
    stats.elapsed = time.perf_counter() - start - reference_s


def latency_info(prefix: str, samples) -> dict:
    """p50, the highest tail with ten samples beyond it, and the count, in ms."""
    if not samples:
        return {}
    out = {f"{prefix}_p50_ms": (statistics.median(samples) * 1e3, "ms"),
           f"{prefix}_samples": (len(samples), "count")}
    t = tail(samples)
    if t is not None:
        out[f"{prefix}_{t[0]}_ms"] = (t[1] * 1e3, "ms")
    return out


def end_to_end(name: str, stats, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics shared by every workload, and the workload's own figures.

    The gated times are scaled by REFERENCE_MS over the gauge's mean time
    in this run, so that the machine's own drift in speed cancels; the
    unscaled values are reported beside them. The mean, like the gated
    figures, weighs fast and slow stretches of the run by their length.
    """
    ops = stats.samples["op"]
    gauge = statistics.fmean(stats.cpu_reference_ms)
    scale = REFERENCE_MS / gauge
    mean = statistics.fmean(ops) * 1e3 if ops else float("nan")
    rate = stats.ops / stats.elapsed
    gated = {
        "setup_s": (setup_s * scale, "s"),
        "op_mean_ms": (mean * scale, "ms"),
        "ops_per_s": (scaled_rate(stats), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"cpu_reference_ms": (gauge, "ms"),
            "raw_setup_s": (setup_s, "s"),
            "raw_op_mean_ms": (mean, "ms"),
            "raw_ops_per_s": (rate, "1/s"),
            "failed_share": (stats.failed / max(stats.attempted, 1), "share")}
    info.update(latency_info("op", ops))
    if name in ("auth-loopback", "maildir-cli"):
        info.update(latency_info("handshake", stats.samples["handshake"]))
        info["handshakes_per_s"] = (len(stats.samples["handshake"]) / stats.elapsed, "1/s")
    if name in ("maildir-cli", "mail-relay"):
        info.update(latency_info("renewal", stats.samples["renewal"]))
    if name == "mail-relay":
        info["messages_per_s"] = (stats.messages / stats.elapsed, "1/s")
        info["payload_mb_per_s"] = (stats.payload_bytes / 1e6 / stats.elapsed, "MB/s")
    if name == "adversary-toy":
        info["harness_trials_per_s"] = (stats.harness_trials / stats.elapsed, "1/s")
    return gated, info


def per_layer(recorder, stats, untraced, extra: dict) -> dict:
    """Per-layer metrics of the traced phase; 0 where a layer did no work."""

    def us(name, which=None):
        values = (which or recorder.total).get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def per(count, base):
        return count / base if base else 0.0

    calls = {name: len(values) for name, values in recorder.total.items()}
    polls = recorder.counts["transport.poll.calls"]
    self_time = recorder.self_time
    m = {
        "groups.exp_fixed.us": (us("groups.exp_fixed"), "us"),
        "groups.exp_var.us": (us("groups.exp_var"), "us"),
        "groups.decode.us": (us("groups.decode"), "us"),
        "groups.mul.us": (us("groups.mul"), "us"),
        "groups.exp.calls_per_exchange": (
            per(calls.get("groups.exp_fixed", 0) + calls.get("groups.exp_var", 0),
                stats.exchanges), "count/exchange"),
        "groups.exp.us_per_hamming_bit": (hamming_slope(recorder.hamming) * 1e6, "us/bit"),
        "pake.start.self_us": (us("pake.start", self_time), "us"),
        "pake.finish.self_us": (us("pake.finish", self_time), "us"),
        "confirm.bundle.us": (us("confirm.bundle"), "us"),
        "confirm.verify.us": (us("confirm.verify"), "us"),
    }
    for backend in ("loopback", "maildir", "relay"):
        m[f"transport.{backend}.send.us"] = (us(f"transport.{backend}.send"), "us")
        m[f"transport.{backend}.poll.us"] = (us(f"transport.{backend}.poll"), "us")
    m.update({
        "transport.poll.calls": (per(polls, stats.ops), "count/op"),
        "transport.poll.empty_share": (
            per(recorder.counts["transport.poll.empty"], polls), "share"),
        # encode plus decode: one envelope's round trip through the codec
        "transport.envelope_codec.us": (us("transport.envelope_codec.encode")
                                        + us("transport.envelope_codec.decode"), "us"),
        "transport.email_codec.us": (us("transport.email_codec.encode")
                                     + us("transport.email_codec.decode"), "us"),
        "relay.store.put.us": (us("relay.store.put"), "us"),
        "relay.store.get.us": (us("relay.store.get"), "us"),
        "relay.store.ack.us": (us("relay.store.ack"), "us"),
        "relay.connections_per_message": (
            per(calls.get("relay.connection", 0), stats.messages), "count/message"),
        "relay.log_bytes": (float(extra.get("relay.log_bytes", 0)), "bytes"),
        "manager.keystore.save.ms": (us("manager.keystore.save") / 1e3, "ms"),
        "manager.keystore.save.calls": (
            per(calls.get("manager.keystore.save", 0), stats.exchanges), "count/exchange"),
        "manager.keystore.load.ms": (us("manager.keystore.load") / 1e3, "ms"),
        "manager.authenticate.wait_ms": (us("manager.authenticate", self_time) / 1e3, "ms"),
        "manager.recv_sealed.wait_ms": (us("manager.recv_sealed", self_time) / 1e3, "ms"),
        "sealed.seal.us": (us("sealed.seal"), "us"),
        "sealed.open.us": (us("sealed.open"), "us"),
        "analysis.wordlist.ms": (us("analysis.wordlist") / 1e3, "ms"),
        "analysis.trustwords.us": (us("analysis.trustwords"), "us"),
        "harness.passive.trial_us": (us("harness.passive.trial"), "us"),
        "harness.active.trial_us": (us("harness.active.trial"), "us"),
        "harness.abort.trial_us": (us("harness.abort.trial"), "us"),
        # throughputs scaled by each phase's gauge, as the gated figures are
        "trace.overhead_pct": ((scaled_rate(untraced) / scaled_rate(stats) - 1) * 100, "%"),
    })
    return m


def scaled_rate(stats) -> float:
    return stats.ops / stats.elapsed * statistics.fmean(stats.cpu_reference_ms) / REFERENCE_MS


def hamming_slope(points) -> float:
    """Least-squares slope of seconds against the exponent's Hamming weight."""
    if len({w for w, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression([w for w, _ in points], [s for _, s in points]).slope


def context(name: str, seed: int, trace: int) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "note": CONTEXT_NOTE,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def load_pakemail():
    """Import pakemail and its layers from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    pm = importlib.import_module("pakemail")
    for module in MODULES:
        importlib.import_module(f"pakemail.{module}")
    if Path(pm.__file__).resolve().parent != SRC / "pakemail":
        print(f"pakemail imported from {pm.__file__}, not from src/", file=sys.stderr)
        return None
    return pm


def measure(pm, cls, seed: int, seconds: float, trace: int, secrets, recorder, workroot):
    """Set up and warm up (timed), then run the untraced and, if asked, traced phases."""
    untraced, traced = workloads.Stats(), workloads.Stats()
    out = {"untraced": untraced, "traced": traced, "extra": {}}
    workload = None
    try:
        probes = [probe_seconds(cls.group_name) for _ in range(REPEATS)]
        setups = []
        for rep in range(REPEATS):
            if workload is not None:
                workload.teardown()
            workload = cls(pm, seed, workroot / str(rep), secrets, on_op=recorder.set_op)
            workload.workdir.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup()
            workload.warmup(workloads.Stats())
            setups.append(time.perf_counter() - start)
        out["setup"] = {"setup_probe_s": statistics.median(probes),
                        "setup_workload_s": statistics.median(setups)}

        run_phase(workload, untraced, seconds / 3 if trace else seconds)
        if trace:
            spans.install(recorder, pm)
            try:
                run_phase(workload, traced, seconds * 2 / 3)
            finally:
                recorder.uninstall()
        workload.finish()
        out["extra"] = workload.extra()
    except workloads.CheckFailed as exc:
        out["check_failed"] = str(exc)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workroot, ignore_errors=True)
    return out


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    pm = load_pakemail()
    if pm is None:
        return 3
    secrets = SecretSet(pm.pake)
    # sk never leaves PakeSession except as finish()'s return value
    finish = pm.pake.PakeSession.finish

    def finish_capturing_sk(session, message):
        sk = finish(session, message)
        secrets.add_key(sk)
        return sk

    pm.pake.PakeSession.finish = finish_capturing_sk
    recorder = spans.Recorder()
    workroot = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    try:
        out = measure(pm, workloads.WORKLOADS[name], seed, seconds, trace,
                      secrets, recorder, workroot)
    finally:
        pm.pake.PakeSession.finish = finish
    untraced, traced = out["untraced"], out["traced"]
    attempted = max(untraced.attempted + traced.attempted, 1)
    failed = untraced.failed + traced.failed

    if "check_failed" in out:
        print(f"correctness check failed: {out['check_failed']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    setup = out["setup"]
    gated, info = end_to_end(name, untraced, sum(setup.values()))
    info.update({k: (v, "s") for k, v in setup.items()})
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   per_layer(recorder, traced, untraced, out["extra"]).items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}

    final = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    ctx = context(name, seed, trace)
    lines = [f"# {name} seed={seed} seconds={seconds} trace={trace}"]
    lines += [f"{k} {v:.6g} {u}" for k, (v, u) in {**gated, **info}.items()]
    if trace:
        lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append("context " + json.dumps(ctx))
    lines.append(json.dumps(final))
    stdout = "\n".join(lines) + "\n"
    report = json.dumps({"result": final, "context": ctx,
                         "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
                         "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()}},
                        indent=1).encode()
    span_lines = "".join(json.dumps(s) + "\n" for s in recorder.spans).encode()
    if any(secrets.leaks(blob) for blob in (stdout.encode(), report, span_lines)):
        print("secret-hygiene check failed: the output would contain a secret; "
              "nothing written", file=sys.stderr)
        return 2

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_bytes(report)
    if trace:
        with gzip.open(f"{stem}.spans.jsonl.gz", "wb") as fh:
            fh.write(span_lines)
    sys.stdout.write(stdout)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pakemail" / "__init__.py").is_file():
        print(f"no pakemail source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 3
    if args.workload != "all":
        # One CPU for the whole run: thread hand-offs under the interpreter
        # lock then stay on one CPU instead of waking another one, which on
        # a small virtual machine made relay figures swing between runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    worst = 0
    for name in workloads.WORKLOADS:
        code = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
