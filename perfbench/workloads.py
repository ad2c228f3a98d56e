"""The four workloads.  Each runs closed loop: one caller, one process.

Every workload returns the same record: ``correct``, ``attempted``,
``failed``, ``metrics`` and ``info``.  An untraced run measures the
end-to-end metrics; a traced run (``trace=True``) measures the per-layer
metrics instead, from spans recorded around the benchmark's calls into
each layer, and compares traced against untraced wall time on the same
inputs to give the tracing overhead.

An *operation* (op) is one closed-loop round of the workload:

* discord-nf, discord-cm: one state through the ``gdiscord discord`` pipeline;
  these two run a fixed number of states, sized to ``--seconds``, so that
  a seed always gives the same attempted and failed counts (discord-cm's
  hung states are a property of its inputs, not of the machine);
* family-cloud: one ``sample`` CLI run to a file, one to stdout, and
  ``membership`` on a subset of the sampled rows;
* cli-cold: one fresh launch of one of the three CLI commands, which run
  interleaved in a seeded order.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

import harness
import inputs
import ops
from harness import (
    CALL_DEADLINE_S, CLI_TIMEOUT_S, SAMPLE_TIMEOUT_S, DeadlineHit, Tracer, deadline, direct,
)

# States per second of --seconds: about what the untraced loop completes in
# a second on a 2-core Xeon, set-up probes included.  A traced run takes
# half as many, since it runs each state twice.
DISCORD_STATES_PER_S = {"nf": 64, "cm": 36}
CM_CHECK_SHARE = 1 / 8     # discord-cm states re-checked against their normal form
DISCORD_TOL = 1e-6
SAMPLE_N = 80_000          # two sampler chunks, so --threads has work to split
SAMPLE_THREADS = 2
MEMBERSHIP_ROWS = 1000     # membership calls per family-cloud round
WITNESS_TOL = 1e-9
SWEEP_STATES = 12          # states of the traced layer sweep
SWEEP_SAMPLE_N = 20_000
STARTUP_PROBES = 3
CLI_COMMANDS = (
    ("classify", "--tau", "0.5", "--eta", "0.6"),
    ("discord", "--normal-form", "5,2,2.449489743,-2.449489743"),
    ("decompose", "--normal-form", "2,2,1,1"),
)


class Ledger:
    """Attempted operations, failures by kind, and wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    def ok(self, k: int = 1):
        self.attempted += k

    def fail(self, kind: str):
        self.attempted += 1
        self.failures[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return self.failures["wrong"] == 0


def _guarded(fn):
    """Run ``fn`` under the per-call deadline: (status, seconds, result)."""
    t0 = time.perf_counter()
    result = None
    try:
        with deadline(CALL_DEADLINE_S):
            result = fn()
        status = "ok"
    except DeadlineHit:
        status = "deadline"
    except ops.GDiscordError as exc:
        status = f"error:{type(exc).__name__}"
    return status, time.perf_counter() - t0, result


def _end_to_end(probes, ledger, latencies, busy_s, ok_ops, rss_mb):
    """The end-to-end metrics, common to every workload.

    ``latencies`` and ``busy_s`` are in reference-host seconds (see
    harness.HostClock), except that deadline hits count their wall time.
    """
    lat_ms = [x * 1e3 for x in latencies]
    tail_ms, tail_pct = harness.tail(lat_ms)
    setups = probes.finish()
    metrics = {
        "setup_s": (harness.p50(setups), "s"),
        "ops_per_s": (ok_ops / busy_s if busy_s > 0 else 0.0, "1/s"),
        "op_p50_ms": (harness.p50(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_ok_share": (1.0 - ledger.failed / ledger.attempted, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    loops = probes.clock.loops
    info = {"ops": len(latencies), "op_tail_pct": tail_pct, "setup_s_samples": setups,
            "calibration_loop_ms": {"ref": harness.REF_LOOP_S * 1e3, "p50": harness.p50(loops) * 1e3,
                                    "min": min(loops) * 1e3, "max": max(loops) * 1e3}}
    return metrics, info


def _failed_latency(seconds):
    # a failed op counts as missing the deadline; adding its own elapsed
    # time keeps the value measured rather than a constant
    return CALL_DEADLINE_S + seconds


# --------------------------------------------------------------------------
# discord-nf and discord-cm


def _discord_inputs(kind, seed, n):
    rng = np.random.default_rng([seed, 1 if kind == "cm" else 0])
    nfs = inputs.normal_forms(rng, n)
    if kind == "nf":
        return nfs, [inputs.normal_form_matrix(r) for r in nfs], None, harness.digest(nfs)
    syms = inputs.local_symplectics(rng, n)
    check = rng.uniform(0.0, 1.0, n) < CM_CHECK_SHARE
    cms = [inputs.transformed_cm(r, s) for r, s in zip(nfs, syms)]
    return nfs, cms, check, harness.digest(nfs, syms, check)


def _winner(u_opt):
    if u_opt == 0.0:
        return "homodyne_q"
    if math.isinf(u_opt):
        return "homodyne_p"
    return "grid"


def discord_states(kind: str, seed: int, seconds: float, trace: bool) -> dict:
    n_states = max(1, round(DISCORD_STATES_PER_S[kind] * seconds))
    nfs, cms, check, input_digest = _discord_inputs(kind, seed, n_states)
    if trace:
        n_states = max(1, n_states // 2)
    ops.discord_op(inputs.normal_form_matrix(ops.WORKED_NF), direct)  # warm-up
    ledger = Ledger()
    latencies, wall, busy = [], [], 0.0
    closed_count = 0
    tracer = Tracer() if trace else None
    traced_s = untraced_s = 0.0
    clock = harness.HostClock()
    probes = harness.SetupProbes(f"discord-{kind}", seconds, clock)
    for i in range(n_states):
        if tracer is None:
            probes.poll()
        V = cms[i]
        loop_s = clock.before()
        status, secs, result = _guarded(lambda: ops.discord_op(V, direct))
        ref_s = clock.reference(secs, loop_s)
        busy += secs if status == "deadline" else ref_s
        wall.append(secs)
        if status == "ok":
            numeric, closed, nf, _out = result
            wrong = not math.isfinite(numeric.discord)
            if closed is not None:
                closed_count += 1
                wrong |= abs(closed.discord - numeric.discord) > DISCORD_TOL
            if check is not None and check[i]:
                ref_status, _, ref = _guarded(
                    lambda: ops.discord_op(inputs.normal_form_matrix(nfs[i]), direct))
                wrong |= ref_status != "ok" or abs(ref[0].discord - numeric.discord) > DISCORD_TOL
            if wrong:
                ledger.fail("wrong")
                latencies.append(_failed_latency(secs))
            else:
                ledger.ok()
                latencies.append(ref_s)
        else:
            ledger.fail(status)
            latencies.append(_failed_latency(secs))
        if tracer is not None:
            tracer.op_id = i
            t_status, t_secs, t_result = _guarded(
                lambda: tracer.call("op.discord", ops.discord_op, V, tracer.call))
            if status == "ok" and t_status == "ok":
                untraced_s += secs
                traced_s += t_secs
            _count_discord(tracer, t_status, t_result)
            ops.layer_probes(V, tracer.call)

    info = {"workload": f"discord-{kind}", "inputs_sha256": input_digest,
            "failures": dict(ledger.failures)}
    if tracer is not None:
        _sweep_missing(tracer, seed)
        return _traced_record(tracer, ledger, traced_s, untraced_s, info)
    metrics, extra = _end_to_end(probes, ledger, latencies, busy,
                                 ledger.attempted - ledger.failed, harness.self_rss_mb())
    info.update(extra)
    wall_ms = [x * 1e3 for x in wall]
    info["detail"] = {  # wall time, as a user of this host saw it
        "discord_states_per_s": (ledger.attempted - ledger.failed) / sum(wall),
        "discord_state_p50_ms": harness.p50(wall_ms),
        "discord_state_tail_ms": harness.tail(wall_ms)[0],
        "closed_form_share": closed_count / max(len(latencies), 1),
        "ops_failed_share": ledger.failed / ledger.attempted,
    }
    return _record(ledger, metrics, info)


def _count_discord(tracer, status, result):
    if status != "ok":
        return
    numeric, closed, nf, _out = result
    tracer.count("discord.ops")
    tracer.count("winner." + _winner(numeric.u_opt))
    tracer.count("symplectic.normal_form_from_cm.hit", nf is not None)
    tracer.count("discord.closed_form", closed is not None)


# --------------------------------------------------------------------------
# family-cloud


def _family_inputs(seed):
    rng = np.random.default_rng([seed, 2])
    a, b = rng.uniform(1.5, 4.0, 2)
    return float(a), float(b), rng


def _check_witness(fp, expected) -> bool:
    r, tau, eta, sign = expected
    close = all(abs(x - y) <= WITNESS_TOL * max(1.0, abs(y))
                for x, y in ((fp.r, r), (fp.tau, tau), (fp.eta, eta)))
    return close and fp.sign == int(sign)


def _membership_batch(rows, expected, ledger, call):
    """Membership on each row; returns seconds spent in the calls."""
    spent = 0.0
    for row, exp in zip(rows, expected):
        status, secs, fp = _guarded(lambda: ops.membership_op(row, call))
        spent += secs
        if status != "ok":
            ledger.fail(status)
        elif not _check_witness(fp, exp):
            ledger.fail("wrong")
        else:
            ledger.ok()
    return spent


def _sample_cli(a, b, seed, threads, out_path=None, grid_path=None):
    args = ["sample", "--a", repr(a), "--b", repr(b), "--n", str(SAMPLE_N),
            "--seed", str(seed), "--threads", str(threads)]
    if out_path is not None:
        args += ["--out", str(out_path), "--grid-out", str(grid_path)]
    return harness.run_child(harness.cli_args(*args), SAMPLE_TIMEOUT_S)


def _grid_ok(path) -> bool:
    try:
        grid = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return grid.get("n") == SAMPLE_N and 0.0 < grid.get("coverage_fraction", 0.0) <= 1.0


def family_cloud(seed: int, seconds: float, trace: bool) -> dict:
    a, b, rng = _family_inputs(seed)
    threads = max(1, min(SAMPLE_THREADS, os.cpu_count() or 1))
    ops.membership_op(ops.WORKED_NF, direct)  # warm-up
    ledger = Ledger()
    latencies, file_s, stdout_s = [], [], []
    member_s = member_n = 0.0
    tracer = Tracer() if trace else None
    traced_s = untraced_s = 0.0
    harness.SCRATCH.mkdir(exist_ok=True)
    csv_path = harness.SCRATCH / f"family-{seed}.csv"
    grid_path = harness.SCRATCH / f"family-{seed}.json"
    seeds = []
    ok_rounds = 0
    child_rss = 0.0
    clock = harness.HostClock()
    probes = harness.SetupProbes("family-cloud", seconds, clock)
    t_end = time.perf_counter() + seconds
    k = 0
    try:
        while time.perf_counter() < t_end:
            sample_seed = int(rng.integers(2**31))
            seeds.append(sample_seed)
            picks = np.sort(rng.choice(SAMPLE_N, MEMBERSHIP_ROWS, replace=False))
            # alternate which output path gets the threaded run; identical
            # bytes on both paths then also prove thread invariance
            t_file, t_out = (threads, 1) if k % 2 == 0 else (1, threads)
            if tracer is not None:
                untraced_s += _family_round_inprocess(a, b, sample_seed, t_file, picks, ledger, direct)
                tracer.op_id = k
                traced_s += _family_round_inprocess(a, b, sample_seed, t_file, picks, ledger,
                                                    tracer.call, tracer)
                k += 1
                continue
            probes.poll()
            failed_before = ledger.failed
            loop_s = clock.before()
            code_f, _, _, secs_f, rss_f = _sample_cli(a, b, sample_seed, t_file, csv_path, grid_path)
            ref_f = clock.reference(secs_f, loop_s)
            loop_s = clock.before()
            code_o, out, _, secs_o, rss_o = _sample_cli(a, b, sample_seed, t_out)
            ref_o = clock.reference(secs_o, loop_s)
            child_rss = max(child_rss, rss_f, rss_o)
            file_bytes = csv_path.read_bytes() if code_f == 0 else b""
            for code in (code_f, code_o):
                if code == 0:
                    ledger.ok()
                else:
                    ledger.fail("timeout" if code is None else f"exit:{code}")
            if code_f == 0 and code_o == 0 and (file_bytes != out or not _grid_ok(grid_path)):
                ledger.fail("wrong")
            # membership runs on the sampled rows at full precision: the CSV's
            # 12 digits can move a witness by more than 1e-9 where r is
            # ill-conditioned (3.3e-9 seen near tau = 1, eta = 0.01)
            batch = ops.sample_family(a, b, SAMPLE_N, sample_seed, 1)
            if code_o == 0 and not _csv_rows_match(out, picks, batch):
                ledger.fail("wrong")
            rows, expected = _family_rows(a, b, batch, picks)
            loop_s = clock.before()
            spent = _membership_batch(rows, expected, ledger, direct)
            ref_m = clock.reference(spent, loop_s)
            member_s += spent
            member_n += len(picks)
            file_s.append(secs_f)
            stdout_s.append(secs_o)
            round_s = ref_f + ref_o + ref_m
            if ledger.failed == failed_before:
                ok_rounds += 1
                latencies.append(round_s)
            else:
                latencies.append(_failed_latency(round_s))
            k += 1
    finally:
        csv_path.unlink(missing_ok=True)
        grid_path.unlink(missing_ok=True)

    info = {"workload": "family-cloud", "a": a, "b": b, "n": SAMPLE_N, "threads": threads,
            "inputs_sha256": harness.digest(np.array([a, b]), np.array(seeds)),
            "failures": dict(ledger.failures)}
    if tracer is not None:
        _sweep_missing(tracer, seed)
        return _traced_record(tracer, ledger, traced_s, untraced_s, info)
    metrics, extra = _end_to_end(probes, ledger, latencies, sum(latencies), ok_rounds,
                                 max(child_rss, harness.self_rss_mb()))
    info.update(extra)
    info["detail"] = {  # wall time, as a user of this host saw it
        "sample_file_s": harness.p50(file_s),
        "sample_stdout_s": harness.p50(stdout_s),
        "decompose_states_per_s": member_n / member_s if member_s else 0.0,
        "ops_failed_share": ledger.failed / ledger.attempted,
    }
    return _record(ledger, metrics, info)


def _csv_rows_match(out: bytes, picks, batch) -> bool:
    """Header, row count, and the picked rows equal the batch to 12 digits."""
    lines = out.split(b"\n")
    if len(lines) != SAMPLE_N + 2 or lines[0] != b"a,b,c,cp,r,tau,eta,sign":
        return False
    cols = (batch.c, batch.cp, batch.r, batch.tau, batch.eta, batch.sign)
    for p in picks:
        fields = [float(x) for x in lines[1 + int(p)].split(b",")]
        exact = [batch.a, batch.b] + [float(col[p]) for col in cols]
        if any(abs(x - y) > 1e-11 * max(1.0, abs(y)) for x, y in zip(fields, exact)):
            return False
    return True


def _family_rows(a, b, batch, picks):
    rows = np.column_stack([np.full(len(picks), a), np.full(len(picks), b),
                            batch.c[picks], batch.cp[picks]])
    expected = np.column_stack([batch.r[picks], batch.tau[picks], batch.eta[picks],
                                batch.sign[picks]])
    return rows, expected


def _family_round_inprocess(a, b, sample_seed, threads, picks, ledger, call, tracer=None):
    """What one family-cloud round computes, in process: returns seconds."""
    t0 = time.perf_counter()
    batch, text, streamed, _grid = ops.sample_op(a, b, SAMPLE_N, sample_seed, threads, call)
    if len(text) != streamed:
        ledger.fail("wrong")
    _membership_batch(*_family_rows(a, b, batch, picks), ledger, call)
    if tracer is not None:
        tracer.count("family.sample_family.rows", SAMPLE_N)
        tracer.count("family.sample_family.redraws", batch.redraws)
        tracer.count("serialize.sample_to_csv.bytes", len(text))
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# cli-cold


def _cli_expected_ok(cmd: str, out: bytes) -> bool:
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    if cmd == "classify":
        return doc.get("label") == "C_lossy" and abs(doc.get("omega", 0.0) - 1.2) <= 1e-9
    if cmd == "discord":
        closed = doc.get("closed_form") or {}
        return (doc.get("in_family") is True
                and abs(closed.get("discord", 0.0) - ops.WORKED_DISCORD) <= 1e-9
                and abs(doc["numeric"]["discord"] - ops.WORKED_DISCORD) <= 1e-9)
    expected = {"b": 2.0, "r": 1.0, "tau": -1.0 / 3.0, "eta": 4.0 / 3.0, "xi": 1.0}
    return doc.get("sign") == 1 and all(
        abs(doc.get(key, math.nan) - val) <= 1e-9 for key, val in expected.items())


def _cli_launch(cmd, ledger, traced, tracer=None):
    """One fresh CLI launch; returns (seconds, ok, peak RSS MB)."""
    if traced:
        args = harness.child_args("cli", *cmd)
    else:
        args = harness.cli_args(*cmd)
    code, out, err, secs, rss = harness.run_child(args, CLI_TIMEOUT_S)
    if code != 0:
        ledger.fail("timeout" if code is None else f"exit:{code}")
        return secs, False, rss
    if not _cli_expected_ok(cmd[0], out):
        ledger.fail("wrong")
        return secs, False, rss
    ledger.ok()
    if tracer is not None:
        _add_import_spans(tracer, json.loads(err.strip().splitlines()[-1]))
        tracer.add_span("op.cli", 0.0, secs)
    return secs, True, rss


def cli_cold(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng([seed, 3])
    harness.run_child(harness.cli_args("--help"), CLI_TIMEOUT_S)  # warm-up
    ledger = Ledger()
    latencies, per_cmd = [], {cmd[0]: [] for cmd in CLI_COMMANDS}
    tracer = Tracer() if trace else None
    traced_s = untraced_s = 0.0
    orders = []
    ok_launches = 0
    child_rss = 0.0
    clock = harness.HostClock()
    probes = harness.SetupProbes("cli-cold", seconds, clock)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        order = [int(x) for x in rng.permutation(len(CLI_COMMANDS))]
        orders.extend(order)
        if tracer is not None:
            # interleave an untraced and a traced launch of each command
            for idx in order:
                secs, ok_u, _ = _cli_launch(CLI_COMMANDS[idx], ledger, False)
                t_secs, ok_t, _ = _cli_launch(CLI_COMMANDS[idx], ledger, True, tracer)
                if ok_u and ok_t:
                    untraced_s += secs
                    traced_s += t_secs
            continue
        probes.poll()
        for idx in order:
            cmd = CLI_COMMANDS[idx]
            loop_s = clock.before()
            secs, ok, rss = _cli_launch(cmd, ledger, False)
            ref_s = clock.reference(secs, loop_s)
            child_rss = max(child_rss, rss)
            ok_launches += ok
            latencies.append(ref_s if ok else _failed_latency(secs))
            per_cmd[cmd[0]].append(secs * 1e3)

    info = {"workload": "cli-cold", "commands": [" ".join(c) for c in CLI_COMMANDS],
            "inputs_sha256": harness.digest(np.array(orders)),
            "failures": dict(ledger.failures)}
    if tracer is not None:
        _sweep_missing(tracer, seed)
        return _traced_record(tracer, ledger, traced_s, untraced_s, info)
    metrics, extra = _end_to_end(probes, ledger, latencies, sum(latencies), ok_launches,
                                 child_rss)
    info.update(extra)
    info["detail"] = {  # wall time, as a user of this host saw it
        "cli_classify_p50_ms": harness.p50(per_cmd["classify"]),
        "cli_discord_p50_ms": harness.p50(per_cmd["discord"]),
        "cli_decompose_p50_ms": harness.p50(per_cmd["decompose"]),
        "cli_cold_tail_ms": harness.tail([x for xs in per_cmd.values() for x in xs])[0],
        "ops_failed_share": ledger.failed / ledger.attempted,
    }
    return _record(ledger, metrics, info)


# --------------------------------------------------------------------------
# traced layer sweeps: every traced run reports every per-layer metric, so
# the layers a workload's own operations did not reach are timed on a few
# seeded inputs after its traced pass


def _sweep_missing(tracer, seed):
    reached = {s[0] for s in tracer.finished()}

    def call(name, fn, *args):
        # record only layers the workload's own operations did not reach,
        # so the sweep never dilutes a layer's workload figures
        return fn(*args) if name in reached else tracer.call(name, fn, *args)

    rng = np.random.default_rng([seed, 4])
    if "discord.gaussian_discord_numeric" not in reached:
        for row in inputs.normal_forms(rng, SWEEP_STATES):
            V = inputs.normal_form_matrix(row)
            status, _, result = _guarded(lambda: call("op.discord", ops.discord_op, V, call))
            _count_discord(tracer, status, result)
            ops.layer_probes(V, call)
    if not {"family.membership", "discord.gaussian_discord_closed_form"} <= reached:
        for row in inputs.normal_forms(rng, 4 * SWEEP_STATES):
            try:
                fp = ops.membership_op(row, call)
            except ops.OutOfFamily:
                continue
            call("discord.gaussian_discord_closed_form", ops.gaussian_discord_closed_form, fp)
    if "family.sample_family" not in reached:
        for k in range(2):
            batch, text, _streamed, _grid = ops.sample_op(
                2.0, 2.0, SWEEP_SAMPLE_N, seed + k, 1, call)
            tracer.count("family.sample_family.rows", SWEEP_SAMPLE_N)
            tracer.count("family.sample_family.redraws", batch.redraws)
            tracer.count("serialize.sample_to_csv.bytes", len(text))
    if "startup.python" not in reached:
        for _ in range(STARTUP_PROBES):
            code, _out, _err, secs, _rss = harness.run_child(
                [sys.executable, "-c", "pass"], CLI_TIMEOUT_S)
            if code == 0:
                tracer.add_span("startup.python", 0.0, secs)
    if "startup.import_cli" not in reached:
        for _ in range(STARTUP_PROBES):
            code, out, _err, _secs, _rss = harness.run_child(harness.child_args("imports"),
                                                             CLI_TIMEOUT_S)
            if code == 0:
                _add_import_spans(tracer, json.loads(out))


def _add_import_spans(tracer, timings):
    for key in ("import_numpy", "import_gdiscord", "import_cli"):
        tracer.add_span(f"startup.{key}", 0.0, timings[key + "_s"])


# --------------------------------------------------------------------------
# records


def _record(ledger, metrics, info):
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def _share(num, den):
    return num / den if den else 0.0


def _traced_record(tracer, ledger, traced_s, untraced_s, info):
    """Per-layer metrics from the spans and counters of a traced run."""
    d = tracer.durations
    c = tracer.counts
    us, ms = 1e6, 1e3
    answered = ("ok", "OutOfFamily")
    membership = tracer.statuses("family.membership")
    winners = sum(c.get("winner." + w, 0) for w in ("grid", "homodyne_q", "homodyne_p"))
    sample_rows = c.get("family.sample_family.rows", 0)
    csv_bytes = c.get("serialize.sample_to_csv.bytes", 0)
    csv_calls = len(d("serialize.sample_to_csv"))
    metrics = {
        "discord.gaussian_discord_numeric.p50_ms":
            (harness.p50(d("discord.gaussian_discord_numeric")) * ms, "ms"),
        "discord.gaussian_discord_numeric.busy_share":
            (_share(sum(d("discord.gaussian_discord_numeric", None)), sum(d("op.discord", None))),
             "share"),
        "discord.gaussian_discord_numeric.timeouts":
            (tracer.statuses("discord.gaussian_discord_numeric").count("deadline"), "count"),
        "discord.gaussian_discord_closed_form.p50_us":
            (harness.p50(d("discord.gaussian_discord_closed_form")) * us, "us"),
        "discord.winner.grid_share": (_share(c.get("winner.grid", 0), winners), "share"),
        "discord.winner.homodyne_q_share": (_share(c.get("winner.homodyne_q", 0), winners), "share"),
        "discord.winner.homodyne_p_share": (_share(c.get("winner.homodyne_p", 0), winners), "share"),
        "closed_form_share": (_share(c.get("discord.closed_form", 0), c.get("discord.ops", 0)), "share"),
        "remote_prep.conditional_cm.u1.p50_us":
            (harness.p50(d("remote_prep.conditional_cm.u1")) * us, "us"),
        "remote_prep.conditional_cm.u0.p50_us":
            (harness.p50(d("remote_prep.conditional_cm.u0")) * us, "us"),
        "remote_prep.conditional_cm.uinf.p50_us":
            (harness.p50(d("remote_prep.conditional_cm.uinf")) * us, "us"),
        "symplectic.validate_bona_fide.p50_us":
            (harness.p50(d("symplectic.validate_bona_fide")) * us, "us"),
        "symplectic.symplectic_spectrum.p50_us":
            (harness.p50(d("symplectic.symplectic_spectrum")) * us, "us"),
        "symplectic.normal_form_from_cm.hit_share":
            (_share(c.get("symplectic.normal_form_from_cm.hit", 0), c.get("discord.ops", 0)), "share"),
        "family.membership.p50_us": (harness.p50(d("family.membership", answered)) * us, "us"),
        "family.membership.in_family_share":
            (_share(membership.count("ok"), sum(s in answered for s in membership)), "share"),
        "family.sample_family.rows_per_s":
            (_share(sample_rows, sum(d("family.sample_family"))), "1/s"),
        "family.sample_family.redraws": (c.get("family.sample_family.redraws", 0), "count"),
        "family.occupancy_grid.ms": (harness.p50(d("family.occupancy_grid")) * ms, "ms"),
        "serialize.sample_to_csv.mb_per_s":
            (_share(csv_bytes, sum(d("serialize.sample_to_csv"))) / 1e6, "MB/s"),
        "serialize.sample_csv_lines.rows_per_s":
            (_share(sample_rows, sum(d("serialize.sample_csv_lines"))), "1/s"),
        "serialize.sample_to_csv.bytes": (_share(csv_bytes, csv_calls), "bytes"),
        "entropy.entropy_two_mode.p50_us": (harness.p50(d("entropy.entropy_two_mode")) * us, "us"),
        "startup.python_ms": (harness.p50(d("startup.python")) * ms, "ms"),
        "startup.import_numpy_ms": (harness.p50(d("startup.import_numpy")) * ms, "ms"),
        "startup.import_gdiscord_ms": (harness.p50(d("startup.import_gdiscord")) * ms, "ms"),
        "startup.import_cli_ms": (harness.p50(d("startup.import_cli")) * ms, "ms"),
        "ops_failed_share": (_share(ledger.failed, ledger.attempted), "share"),
        "trace.overhead_share": (_share(traced_s, untraced_s) - 1.0, "share"),
    }
    info["spans"] = len(tracer.spans)
    harness.SCRATCH.mkdir(exist_ok=True)
    tracer.dump(harness.SCRATCH / f"trace-{info['workload']}.json")
    return _record(ledger, metrics, info)
