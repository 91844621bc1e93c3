#!/usr/bin/env python3
"""End-to-end alignment benchmark for the `rdf` tool.

Run from the repository root:

    python3 perfbench/run.py --workload efo-align-cold --seed 3824 --seconds 10 --trace 0

It builds the release `rdf` binary and the `perfbench` helper from
source, generates the workload's inputs from `--seed`, sets up, measures
for `--seconds`, checks every output against an in-process reference and
prints, as its last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` they are
the per-layer figures of the traced pass. `README.md` in this directory
defines every workload and metric.

`python3 perfbench/run.py --self-test` shows that the correctness gate
trips on a deliberately wrong reference.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0xEF0  # EfoConfig::default().seed
SETUP_REPEATS = 3
# Variables the `rdf` binary reads; the benchmark runs the defaults.
RDF_ENV = ("RDF_THREADS", "RDF_TRACE", "RDF_NO_MMAP", "RDF_SOCKET")

WORKLOADS = {
    # One-shot `rdf align` (hybrid, default threads) over EFO scale 100
    # v1 -> v2 single-file stores.
    "efo-align-cold": dict(
        kind="oneshot", dataset="efo", scale=100, versions=2, write=[1, 2],
        pairs=[(1, 2)], method="hybrid", import_version=1,
    ),
    # One-shot `rdf align --method overlap` over GtoPdb v3 -> v4, the
    # growth burst where every version changes its URI prefix.
    "gtopdb-overlap": dict(
        kind="oneshot", dataset="gtopdb", scale=35, versions=4, write=[3, 4],
        pairs=[(3, 4)], method="overlap", import_version=3,
    ),
    # `rdf serve --threads 2`; two closed-loop connections, each cycling
    # 9 hybrid aligns over (v1,v2), (v2,v3), (v3,v4) and 1 import.
    "efo-serve-mix": dict(
        kind="serve", dataset="efo", scale=30, versions=4, write=[1, 2, 3, 4],
        pairs=[(1, 2), (2, 3), (3, 4)], method="hybrid", import_version=1,
    ),
}
SERVE_CLIENTS = 2
SERVE_THREADS = 2
SERVE_ALIGNS_PER_CYCLE = 9
# align_ms_p90 needs at least 10 samples beyond it: a served run keeps
# going past --seconds until it has this many aligns.
SERVE_MIN_ALIGNS = 100


class BenchError(Exception):
    """A failure that voids the run: no result line is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    return {k: v for k, v in os.environ.items() if k not in RDF_ENV}


# --------------------------------------------------------------------------
# build


def build():
    """Build `rdf` (repository workspace) and `perfbench` (own workspace)
    into one target directory; return the two executables."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(child_env(), CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rdf-cli", "--bin", "rdf"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        rc = subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if rc != 0:
            raise BenchError(f"build failed ({' '.join(cmd)}): exit {rc}")
    return os.path.join(target, "release", "rdf"), os.path.join(target, "release", "perfbench")


# --------------------------------------------------------------------------
# processes


class Tools:
    def __init__(self, rdf, helper, work):
        self.rdf = rdf
        self.helper = helper
        self.work = work
        self.errlog = open(os.path.join(work, "stderr.log"), "ab")

    def spawn_timed(self, argv):
        """Run one command to completion. Returns (wall ms, exit code,
        stdout bytes, peak RSS in KiB). The peak is `ru_maxrss` from
        wait4(2), which Linux fills from the child's VmHWM."""
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                             stderr=self.errlog)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall_ms = (time.perf_counter() - t0) * 1e3
        p.returncode = os.waitstatus_to_exitcode(status)
        return wall_ms, p.returncode, out, usage.ru_maxrss

    def run(self, argv, what):
        """Run a command that must succeed; return its stdout text."""
        _, rc, out, _ = self.spawn_timed(argv)
        if rc != 0:
            raise BenchError(f"{what} failed: exit {rc}: {self.stderr_tail()}")
        return out.decode()

    def stderr_tail(self):
        self.errlog.flush()
        with open(self.errlog.name, "rb") as f:
            return f.read()[-2000:].decode(errors="replace").strip()

    def helper_json(self, args, what):
        return json.loads(self.run([self.helper] + args, what).strip().splitlines()[-1])

    def align_argv(self, method, src, tgt, extra=()):
        method_args = [] if method == "hybrid" else ["--method", method]
        return [self.rdf, "align"] + method_args + list(extra) + [src, tgt]


def vmhwm_kib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


class Daemon:
    """An `rdf serve` process on a unix socket below the work directory."""

    def __init__(self, tools, sock, threads=None):
        self.sock = sock
        argv = [tools.rdf, "serve", "--socket", sock]
        if threads is not None:
            argv += ["--threads", str(threads)]
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, stderr=tools.errlog)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        if b"listening" not in line:
            self.stop()
            raise BenchError(f"rdf serve did not become ready: {line!r}")

    def connect(self):
        return Conn(self.sock)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Conn:
    """One client connection speaking the line-delimited JSON protocol."""

    def __init__(self, sock):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        # Relative to the repository root (the working directory): a
        # unix socket path must stay under 108 bytes wherever the
        # checkout lives.
        self.s.connect(sock)
        self.r = self.s.makefile("rb")

    def request(self, obj):
        self.s.sendall(json.dumps(obj).encode() + b"\n")
        line = self.r.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.r.close()
        self.s.close()


def align_request(method, src, tgt):
    return {"op": "align", "source": src, "target": tgt, "method": method}


# --------------------------------------------------------------------------
# statistics


def p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# workload inputs and set-up


class Inputs:
    """The files of one workload, all paths relative to the repository
    root (the reports echo them, so every path uses the same spelling)."""

    def __init__(self, w, data):
        self.w = w
        self.data = data
        ds = w["dataset"]
        self.nt = {v: f"{data}/{ds}-v{v}.nt" for v in w["write"]}
        self.store = {v: f"{data}/v{v}.rdfb" for v in w["write"]}
        self.pairs = [(self.store[a], self.store[b]) for a, b in w["pairs"]]
        self.sizes = {}

    def context(self):
        out = []
        for v in self.w["write"]:
            out.append(dict(
                version=v, nodes=self.sizes[v]["nodes"], triples=self.sizes[v]["triples"],
                nt_bytes=os.path.getsize(os.path.join(ROOT, self.nt[v])),
                store_bytes=os.path.getsize(os.path.join(ROOT, self.store[v])),
            ))
        return out


def set_up(tools, w, inputs, seed):
    """One set-up: datagen, `rdf import` of every version, and for the
    served workload the daemon start plus warm-up. Returns the daemon
    (or None)."""
    gen = tools.helper_json(
        ["gen", w["dataset"], "--scale", str(w["scale"]), "--seed", str(seed),
         "--versions", str(w["versions"]), "--write", ",".join(map(str, w["write"])),
         "--out", inputs.data], "datagen")
    for v, info in zip(w["write"], gen["versions"]):
        inputs.sizes[v] = info
    for v in w["write"]:
        tools.run([tools.rdf, "import", inputs.nt[v], inputs.store[v]], f"rdf import of v{v}")
    if w["kind"] == "oneshot":
        src, tgt = inputs.pairs[0]
        _, rc, _, _ = tools.spawn_timed(tools.align_argv(w["method"], src, tgt))
        if rc != 0:
            raise BenchError(f"warm-up align failed: exit {rc}")
        return None
    daemon = Daemon(tools, f"{inputs.data}/d.sock", threads=SERVE_THREADS)
    conn = daemon.connect()
    try:
        for src, tgt in inputs.pairs:
            if not conn.request(align_request(w["method"], src, tgt)).get("ok"):
                raise BenchError("warm-up served align failed")
        for c in range(SERVE_CLIENTS):
            if not conn.request(import_request(inputs, c)).get("ok"):
                raise BenchError("warm-up served import failed")
    except BaseException:
        daemon.stop()
        raise
    finally:
        conn.close()
    return daemon


def flush_inputs(inputs):
    """fsync the generated inputs, so their write-back does not run
    during the timed phase; their pages stay in the page cache."""
    for rel in list(inputs.nt.values()) + list(inputs.store.values()):
        fd = os.open(os.path.join(ROOT, rel), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def import_request(inputs, client):
    return {"op": "import", "input": inputs.nt[inputs.w["import_version"]],
            "output": f"{inputs.data}/import-c{client}.rdfb"}


def file_bytes(rel):
    with open(os.path.join(ROOT, rel), "rb") as f:
        return f.read()


# --------------------------------------------------------------------------
# correctness references


def references(tools, w, inputs):
    """In-process `rdf_cli::align(..).render()` for every pair, keyed by
    (method, src, tgt)."""
    return {(w["method"], src, tgt): tools.run([tools.helper, "reference", w["method"], src, tgt],
                                               "reference report")
            for src, tgt in inputs.pairs}


def import_reference(tools, w, inputs):
    """The bytes every import of the workload's import input must write:
    the set-up import's store, verified term-exact against the parsed
    N-Triples first."""
    v = w["import_version"]
    tools.run([tools.helper, "check-import", inputs.nt[v], inputs.store[v]], "import check")
    return file_bytes(inputs.store[v])


def corrupt(text):
    """A deliberately wrong reference: one character of the report changed."""
    i = text.index("aligned edge ratio")
    return text[:i] + text[i:].replace("0", "1", 1)


# --------------------------------------------------------------------------
# timed phases


def oneshot_phase(tools, w, inputs, refs, seconds):
    """Closed loop, one `rdf align` process at a time, rotating pairs."""
    res = dict(align_ms=[], rss_kib=[], attempted=0, failed=0)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    k = 0
    while time.perf_counter() < deadline or res["attempted"] == 0:
        src, tgt = inputs.pairs[k % len(inputs.pairs)]
        k += 1
        ms, rc, out, rss = tools.spawn_timed(tools.align_argv(w["method"], src, tgt))
        res["attempted"] += 1
        if rc != 0 or out.decode(errors="replace") != refs[(w["method"], src, tgt)]:
            res["failed"] += 1
            continue
        res["align_ms"].append(ms)
        res["rss_kib"].append(rss)
    res["wall_s"] = time.perf_counter() - t0
    return res


def import_phase(tools, w, inputs, import_want, seconds):
    """Closed loop, one `rdf import` of the workload's import input at a
    time into a scratch store; every output must equal `import_want`."""
    res = dict(import_ms=[], attempted=0, failed=0)
    out = f"{inputs.data}/import-oneshot.rdfb"
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds or res["attempted"] < 3:
        ms, rc, _, _ = tools.spawn_timed([tools.rdf, "import", inputs.nt[w["import_version"]], out])
        res["attempted"] += 1
        if rc == 0 and file_bytes(out) == import_want:
            res["import_ms"].append(ms)
        else:
            res["failed"] += 1
    res["wall_s"] = time.perf_counter() - t0
    return res


def serve_client(c, conn, w, inputs, refs, import_want, deadline, res, lock):
    """One closed-loop connection: 9 aligns rotating over the pairs, then
    one import into this client's own output path; repeat."""
    align_ms, import_ms = [], []
    attempted = failed = aligns = 0
    try:
        while time.perf_counter() < deadline or aligns < SERVE_MIN_ALIGNS // SERVE_CLIENTS:
            is_import = attempted % (SERVE_ALIGNS_PER_CYCLE + 1) == SERVE_ALIGNS_PER_CYCLE
            if is_import:
                req = import_request(inputs, c)
            else:
                # Clients start on different pairs, so they do not ask for
                # the same pair in lockstep.
                src, tgt = inputs.pairs[(c + aligns) % len(inputs.pairs)]
                aligns += 1
                req = align_request(w["method"], src, tgt)
            attempted += 1
            t = time.perf_counter()
            resp = conn.request(req)
            ms = (time.perf_counter() - t) * 1e3
            if is_import:
                good = resp.get("ok") is True and file_bytes(req["output"]) == import_want
            else:
                good = resp.get("ok") is True and resp.get("report") == refs[(w["method"], src, tgt)]
            if not good:
                failed += 1
            elif is_import:
                import_ms.append(ms)
            else:
                align_ms.append(ms)
    except (OSError, BenchError, ValueError) as e:
        log(f"client {c}: {e}")
        failed += 1
    with lock:
        res["align_ms"] += align_ms
        res["import_ms"] += import_ms
        res["attempted"] += attempted
        res["failed"] += failed


def serve_phase(daemon, w, inputs, refs, import_want, seconds):
    """`SERVE_CLIENTS` closed-loop connections from this process."""
    res = dict(align_ms=[], import_ms=[], attempted=0, failed=0)
    conns = [daemon.connect() for _ in range(SERVE_CLIENTS)]
    lock = threading.Lock()
    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=serve_client,
                         args=(c, conns[c], w, inputs, refs, import_want, t0 + seconds, res, lock))
        for c in range(SERVE_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    res["wall_s"] = time.perf_counter() - t0
    for conn in conns:
        conn.close()
    return res


def serve_stats(daemon):
    """Cache counters from the `stats` op."""
    conn = daemon.connect()
    try:
        report = conn.request({"op": "stats"})["report"]
    finally:
        conn.close()
    stats = {}
    for line in report.splitlines():
        words = line.split()
        if words[:2] == ["cache", "hits"]:
            stats.update(hits=int(words[2]), misses=int(words[4]), evictions=int(words[6]))
    return stats


# --------------------------------------------------------------------------
# cross-path identity (efo-align-cold)


def identity_check(tools, w, inputs, refs, in_ram_ok):
    """The report must be byte-identical across in-RAM, --streaming, a
    4-shard .rdfm import, served, --threads 1 and --threads 2, for hybrid
    and (except --streaming) overlap. Sharded inputs have other paths,
    so their expected report is the reference with the echoed input
    paths substituted. Untimed, so the checks run two at a time.
    Returns a list of (path, method, ok)."""
    (src, tgt), = inputs.pairs
    shard_dir = f"{inputs.data}/sharded"
    os.makedirs(os.path.join(ROOT, shard_dir), exist_ok=True)
    manifests = tuple(f"{shard_dir}/v{v}.rdfm" for v in w["write"])
    refs = dict(refs)
    with ThreadPoolExecutor(2) as pool:
        overlap_ref = pool.submit(tools.run, [tools.helper, "reference", "overlap", src, tgt],
                                  "reference report")
        imports = [pool.submit(tools.run, [tools.rdf, "import", "--shards", "4", inputs.nt[v], m],
                               "sharded import") for v, m in zip(w["write"], manifests)]
        refs[("overlap", src, tgt)] = overlap_ref.result()
        for f in imports:
            f.result()

    def oneshot(label, method, extra=(), paths=(src, tgt)):
        _, rc, out, _ = tools.spawn_timed(tools.align_argv(method, paths[0], paths[1], extra))
        want = refs[(method, src, tgt)]
        want = want.replace(f"  source: {src} (", f"  source: {paths[0]} (", 1)
        want = want.replace(f"  target: {tgt} (", f"  target: {paths[1]} (", 1)
        return [(label, method, rc == 0 and out.decode(errors="replace") == want)]

    def served():
        daemon = Daemon(tools, f"{inputs.data}/id.sock")
        try:
            conn = daemon.connect()
            out = []
            for method in ("hybrid", "overlap"):
                resp = conn.request(align_request(method, src, tgt))
                out.append(("served", method, resp.get("ok") is True
                            and resp.get("report") == refs[(method, src, tgt)]))
            conn.close()
            return out
        finally:
            daemon.stop()

    jobs = [(served,), (oneshot, "in-ram", "overlap"),
            (oneshot, "streaming", "hybrid", ["--streaming"])]
    for method in ("hybrid", "overlap"):
        jobs += [(oneshot, f"threads-{n}", method, ["--threads", n]) for n in ("1", "2")]
        jobs.append((oneshot, "sharded-4", method, (), manifests))
    results = [("in-ram (timed runs)", "hybrid", in_ram_ok)]
    with ThreadPoolExecutor(2) as pool:
        for f in [pool.submit(*job) for job in jobs]:
            results += f.result()
    shutil.rmtree(os.path.join(ROOT, shard_dir), ignore_errors=True)
    return results


def require_identity(tools, w, inputs, refs, res, ctx):
    """Run the cross-path identity check on `efo-align-cold`, record it in
    the context, and refuse the run's results if any path differs."""
    if w is not WORKLOADS["efo-align-cold"]:
        return
    ident = identity_check(tools, w, inputs, refs, res["failed"] == 0 and bool(res["align_ms"]))
    ctx["cross_path_identity"] = {f"{p} {m}": ok for p, m, ok in ident}
    if not all(ok for _, _, ok in ident):
        print("context " + json.dumps(ctx))
        raise BenchError("cross-path identity check failed: " +
                         ", ".join(f"{p} {m}" for p, m, ok in ident if not ok))


# --------------------------------------------------------------------------
# run context


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where no git metadata is present."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.relpath(os.path.join(dirpath, n), ROOT) for n in names]
    for rel in sorted(files):
        h.update(rel.encode() + b"\0" + file_bytes(rel) + b"\0")
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (no git metadata)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown (no git metadata)"
    except OSError:
        return "unknown (git not available)"


def base_context(args, w, inputs):
    return dict(
        workload=args.workload, seed=args.seed, default_seed=DEFAULT_SEED,
        dataset=f"{w['dataset']} scale {w['scale']}", method=w["method"],
        cores=len(os.sched_getaffinity(0)), commit=commit(), source_digest=source_digest(),
        inputs=inputs.context(),
        page_cache="warm: inputs are written during set-up, read by the warm-up "
                   "operation and fsync'd before timing; no cache drop",
    )


# --------------------------------------------------------------------------
# the two modes


def run_e2e(args, tools, w, inputs):
    setup_s = []
    daemon = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        t0 = time.perf_counter()
        daemon = set_up(tools, w, inputs, args.seed)
        setup_s.append(time.perf_counter() - t0)
    try:
        flush_inputs(inputs)
        refs = references(tools, w, inputs)
        import_want = import_reference(tools, w, inputs)
        ctx = base_context(args, w, inputs)
        if w["kind"] == "oneshot":
            # --seconds is split: 80% aligns, then 20% imports.
            res = oneshot_phase(tools, w, inputs, refs, args.seconds * 0.8)
            imp = import_phase(tools, w, inputs, import_want, args.seconds * 0.2)
            res["import_ms"] = imp["import_ms"]
            for key in ("attempted", "failed", "wall_s"):
                res[key] += imp[key]
            peak_kib = max(res["rss_kib"], default=0)
            ctx["client_model"] = ("closed loop: one `rdf align` process at a time, "
                                   "then one `rdf import` process at a time")
            ctx["peak_rss_source"] = "max over align processes of ru_maxrss from wait4(2) (= VmHWM)"
        else:
            res = serve_phase(daemon, w, inputs, refs, import_want, args.seconds)
            peak_kib = vmhwm_kib(daemon.proc.pid)
            ctx["cache"] = serve_stats(daemon)
            ctx["client_model"] = (f"closed loop: {SERVE_CLIENTS} connections from one process, "
                                   f"each {SERVE_ALIGNS_PER_CYCLE} aligns then 1 import")
            ctx["peak_rss_source"] = "VmHWM of the daemon from /proc/<pid>/status after the timed phase"
    finally:
        if daemon is not None:
            daemon.stop()
    require_identity(tools, w, inputs, refs, res, ctx)
    if not res["align_ms"] or not res["import_ms"]:
        raise BenchError("no successful timed operation")
    ctx["samples"] = dict(align=len(res["align_ms"]), imports=len(res["import_ms"]),
                          setups=len(setup_s))
    ctx["timed_phase_s"] = res["wall_s"]
    ctx["error_rate"] = res["failed"] / res["attempted"]
    # Printed and recorded, not registered in BENCHMARK.json: see README.
    tail = p90(res["align_ms"])
    beyond = sum(x > tail for x in res["align_ms"])
    ctx["align_ms_p90"] = dict(value=tail, samples=len(res["align_ms"]), beyond=beyond)
    printed = [("align_ms_p90", tail, "ms", f"{len(res['align_ms'])} samples, {beyond} beyond it")]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "align_ms_p50": metric(statistics.median(res["align_ms"]), "ms"),
        "import_ms_p50": metric(statistics.median(res["import_ms"]), "ms"),
        "requests_per_s": metric((len(res["align_ms"]) + len(res["import_ms"])) / res["wall_s"],
                                 "1/s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    return dict(metrics=metrics, notes={}, printed=printed, ctx=ctx,
                attempted=res["attempted"], failed=res["failed"])


def layer_sum(layers, keys):
    return sum(layers[k]["median"] for k in keys)


COLD_KEYS = ["store.open_ms", "store.read_ms", "model.rebase_ms", "model.drop_ms",
             "model.union_ms", "align.refine_ms", "align.overlap_match_ms",
             "align.metrics_ms", "cli.render_ms"]
WARM_KEYS = ["model.rebase_ms", "model.union_ms", "align.refine_ms",
             "align.overlap_match_ms", "align.metrics_ms", "cli.render_ms"]


def run_traced(args, tools, w, inputs):
    daemon = set_up(tools, w, inputs, args.seed)
    try:
        flush_inputs(inputs)
        refs = references(tools, w, inputs)
        ctx = base_context(args, w, inputs)
        # Untraced one-shot aligns of the same pairs: the base of
        # cli.residual_ms.
        e2e = oneshot_phase(tools, w, inputs, refs, args.seconds * 0.25)
        if daemon is None:
            daemon = Daemon(tools, f"{inputs.data}/d.sock")
        argv = ["trace", "--method", w["method"], "--seconds", str(args.seconds * 0.75),
                "--import", inputs.nt[w["import_version"]],
                "--scratch", f"{inputs.data}/trace-import.rdfb", "--socket", daemon.sock]
        for src, tgt in inputs.pairs:
            argv += [src, tgt]
        tr = tools.helper_json(argv, "traced pass")
        cache = serve_stats(daemon)
    finally:
        if daemon is not None:
            daemon.stop()
    require_identity(tools, w, inputs, refs, e2e, ctx)
    if not e2e["align_ms"]:
        raise BenchError("no successful untraced align in the traced run")

    cold, warm, imp = tr["cold"], tr["warm"], tr["import"]
    # One-shot workloads report the cold (store-decoding) path; the
    # served workload reports the warm cache-hit path its aligns take.
    path = cold if w["kind"] == "oneshot" else warm
    e2e_p50 = statistics.median(e2e["align_ms"])
    rtt_p50 = warm["serve.round_trip_ms"]["median"]
    handle = warm["serve.handle_ms"]["median"]
    refine = path["align.refine_ms"]["median"]
    barrier = path["par.barrier_wait_ms"]["median"]
    lookups = cache["hits"] + cache["misses"]
    hit_ratio = cache["hits"] / lookups if lookups else 0.0
    cold_sum = layer_sum(cold, COLD_KEYS)
    warm_sum = layer_sum(warm, WARM_KEYS)

    def m(layers, key, unit="ms"):
        return metric(layers[key]["median"], unit)

    metrics = {
        "store.open_ms": m(cold, "store.open_ms"),
        "store.read_ms": m(cold, "store.read_ms"),
        "store.bytes_read": m(cold, "store.bytes_read", "bytes"),
        "store.write_ms": m(imp, "store.write_ms"),
        "io.parse_ms": m(imp, "io.parse_ms"),
        "model.rebase_ms": m(path, "model.rebase_ms"),
        "model.drop_ms": m(path, "model.drop_ms"),
        "model.union_ms": m(path, "model.union_ms"),
        "align.refine_ms": m(path, "align.refine_ms"),
        "align.refine_rounds": m(path, "align.refine_rounds", "count"),
        "align.overlap_match_ms": m(path, "align.overlap_match_ms"),
        "align.metrics_ms": m(path, "align.metrics_ms"),
        "par.barrier_wait_ms": metric(barrier, "ms"),
        "par.barrier_wait_share": metric(barrier / refine if refine else 0.0, "ratio"),
        "cli.render_ms": m(path, "cli.render_ms"),
        "cli.residual_ms": metric(e2e_p50 - cold_sum, "ms"),
        "serve.handle_ms": metric(handle, "ms"),
        "serve.transport_ms": metric(rtt_p50 - handle, "ms"),
        "serve.handle_residual_ms": metric(handle - warm_sum, "ms"),
        "serve.cache_hit_ratio": metric(hit_ratio, "ratio"),
        "serve.evictions": metric(cache["evictions"], "count"),
    }
    notes = {
        "par.barrier_wait_share": f"= {barrier:.3f} ms barrier wait (summed over "
                                  f"workers) / {refine:.3f} ms align.refine_ms",
        "serve.cache_hit_ratio": f"= {cache['hits']} hits / {lookups} lookups",
        "cli.residual_ms": f"= one-shot align_ms_p50 {e2e_p50:.3f} ms - "
                           f"sum of cold layer medians {cold_sum:.3f} ms",
        "serve.transport_ms": f"= round trip p50 {rtt_p50:.3f} ms (1 connection) - "
                              f"serve.handle_ms {handle:.3f} ms",
        "serve.handle_residual_ms": f"= serve.handle_ms {handle:.3f} ms - "
                                    f"sum of warm layer medians {warm_sum:.3f} ms",
    }
    ctx["samples"] = dict(
        oneshot_align=len(e2e["align_ms"]), traced_cold=cold["total_traced_ms"]["n"],
        traced_warm=warm["total_traced_ms"]["n"], traced_import=imp["io.parse_ms"]["n"])
    ctx["reported_path"] = "cold (one-shot)" if w["kind"] == "oneshot" else "warm (cache hit)"
    ctx["tracing_overhead"] = {
        name: dict(traced_ms=layers["total_traced_ms"]["median"],
                   untraced_ms=layers["total_untraced_ms"]["median"],
                   overhead_ms=layers["total_traced_ms"]["median"]
                   - layers["total_untraced_ms"]["median"])
        for name, layers in (("cold", cold), ("warm", warm))
    }
    ctx["decomposition"] = dict(
        oneshot_align_ms_p50=e2e_p50, cold_layer_sum_ms=cold_sum,
        served_round_trip_ms_p50=rtt_p50, warm_layer_sum_ms=warm_sum)
    ctx["cache"] = cache
    # Every helper sample is checked against the reference and aborts
    # the run on a mismatch, so only the one-shot runs can count failed.
    attempted = e2e["attempted"] + cold["total_traced_ms"]["n"] + warm["total_traced_ms"]["n"]
    return dict(metrics=metrics, notes=notes, printed=[], ctx=ctx,
                attempted=attempted, failed=e2e["failed"])


# --------------------------------------------------------------------------
# self-test


def self_test(tools):
    """The gate trips on a deliberately wrong reference, through the very
    phase functions the timed runs use, on a small EFO input."""
    w = dict(WORKLOADS["efo-serve-mix"], scale=1)
    inputs = Inputs(w, os.path.relpath(tools.work, ROOT))
    daemon = set_up(tools, w, inputs, DEFAULT_SEED)
    try:
        refs = references(tools, w, inputs)
        import_want = import_reference(tools, w, inputs)
        wrong_refs = {k: corrupt(v) for k, v in refs.items()}
        wrong_import = import_want[:-1] + bytes([import_want[-1] ^ 1])
        checks = []
        for label, r, imp, expect_all_failed in (
            ("right references", refs, import_want, False),
            ("wrong references", wrong_refs, wrong_import, True),
        ):
            one = oneshot_phase(tools, w, inputs, r, 0.5)
            one_imp = import_phase(tools, w, inputs, imp, 0.5)
            srv = serve_phase(daemon, w, inputs, r, imp, 1.0)
            for name, res in (("one-shot align", one), ("one-shot import", one_imp),
                              ("served", srv)):
                want = res["attempted"] if expect_all_failed else 0
                ok = res["failed"] == want and res["attempted"] > 0
                checks.append(ok)
                print(f"self-test {name} with {label}: {res['failed']}/{res['attempted']} "
                      f"failed -> {'ok' if ok else 'GATE BROKEN'}")
    finally:
        daemon.stop()
    return all(checks)


# --------------------------------------------------------------------------


def print_table(r):
    """Every metric with its unit and ratios with their base, then the
    printed-only figures (not in BENCHMARK.json; see README)."""
    for name, m in r["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.4f} {m['unit']:<6} {r['notes'].get(name, '')}")
    rows = r["printed"] + [("error_rate", r["failed"] / r["attempted"], "ratio",
                            f"= {r['failed']} failed / {r['attempted']} attempted")]
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>14.4f} {unit:<6} {note} (printed only)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    os.chdir(ROOT)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload or 'self-test'}-{os.getpid()}")
    try:
        rdf, helper = build()
        os.makedirs(work)
        tools = Tools(rdf, helper, work)
        if args.self_test:
            return 0 if self_test(tools) else 1
        w = WORKLOADS[args.workload]
        inputs = Inputs(w, os.path.relpath(work, ROOT))
        run = run_traced if args.trace else run_e2e
        result = run(args, tools, w, inputs)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    mode = "per-layer (traced pass)" if args.trace else "end-to-end (tracing off)"
    print(f"{args.workload} seed {args.seed}: {mode}")
    print_table(result)
    print("context " + json.dumps(result["ctx"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
