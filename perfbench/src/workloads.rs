//! The three workloads. A run is a series of rounds; each round sets the
//! database up once more, sends a burst of writes to that fresh database,
//! and then runs its share of the measured closed loop. Spreading set-ups,
//! writes and reads over the whole run lets each metric sample the same
//! stretch of machine time, and every end-to-end timing is the median of
//! its per-round values, so a few rounds that a busy host slows down do not
//! move it. In the traced run the second half of the rounds records every
//! public call as a span.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qof_core::FileDatabase;
use qof_corpus::bibtex;
use qof_grammar::IndexSpec;

use crate::measure::{median, ms, peak_rss_mb, percentile, timed, Report};
use crate::mix::{check, derive, Files, Mix, MixKind};
use crate::serve::{parse_reply, start, Conn};
use crate::session::{Oracle, Session, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExactLookup,
    PartialResidual,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ExactLookup, Workload::PartialResidual, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactLookup => "exact-lookup",
            Workload::PartialResidual => "partial-residual",
            Workload::Serve => "serve",
        }
    }
}

/// Input sizes and repetition counts.
pub struct Scale {
    /// Files and references per file of the corpus.
    pub files: usize,
    pub refs: usize,
    /// References per written file.
    pub write_refs: usize,
    /// Rounds per run.
    pub rounds: usize,
    /// Writes in each round's burst.
    pub round_writes: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        files: 16,
        refs: 200,
        write_refs: 10,
        // Every end-to-end timing is the median of its per-round values.
        rounds: 20,
        // The first two or three writes to a freshly built or opened
        // database cost about three times a later one. At 100 writes a
        // burst they are under 5% of its writes, so the burst's p95 falls
        // among the later writes, not on the edge between the two groups.
        round_writes: 100,
    };
    /// For the self-test: every code path, a fraction of the work.
    pub const SMALL: Scale =
        Scale { files: 3, refs: 30, write_refs: 5, rounds: 2, round_writes: 10 };
}

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for `.qofx` files and query logs.
    pub work: PathBuf,
    /// Where the traced run writes its span file.
    pub out: PathBuf,
}

impl Ctx {
    /// Measured seconds per round.
    fn slice(&self) -> f64 {
        self.seconds / self.scale.rounds as f64
    }

    /// Seconds of closed-loop load in a round that began at `began`: what
    /// its set-up and write burst left of the slice, so a run lasts about
    /// `seconds`, but never under a quarter of the slice.
    fn window(&self, began: Instant) -> f64 {
        (self.slice() - began.elapsed().as_secs_f64()).max(self.slice() / 4.0)
    }

    /// Whether `round` is traced: the second half of a traced run.
    fn traced_round(&self, round: usize) -> bool {
        self.trace && round >= self.scale.rounds / 2
    }

    /// The files every round's write burst adds to its fresh database.
    fn burst(&self) -> Files {
        Files::generate(
            self.seed,
            WRITE_STREAM,
            "w",
            self.scale.round_writes,
            self.scale.write_refs,
        )
    }
}

/// Concurrent connections of `serve`.
const CLIENTS: usize = 2;
/// Seed streams (see [`derive`]); corpus files take streams `0..files`.
const MIX_STREAM: u64 = 1_000;
const HTTP_STREAM: u64 = 2_000;
const WRITE_STREAM: u64 = 100_000;

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    println!(
        "workload {} seed {} window {}s trace {}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    match ctx.workload {
        Workload::ExactLookup => in_process(ctx, r, &IndexSpec::full(), MixKind::Lookup),
        Workload::PartialResidual => {
            in_process(ctx, r, &IndexSpec::names(["Reference", "Last_Name"]), MixKind::Residual)
        }
        Workload::Serve => serve_workload(ctx, r),
    }
}

fn describe(files: &Files, db: &FileDatabase, spec: &str, mix: MixKind, clients: usize) {
    let regions: usize = db.instance().iter().map(|(_, s)| s.len()).sum();
    println!(
        "corpus: {} files, {} bytes, {regions} regions indexed ({spec})",
        files.texts.len(),
        files.bytes()
    );
    println!("mix: {}; {clients} closed-loop caller(s)", mix.describe());
}

/// Set-up times of a run, in seconds.
#[derive(Default)]
struct Setups {
    /// From the file texts (or the `.qofx` file) to a database ready to
    /// answer.
    setup: Vec<f64>,
    /// `FileDatabase::build`.
    build: Vec<f64>,
    /// `FileDatabase::open` (`serve`).
    open: Vec<f64>,
    /// `serve()` up to the first `200` from `/healthz` (`serve`).
    ready: Vec<f64>,
}

impl Setups {
    /// Builds the database from the file texts: `CorpusBuilder`, then
    /// `FileDatabase::build`.
    fn build(
        &mut self,
        files: &Files,
        spec: &IndexSpec,
        tracer: Option<&mut Tracer>,
    ) -> Result<FileDatabase, String> {
        let t = Instant::now();
        let corpus = files.corpus();
        let corpus_done = t.elapsed();
        let db = FileDatabase::build(corpus, bibtex::schema(), spec.clone());
        let total = t.elapsed();
        self.setup.push(total.as_secs_f64());
        self.build.push((total - corpus_done).as_secs_f64());
        if let Some(tr) = tracer {
            let s = &mut tr.spans;
            let at =
                |d: Duration| u64::try_from((t + d - s.origin()).as_nanos()).unwrap_or(u64::MAX);
            let (begin, mid, end) = (at(Duration::ZERO), at(corpus_done), at(total));
            let root = s.push("setup", begin, end, None, 0);
            s.push("text.corpus_build", begin, mid, Some(root), 0);
            s.push("core.exec.build", mid, end, Some(root), 0);
        }
        db.map_err(|e| e.to_string())
    }
}

/// The end-to-end timings of each untraced round.
#[derive(Default)]
struct Rounds {
    latency_p50: Vec<f64>,
    latency_p95: Vec<f64>,
    throughput: Vec<f64>,
    ingest_p50: Vec<f64>,
    ingest_p95: Vec<f64>,
}

impl Rounds {
    /// Adds one round: the latencies in ms of the queries its window of
    /// `secs` seconds completed, and its `add_file` times in ms.
    fn push(&mut self, latencies: &[f64], secs: f64, writes: &[f64]) {
        self.latency_p50.push(percentile(latencies, 50.0));
        self.latency_p95.push(percentile(latencies, 95.0));
        self.throughput.push(latencies.len() as f64 / secs);
        self.ingest_p50.push(percentile(writes, 50.0));
        self.ingest_p95.push(percentile(writes, 95.0));
    }
}

/// Closed loop of queries for `secs`: latencies in ms and the loop's wall
/// time in seconds.
fn query_window(s: &mut Session, r: &mut Report, secs: f64) -> (Vec<f64>, f64) {
    let t = Instant::now();
    let mut lat = Vec::new();
    while t.elapsed().as_secs_f64() < secs {
        lat.extend(s.query(r));
    }
    (lat, t.elapsed().as_secs_f64())
}

/// Bytes of the database on disk and in memory, and the cost of
/// persisting it and of serving it again.
struct Footprint {
    index_per_byte: f64,
    qofx_per_byte: f64,
    persist_s: f64,
    open_s: Vec<f64>,
    ready_s: Vec<f64>,
}

fn footprint(db: &FileDatabase, ctx: &Ctx) -> Result<Footprint, String> {
    let corpus = f64::from(db.corpus().len());
    let path = ctx.work.join("footprint.qofx");
    let (bytes, persist) = timed(|| db.persist(&path));
    let bytes = bytes.map_err(|e| e.to_string())?;
    let mut f = Footprint {
        index_per_byte: db.index_bytes() as f64 / corpus,
        qofx_per_byte: (bytes as f64 - corpus) / corpus,
        persist_s: persist.as_secs_f64(),
        open_s: Vec::new(),
        ready_s: Vec::new(),
    };
    if ctx.trace {
        for _ in 0..ctx.scale.rounds / 2 {
            let s = start(&path, &ctx.work.join("footprint.log"))?;
            f.open_s.push(s.open.as_secs_f64());
            f.ready_s.push(s.ready.as_secs_f64());
            s.handle.shutdown();
        }
    }
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(f)
}

/// The end-to-end metrics every workload prints untraced: each timing is
/// the median over the rounds.
fn end_to_end(r: &mut Report, setup: &[f64], rounds: &Rounds, f: &Footprint) {
    r.metric("setup_s", median(setup), "s");
    r.metric("latency_p50_ms", median(&rounds.latency_p50), "ms");
    r.metric("latency_p95_ms", median(&rounds.latency_p95), "ms");
    r.metric("throughput_qps", median(&rounds.throughput), "1/s");
    r.metric("ingest_p50_ms", median(&rounds.ingest_p50), "ms");
    r.metric("ingest_p95_ms", median(&rounds.ingest_p95), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("index_bytes_per_byte", f.index_per_byte, "B/B");
    r.metric("qofx_bytes_per_byte", f.qofx_per_byte, "B/B");
}

/// The traced run's metrics: the query and write layers, set-up layers,
/// and the overhead ratio; then the self-time table and the span file.
fn traced_layers(
    ctx: &Ctx,
    r: &mut Report,
    t: &Tracer,
    build: &[f64],
    f: &Footprint,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
) -> Result<(), String> {
    t.layers.report(r);
    r.metric("core.exec.build_s", median(build), "s");
    r.metric("core.qofx.persist_s", f.persist_s, "s");
    r.metric("core.qofx.open_s", median(&f.open_s), "s");
    r.metric("server.ready_s", median(&f.ready_s), "s");
    r.metric("tracing_overhead_ratio", traced_p50_ms / untraced_p50_ms, "ratio");
    println!("untraced latency p50: {untraced_p50_ms:.4} ms; traced self time per span (median):");
    for (name, self_us, n) in t.spans.self_times() {
        println!("  {name:<32} {self_us:>12.2} us  ({n} spans)");
    }
    let path = ctx.out.join(format!("spans-{}-seed{}.json", ctx.workload.name(), ctx.seed));
    t.spans.write(&path, ctx.workload.name(), ctx.seed).map_err(|e| e.to_string())?;
    println!("span file: {}", path.display());
    Ok(())
}

/// `exact-lookup` and `partial-residual`: one caller, one in-process
/// database.
fn in_process(ctx: &Ctx, r: &mut Report, spec: &IndexSpec, kind: MixKind) -> Result<(), String> {
    let files = Files::generate(ctx.seed, 0, "f", ctx.scale.files, ctx.scale.refs);
    let mut setups = Setups::default();
    let db = setups.build(&files, spec, None)?;
    let label = if spec.is_full() { "full index" } else { "index on Reference, Last_Name" };
    describe(&files, &db, label, kind, 1);
    println!(
        "writes: per round, {} {}-ref files to a fresh database, a SELECT r.Key by author after every tenth",
        ctx.scale.round_writes, ctx.scale.write_refs
    );
    let oracle = || Oracle::new(files.truths.clone());
    let burst = ctx.burst();
    let mut s = Session::new(db, oracle(), Mix::new(kind, derive(ctx.seed, MIX_STREAM)));
    let mut rounds = Rounds::default();
    for round in 0..ctx.scale.rounds {
        if ctx.traced_round(round) && s.tracer.is_none() {
            s.tracer = Some(Tracer::default());
        }
        let began = Instant::now();
        let fresh = setups.build(&files, spec, s.tracer.as_mut())?;
        let writes = s.write_probe(r, fresh, oracle(), &burst);
        let (lat, secs) = query_window(&mut s, r, ctx.window(began));
        if s.tracer.is_none() {
            rounds.push(&lat, secs, &writes);
        }
    }
    let f = footprint(&s.db, ctx)?;
    match s.tracer.take() {
        None => end_to_end(r, &setups.setup, &rounds, &f),
        Some(t) => {
            let traced = median(&t.layers.latency_ms);
            traced_layers(ctx, r, &t, &setups.build, &f, median(&rounds.latency_p50), traced)?;
        }
    }
    Ok(())
}

/// What one load-generator connection saw.
#[derive(Default)]
struct ClientOut {
    rtt_ms: Vec<f64>,
    server_us: Vec<f64>,
    overhead_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    /// Start and end of each round trip, in ns since the load's origin.
    spans: Vec<(u64, u64)>,
}

/// `CLIENTS` closed-loop connections posting the lookup mix for `secs`.
/// Returns each connection's results and the window's wall time; span
/// times count from `origin`.
fn http_load(
    addr: SocketAddr,
    files: &Files,
    seed: u64,
    secs: f64,
    round: usize,
    origin: Instant,
) -> (Vec<ClientOut>, f64) {
    let begin = Instant::now();
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = HTTP_STREAM + (100 * round + c) as u64;
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut oracle = Oracle::new(files.truths.clone());
                    let mut mix = Mix::new(MixKind::Lookup, derive(seed, stream));
                    let mut conn: Option<Conn> = None;
                    while begin.elapsed().as_secs_f64() < secs {
                        let shape = mix.next_shape();
                        let sql = shape.sql();
                        out.attempted += 1;
                        let t0 = origin.elapsed();
                        let reply = match conn.as_mut() {
                            Some(c) => Ok(c),
                            None => Conn::connect(addr).map(|c| conn.insert(c)),
                        }
                        .and_then(|c| c.request("POST", "/query", &sql));
                        let t1 = origin.elapsed();
                        let parsed = match reply {
                            Ok((200, body)) => parse_reply(&body),
                            Ok((status, body)) => Err(format!("status {status}: {body}")),
                            Err(e) => {
                                conn = None;
                                Err(e.to_string())
                            }
                        };
                        let (answer, total) = match parsed {
                            Ok(a) => a,
                            Err(e) => {
                                out.failed += 1;
                                eprintln!("request failed: {e}");
                                continue;
                            }
                        };
                        if let Err(why) = check(&shape, oracle.expected(&shape, &sql), &answer) {
                            out.wrong.push(why);
                        }
                        let rtt = t1 - t0;
                        out.rtt_ms.push(ms(rtt));
                        out.server_us.push(total as f64 / 1e3);
                        out.overhead_us.push((rtt.as_nanos() as f64 - total as f64) / 1e3);
                        out.spans.push((ns(t0), ns(t1)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread does not panic"))
            .collect::<Vec<_>>()
    });
    (outs, begin.elapsed().as_secs_f64())
}

/// `serve`: the lookup mix over HTTP against `qof_server::serve` on the
/// corpus reopened from a `.qofx` file.
fn serve_workload(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let files = Files::generate(ctx.seed, 0, "f", ctx.scale.files, ctx.scale.refs);
    let (db, build) =
        timed(|| FileDatabase::build(files.corpus(), bibtex::schema(), IndexSpec::full()));
    let db = db.map_err(|e| e.to_string())?;
    describe(&files, &db, "full index, reopened from .qofx", MixKind::Lookup, CLIENTS);
    println!(
        "writes: per round, {} {}-ref files to the .qofx file opened in process, a SELECT r.Key by author after every tenth",
        ctx.scale.round_writes, ctx.scale.write_refs
    );
    let qofx = ctx.work.join("serve.qofx");
    let (bytes, persist) = timed(|| db.persist(&qofx));
    let bytes = bytes.map_err(|e| e.to_string())?;
    let corpus = f64::from(db.corpus().len());
    drop(db);

    let mut setups = Setups::default();
    let start_server = |setups: &mut Setups, log: &str| {
        let s = start(&qofx, &ctx.work.join(log))?;
        setups.setup.push((s.open + s.ready).as_secs_f64());
        setups.open.push(s.open.as_secs_f64());
        setups.ready.push(s.ready.as_secs_f64());
        Ok::<_, String>(s)
    };
    let server = start_server(&mut setups, "query.log")?;
    let addr = server.handle.addr();
    let reopen = || FileDatabase::open(&qofx, bibtex::schema()).map_err(|e| e.to_string());
    let oracle = || Oracle::new(files.truths.clone());
    let burst = ctx.burst();
    let mut s =
        Session::new(reopen()?, oracle(), Mix::new(MixKind::Lookup, derive(ctx.seed, MIX_STREAM)));
    let (mut rounds, mut answered, mut traced_rtt) = (Rounds::default(), 0, Vec::new());
    let (mut server_us, mut overhead_us) = (Vec::new(), Vec::new());
    for round in 0..ctx.scale.rounds {
        let traced = ctx.traced_round(round);
        if traced && s.tracer.is_none() {
            s.tracer = Some(Tracer::default());
        }
        let began = Instant::now();
        start_server(&mut setups, "setup.log")?.handle.shutdown();
        let writes = s.write_probe(r, reopen()?, oracle(), &burst);
        let origin = s.tracer.as_ref().map_or_else(Instant::now, |t| t.spans.origin());
        let window = ctx.window(began);
        let load_secs = if traced { window / 2.0 } else { window };
        let (outs, secs) = http_load(addr, &files, ctx.seed, load_secs, round, origin);
        let mut rtt = Vec::new();
        for (c, o) in outs.into_iter().enumerate() {
            r.attempted += o.attempted;
            r.failed += o.failed;
            answered += o.rtt_ms.len();
            o.wrong.into_iter().for_each(|w| r.wrong(w));
            let Some(t) = s.tracer.as_mut() else {
                rtt.extend(o.rtt_ms);
                continue;
            };
            for (i, (start_ns, end_ns)) in o.spans.into_iter().enumerate() {
                let op = ((round as u64) << 40) | ((c as u64) << 32) | i as u64;
                t.spans.push("server.http_round_trip", start_ns, end_ns, None, op);
            }
            traced_rtt.extend(o.rtt_ms);
            server_us.extend(o.server_us);
            overhead_us.extend(o.overhead_us);
        }
        if traced {
            // The layer breakdown, in process on the same `.qofx` file.
            query_window(&mut s, r, window / 2.0);
        } else {
            rounds.push(&rtt, secs, &writes);
        }
    }
    let index_bytes = server.index_bytes;
    server.handle.shutdown();
    // The query log holds one line per request that reached the engine,
    // so at least one per answered request.
    let log = std::fs::read_to_string(ctx.work.join("query.log")).map_err(|e| e.to_string())?;
    if log.lines().count() < answered {
        r.wrong(format!(
            "query log has {} lines for {answered} answered requests",
            log.lines().count()
        ));
    }
    let f = Footprint {
        index_per_byte: index_bytes as f64 / corpus,
        qofx_per_byte: (bytes as f64 - corpus) / corpus,
        persist_s: persist.as_secs_f64(),
        open_s: setups.open,
        ready_s: setups.ready,
    };
    match s.tracer.take() {
        None => end_to_end(r, &setups.setup, &rounds, &f),
        Some(mut t) => {
            // The server layer is what the connections saw.
            t.layers.server_query_us = server_us;
            t.layers.server_overhead_us = overhead_us;
            let build = [build.as_secs_f64()];
            let untraced = median(&rounds.latency_p50);
            traced_layers(ctx, r, &t, &build, &f, untraced, median(&traced_rtt))?;
        }
    }
    Ok(())
}
