//! One caller of an in-process database: sends the mix's queries and
//! generated writes, checks every answer, and in the traced run times each
//! public call it makes as a span.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

use qof_core::{parse_query, FileDatabase, QueryResult};
use qof_corpus::bibtex::BibtexTruth;
use qof_corpus::LAST_NAMES;
use qof_grammar::Parser;
use qof_pat::Engine;

use crate::measure::{median, ms, timed, us, Report, Spans};
use crate::mix::{check, Answer, Files, Mix, Shape};

/// Expected answers, computed once per distinct query from the ground
/// truth of every file the database holds.
#[derive(Default)]
pub struct Oracle {
    truths: Vec<BibtexTruth>,
    cache: HashMap<String, Vec<String>>,
}

impl Oracle {
    pub fn new(truths: Vec<BibtexTruth>) -> Oracle {
        Oracle { truths, cache: HashMap::new() }
    }

    /// The database gained a file.
    pub fn add(&mut self, truth: BibtexTruth) {
        self.truths.push(truth);
        self.cache.clear();
    }

    pub fn expected(&mut self, shape: &Shape, sql: &str) -> &[String] {
        if !self.cache.contains_key(sql) {
            self.cache.insert(sql.to_owned(), shape.expected(&self.truths));
        }
        &self.cache[sql]
    }
}

/// Per-layer measurements of the traced run, one entry per call.
#[derive(Default)]
pub struct Layers {
    pub parse_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub cold_plan_us: Vec<f64>,
    pub engine_us: Vec<f64>,
    pub index_phase_us: Vec<f64>,
    pub materialize_us: Vec<f64>,
    pub server_query_us: Vec<f64>,
    pub server_overhead_us: Vec<f64>,
    pub corpus_clone_us: Vec<f64>,
    pub parse_file_us: Vec<f64>,
    /// Query latency rebuilt from the spans: the first `plan` call (which
    /// sees the plan cache as an untraced query would) plus the part of
    /// `query` that follows planning.
    pub latency_ms: Vec<f64>,
    pub plan_hits: u64,
    pub plan_lookups: u64,
    pub queries: u64,
    pub ops: u64,
    pub word_probes: u64,
    pub bytes_parsed: u64,
    pub value_nodes: u64,
    pub content_bytes: u64,
    pub candidates: u64,
    pub results: u64,
}

impl Layers {
    /// Prints the per-layer metrics of the query and write paths.
    pub fn report(&self, r: &mut Report) {
        let per_query = |x: u64| x as f64 / self.queries.max(1) as f64;
        r.metric("core.query.parse_us", median(&self.parse_us), "us");
        r.metric("core.plan.plan_us", median(&self.plan_us), "us");
        r.metric(
            "core.plan.cache_hit_ratio",
            self.plan_hits as f64 / self.plan_lookups.max(1) as f64,
            "ratio",
        );
        r.metric("core.plan.cache_lookups", self.plan_lookups as f64, "count");
        r.metric("core.plan.cold_plan_us", median(&self.cold_plan_us), "us");
        r.metric("pat.engine.setup_us", median(&self.engine_us), "us");
        r.metric("core.exec.index_phase_us", median(&self.index_phase_us), "us");
        let index_self: Vec<f64> =
            self.index_phase_us.iter().zip(&self.engine_us).map(|(i, e)| i - e).collect();
        r.metric("core.exec.index_self_us", median(&index_self), "us");
        r.metric("core.exec.materialize_us", median(&self.materialize_us), "us");
        r.metric("pat.ops_per_query", per_query(self.ops), "count");
        r.metric("text.word_probes_per_query", per_query(self.word_probes), "count");
        r.metric("grammar.bytes_parsed_per_query", per_query(self.bytes_parsed), "B");
        r.metric("db.value_nodes_per_query", per_query(self.value_nodes), "count");
        r.metric("core.exec.content_bytes_per_query", per_query(self.content_bytes), "B");
        r.metric(
            "core.exec.candidates_per_result",
            self.candidates as f64 / self.results.max(1) as f64,
            "ratio",
        );
        r.metric("core.exec.results_per_query", per_query(self.results), "count");
        r.metric("server.query_us", median(&self.server_query_us), "us");
        r.metric("server.overhead_us", median(&self.server_overhead_us), "us");
        r.metric("text.corpus_clone_us", median(&self.corpus_clone_us), "us");
        r.metric("grammar.parse_file_us", median(&self.parse_file_us), "us");
    }
}

/// The traced run's recorder: spans plus the layer figures derived from them.
#[derive(Default)]
pub struct Tracer {
    pub spans: Spans,
    pub layers: Layers,
}

/// A caller of one database.
pub struct Session {
    pub db: FileDatabase,
    pub oracle: Oracle,
    pub mix: Mix,
    pub tracer: Option<Tracer>,
    /// While set, traced queries add to the cold-plan figures only.
    probing: bool,
    next_op: u64,
}

impl Session {
    pub fn new(db: FileDatabase, oracle: Oracle, mix: Mix) -> Session {
        Session { db, oracle, mix, tracer: None, probing: false, next_op: 0 }
    }

    /// Sends `writes` to `db` in place of the session's own database, with
    /// a checked `SELECT r.Key` by author after every tenth write, whose
    /// plan is cold because the write invalidated the plan cache. The check
    /// is one light shape, not the mix, so no heavy query lands on the
    /// growing database at a random point and moves the memory high-water
    /// mark. The session's database, its query sequence and the query
    /// figures of its traced run are left as they were. Returns the
    /// `add_file` times in ms.
    pub fn write_probe(
        &mut self,
        report: &mut Report,
        db: FileDatabase,
        oracle: Oracle,
        writes: &Files,
    ) -> Vec<f64> {
        let own_db = std::mem::replace(&mut self.db, db);
        let own_oracle = std::mem::replace(&mut self.oracle, oracle);
        self.probing = true;
        let mut out = Vec::new();
        for (i, ((name, text), truth)) in writes.texts.iter().zip(&writes.truths).enumerate() {
            out.extend(self.write(report, name, text, truth));
            if i % 10 == 9 {
                let name = LAST_NAMES[(i / 10) % LAST_NAMES.len()];
                self.send(report, &Shape::AuthorKeys(name), true);
            }
        }
        self.probing = false;
        self.db = own_db;
        self.oracle = own_oracle;
        out
    }

    /// Sends the mix's next query and checks the answer. Returns the
    /// caller-observed latency in ms: the wall time of `FileDatabase::query`
    /// untraced, the span-rebuilt latency traced.
    pub fn query(&mut self, report: &mut Report) -> Option<f64> {
        let shape = self.mix.next_shape();
        self.send(report, &shape, false)
    }

    /// Sends `shape` and checks the answer, as [`Session::query`]. `cold`
    /// marks the first query after a write, whose plan time is kept apart.
    fn send(&mut self, report: &mut Report, shape: &Shape, cold: bool) -> Option<f64> {
        let sql = shape.sql();
        self.next_op += 1;
        let (result, latency) = match self.tracer.take() {
            None => {
                let (r, d) = timed(|| self.db.query(&sql));
                (r, ms(d))
            }
            Some(mut t) => {
                let out = if self.probing {
                    let mut scratch = Layers::default();
                    let out = traced_query(
                        &self.db,
                        &sql,
                        &mut t.spans,
                        &mut scratch,
                        self.next_op,
                        cold,
                    );
                    t.layers.cold_plan_us.extend(scratch.cold_plan_us);
                    out
                } else {
                    traced_query(&self.db, &sql, &mut t.spans, &mut t.layers, self.next_op, cold)
                };
                self.tracer = Some(t);
                out
            }
        };
        let res = report.op(result)?;
        let got = Answer::from_result(&res, self.db.corpus());
        if let Err(why) = check(shape, self.oracle.expected(shape, &sql), &got) {
            report.wrong(why);
        }
        Some(latency)
    }

    /// Adds one generated file. Returns the wall time of
    /// `FileDatabase::add_file` in ms.
    pub fn write(
        &mut self,
        report: &mut Report,
        name: &str,
        text: &str,
        truth: &BibtexTruth,
    ) -> Option<f64> {
        self.next_op += 1;
        let op = self.next_op;
        let result = match &mut self.tracer {
            None => timed(|| self.db.add_file(name, text)),
            Some(t) => {
                let root = t.spans.open("write", None, op);
                let (_, clone) = t.spans.record("text.corpus_clone", Some(root), op, || {
                    black_box(self.db.corpus().clone());
                });
                let grammar = &self.db.schema().grammar;
                let end = u32::try_from(text.len()).expect("a generated file is under 4 GiB");
                let (_, parse) = t.spans.record("grammar.parse_file", Some(root), op, || {
                    black_box(Parser::new(grammar, text).parse_root(0..end).is_ok());
                });
                t.layers.corpus_clone_us.push(us(clone));
                t.layers.parse_file_us.push(us(parse));
                let out = t
                    .spans
                    .record("core.exec.add_file", Some(root), op, || self.db.add_file(name, text));
                t.spans.close(root);
                out
            }
        };
        let (r, d) = result;
        report.op(r)?;
        self.oracle.add(truth.clone());
        Some(ms(d))
    }
}

/// One query through each public layer call in turn, every call a span.
/// The first `plan` sees the plan cache as the untraced query would; every
/// later call is warm, so each difference compares like with like.
fn traced_query(
    db: &FileDatabase,
    sql: &str,
    spans: &mut Spans,
    layers: &mut Layers,
    op: u64,
    cold: bool,
) -> (Result<QueryResult, qof_core::QueryError>, f64) {
    let root = spans.open("query", None, op);
    let out = traced_calls(db, sql, spans, layers, root, op, cold);
    spans.close(root);
    match out {
        Ok((res, latency)) => (Ok(res), latency),
        Err(e) => (Err(e), 0.0),
    }
}

fn traced_calls(
    db: &FileDatabase,
    sql: &str,
    s: &mut Spans,
    l: &mut Layers,
    root: usize,
    op: u64,
    cold: bool,
) -> Result<(QueryResult, f64), qof_core::QueryError> {
    let (parsed, parse) = s.record("core.query.parse_query", Some(root), op, || parse_query(sql));
    parsed?;
    let before = db.plan_cache_stats();
    let (plan, plan_first) = s.record("core.plan.plan", Some(root), op, || db.plan(sql));
    plan?;
    let after = db.plan_cache_stats();
    // The first `query` runs right after the first `plan`, as in an
    // untraced call; the later calls repeat the same work warm.
    let (res, query) = s.record("core.exec.query", Some(root), op, || db.query(sql));
    let res = res?;
    let (_, plan_warm) = s.record("core.plan.plan_warm", Some(root), op, || db.plan(sql));
    let (_, engine) = s.record("pat.engine.new", Some(root), op, || {
        black_box(Engine::new(db.corpus(), db.word_index(), db.instance()));
    });
    let (regions, index) =
        s.record("core.exec.query_regions", Some(root), op, || db.query_regions(sql));
    regions?;
    let (_, query_warm) = s.record("core.exec.query_warm", Some(root), op, || db.query(sql));
    let (traced, traced_wall) =
        s.record("server.query_traced", Some(root), op, || db.query_traced(sql));
    let (_, trace) = traced?;

    l.parse_us.push(us(parse));
    let plan_us = us(plan_first) - us(parse);
    l.plan_us.push(plan_us);
    if cold {
        l.cold_plan_us.push(plan_us);
    }
    l.plan_hits += after.hits - before.hits;
    l.plan_lookups += (after.hits + after.misses) - (before.hits + before.misses);
    l.engine_us.push(us(engine));
    l.index_phase_us.push(us(index) - us(plan_warm));
    l.materialize_us.push(us(query_warm) - us(index));
    let total = Duration::from_nanos(trace.total_nanos);
    l.server_query_us.push(us(total));
    l.server_overhead_us.push(us(traced_wall) - us(total));
    l.latency_ms.push(ms(plan_first) + ms(query) - ms(plan_warm));
    l.queries += 1;
    let st = &res.stats;
    l.ops += st.eval.total_ops();
    l.word_probes += st.eval.word_probes;
    l.bytes_parsed += st.parse.bytes_scanned;
    l.value_nodes += st.db.value_nodes;
    l.content_bytes += st.content_bytes;
    l.candidates += st.candidates as u64;
    l.results += st.results as u64;
    let latency = *l.latency_ms.last().unwrap_or(&0.0);
    Ok((res, latency))
}
