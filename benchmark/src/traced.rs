//! The traced run: each workload's request stream replayed in-process,
//! one thread, through the public functions the daemon and `lapq run`
//! are built from, with a benchmark-side span around every call.
//!
//! The replay follows the daemon's request path (frame decode, canonical
//! key, plan cache, facts, execution, rendering, the per-request journal
//! copy and fold, frame encode) and the client's (request encode,
//! response decode). Three differences from the daemon are deliberate
//! and are stated in `benchmark/README.md`: a compile calls `plan_star`
//! once more than the daemon does so PLAN\* gets its own span; execution
//! goes through the public `answer_star_*planned_cfg` entry points, which
//! lower the cached plans again; and the session recorder traces, so the
//! program's own `answer*.under` / `answer*.over` spans split execution.

use crate::trace::{per_request_us, self_times, span_cost_ns, Tracer};
use crate::workload::{exec_settings, exhausted, Request, Workload};
use lap::core::{
    answer_star_planned_obs_cfg, answer_star_resilient_planned_cfg, canonical_text,
    feasible_detailed_with, lower_pair, plan_star, render_answer_report, render_outcome,
    AnswerReport, ContainmentEngine, DecisionPath, EngineConfig, PlanCache, PlanPair,
};
use lap::engine::Database;
use lap::ir::{parse_program, Schema, UnionQuery};
use lap::obs::{FeedbackStore, FoldCursor, JournalConfig, Json, Recorder, SpanNode};
use lap::proto::{read_frame, write_frame, Request as Wire, Response, MAX_FRAME_BYTES};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A compiled program as the replay's plan cache holds it.
struct Compiled {
    schema: Schema,
    queries: Vec<(UnionQuery, PlanPair)>,
    /// `PreparedProgram::estimated_bytes` of the same program, so the
    /// replay's cache evicts exactly as the daemon's does.
    bytes: usize,
}

/// Per-layer figures of one traced replay.
#[derive(Default)]
pub struct Replay {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests replayed.
    pub attempted: u64,
    /// Replayed requests whose rendering differed from the reference.
    pub failed: u64,
    /// Median in-process time of one request, in microseconds.
    pub request_p50_us: f64,
    /// Per layer, the median per-request time in microseconds.
    pub layer_p50_us: BTreeMap<&'static str, f64>,
}

/// Counters gathered beside the spans.
#[derive(Default)]
struct Tally {
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    answer_bytes: Vec<f64>,
    facts_bytes: Vec<f64>,
    snapshot_events: u64,
    folded_events: u64,
    snapshots: u64,
    executions: u64,
    source_calls: u64,
    tuples: u64,
    answers: u64,
    /// Per `core.feasible` span, in order: did it run the containment check?
    feasible_contained: Vec<bool>,
    under_us: Vec<f64>,
    over_us: Vec<f64>,
}

/// Replays a `serve-*` workload for `budget`, sessions alternating
/// between the client streams, against a plan cache of `cache_bytes`.
pub fn replay_serve(w: &Workload, cache_bytes: usize, budget: Duration) -> Result<Replay, String> {
    let cache: PlanCache<Compiled> = PlanCache::new(cache_bytes);
    let engine = ContainmentEngine::new(EngineConfig {
        parallel: false,
        cache: true,
    });
    let mut published = Arc::new(FeedbackStore::new());
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut out = Replay::default();
    let mut positions = vec![0usize; w.streams.len()];
    let mut id = 0u64;
    let begun = Instant::now();
    let deadline = begun + budget;
    'run: loop {
        for (client, stream) in w.streams.iter().enumerate() {
            let session = Recorder::with_tracing_and_journal(JournalConfig::light());
            let mut cursor = FoldCursor::new();
            for _ in 0..w.session_len {
                if Instant::now() >= deadline && out.attempted > 0 {
                    collect_execution_spans(&session, &mut tally);
                    break 'run;
                }
                if positions[client] == stream.len() && !w.cyclic {
                    return Err(exhausted(w));
                }
                let req = &stream[positions[client] % stream.len()];
                positions[client] += 1;
                id += 1;
                tracer.set_request(id);
                let ctx = Ctx {
                    cache: &cache,
                    engine: &engine,
                    session: &session,
                };
                let text = tracer.span("request", |t| {
                    serve_one(t, &ctx, req, id, &mut cursor, &mut published, &mut tally)
                })?;
                out.attempted += 1;
                if text != req.expected {
                    out.failed += 1;
                }
            }
            collect_execution_spans(&session, &mut tally);
        }
    }
    let wall = begun.elapsed();
    let stats = cache.stats();
    let engine_stats = engine.stats();
    let m = &mut out.metrics;
    m.insert("cache.hit_rate", stats.hit_rate());
    m.insert("cache.evictions", stats.evictions as f64);
    m.insert("containment.decisions", engine_stats.decisions as f64);
    m.insert(
        "containment.memo_hit_rate",
        ratio(
            engine_stats.cache_hits as f64,
            engine_stats.decisions as f64,
        ),
    );
    m.insert(
        "containment.recursive_calls",
        engine_stats.procedure.recursive_calls as f64,
    );
    summarise(&tracer, &tally, wall, &mut out);
    Ok(out)
}

struct Ctx<'a> {
    cache: &'a PlanCache<Compiled>,
    engine: &'a ContainmentEngine,
    session: &'a Recorder,
}

/// One request through the client and daemon paths; returns the text the
/// client decoded from the response frame.
fn serve_one(
    t: &mut Tracer,
    ctx: &Ctx<'_>,
    req: &Request,
    id: u64,
    cursor: &mut FoldCursor,
    published: &mut Arc<FeedbackStore>,
    tally: &mut Tally,
) -> Result<String, String> {
    let frame = t.span("proto.encode", |_| {
        encode(&crate::e2e::wire(req, id).to_json())
    });
    tally.request_bytes.push(frame.len() as f64);
    let decoded = t.span("proto.decode", |_| {
        read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())
            .and_then(|doc| Wire::from_json(&doc))
    })?;
    let Wire::Query {
        program,
        facts,
        options,
        ..
    } = decoded
    else {
        return Err("replayed frame is not a query".to_owned());
    };
    let (exec, resilience) = exec_settings(&options);
    let (compiled, hit) = t.span("cache.lookup", |t| {
        let key = canonical_text(&program);
        ctx.cache.get_or_compile(
            &key,
            |c| c.bytes,
            || compile(t, &program, ctx.engine, tally),
        )
    })?;
    tally.facts_bytes.push(facts.len() as f64);
    let db = t
        .span("engine.facts_parse", |_| Database::from_facts(&facts))
        .map_err(|e| format!("facts: {e}"))?;
    let mut text = String::new();
    for (query, plans) in &compiled.queries {
        let sig = query.signature.0;
        text.push_str(&format!("query {sig}:\n"));
        let (rendered, report) = match &resilience {
            Some(res) => {
                let outcome = t
                    .span("engine.execute", |_| {
                        answer_star_resilient_planned_cfg(
                            query,
                            plans,
                            &compiled.schema,
                            &db,
                            ctx.session,
                            res,
                            exec,
                        )
                    })
                    .map_err(|e| format!("evaluating {sig}: {e}"))?;
                (
                    t.span("core.render", |_| render_outcome(&outcome)),
                    outcome.report,
                )
            }
            None => {
                let report = t
                    .span("engine.execute", |_| {
                        answer_star_planned_obs_cfg(
                            query,
                            plans,
                            &compiled.schema,
                            &db,
                            ctx.session,
                            exec,
                        )
                    })
                    .map_err(|e| format!("evaluating {sig}: {e}"))?;
                let rendered = t.span("core.render", |_| render_answer_report(&report) + "\n");
                (rendered, report)
            }
        };
        text.push_str(&rendered);
        count_execution(&report, tally);
    }
    tally.answer_bytes.push(text.len() as f64);

    // The daemon's per-request telemetry step: copy the session journal,
    // then fold its unseen suffix into a clone of the shared store.
    let journal = ctx
        .session
        .journal()
        .expect("session recorder has a journal");
    let snapshot = t.span("obs.snapshot", |_| journal.snapshot());
    tally.snapshots += 1;
    tally.snapshot_events += snapshot.events.len() as u64;
    let folded = t.span("obs.fold", |_| {
        let mut next = (**published).clone();
        let folded = next.fold_since(&snapshot, cursor);
        if folded > 0 {
            *published = Arc::new(next);
        }
        folded
    });
    tally.folded_events += folded;
    // Freeing the copy is part of its cost; the daemon frees it inside
    // the same call that folds it.
    t.span("obs.snapshot", |_| drop(snapshot));

    let data = Json::obj([
        ("cache_hit", Json::Bool(hit)),
        ("queries", Json::num(compiled.queries.len() as u64)),
    ]);
    let response = Response::Ok { id, text, data };
    let frame = t.span("proto.encode", |_| encode(&response.to_json()));
    tally.response_bytes.push(frame.len() as f64);
    let answer = t.span("proto.decode", |_| {
        read_frame(&mut frame.as_slice(), MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())
            .and_then(|doc| Response::from_json(&doc))
    })?;
    match answer {
        Response::Ok { text, .. } => Ok(text),
        Response::Error { message, .. } => Err(message),
    }
}

fn encode(doc: &Json) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, doc).expect("in-memory write");
    buf
}

/// The miss path: parse, PLAN\*, FEASIBLE on the shared memoized engine,
/// and lowering, each in its own span.
fn compile(
    t: &mut Tracer,
    program: &str,
    engine: &ContainmentEngine,
    tally: &mut Tally,
) -> Result<Compiled, String> {
    let parsed = t
        .span("ir.parse", |_| parse_program(program))
        .map_err(|e| format!("program: {e}"))?;
    let schema_bytes = parsed.schema.to_string().len();
    let mut queries = Vec::with_capacity(parsed.queries.len());
    let mut bytes = 0;
    for query in &parsed.queries {
        t.span("core.plan_star", |_| {
            std::hint::black_box(plan_star(query, &parsed.schema))
        });
        let report = t.span("core.feasible", |_| {
            feasible_detailed_with(query, &parsed.schema, engine)
        });
        tally
            .feasible_contained
            .push(report.decided_by == DecisionPath::ContainmentCheck);
        let physical = t.span("engine.lower", |_| {
            lower_pair(&report.plans, &parsed.schema)
        });
        bytes += query.to_string().len()
            + schema_bytes
            + physical.under.to_string().len()
            + physical.over.to_string().len();
        queries.push((query.clone(), report.plans));
    }
    Ok(Compiled {
        schema: parsed.schema,
        queries,
        bytes,
    })
}

fn count_execution(report: &AnswerReport, tally: &mut Tally) {
    tally.executions += 1;
    tally.source_calls += report.stats.calls;
    tally.tuples += report.stats.tuples_returned;
    tally.answers += (report.under.len() + report.delta.len()) as u64;
}

/// Reads the program's own `answer*.under` / `answer*.over` spans out of
/// a finished session's recorder.
fn collect_execution_spans(session: &Recorder, tally: &mut Tally) {
    fn walk(node: &SpanNode, tally: &mut Tally) {
        match node.name.as_str() {
            "answer*.under" => tally.under_us.push(node.elapsed.as_secs_f64() * 1e6),
            "answer*.over" => tally.over_us.push(node.elapsed.as_secs_f64() * 1e6),
            _ => node.children.iter().for_each(|c| walk(c, tally)),
        }
    }
    for root in &session.snapshot().spans {
        walk(root, tally);
    }
}

/// Replays `lapq run` on the `oneshot` workload for `budget` (at least one
/// pass over its instances, in stream order): parse, facts, PLAN\*,
/// lowering, ANSWER\* and rendering per invocation, each in its own span.
pub fn replay_oneshot(w: &Workload, budget: Duration) -> Result<Replay, String> {
    let stream = &w.streams[0];
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut out = Replay::default();
    let begun = Instant::now();
    while (out.attempted as usize) < stream.len() || begun.elapsed() < budget {
        let req = &stream[out.attempted as usize % stream.len()];
        out.attempted += 1;
        tracer.set_request(out.attempted);
        let recorder = Recorder::with_tracing();
        let text = tracer.span("request", |t| -> Result<String, String> {
            let parsed = t
                .span("ir.parse", |_| parse_program(&req.program))
                .map_err(|e| format!("program: {e}"))?;
            let db = t
                .span("engine.facts_parse", |_| Database::from_facts(&req.facts))
                .map_err(|e| format!("facts: {e}"))?;
            let (exec, _) = exec_settings(&req.options);
            let mut text = String::new();
            for query in &parsed.queries {
                text.push_str(&format!("query {}:\n", query.signature.0));
                let plans = t.span("core.plan_star", |_| plan_star(query, &parsed.schema));
                t.span("engine.lower", |_| {
                    std::hint::black_box(lower_pair(&plans, &parsed.schema))
                });
                let report = t
                    .span("engine.execute", |_| {
                        answer_star_planned_obs_cfg(
                            query,
                            &plans,
                            &parsed.schema,
                            &db,
                            &recorder,
                            exec,
                        )
                    })
                    .map_err(|e| format!("evaluating: {e}"))?;
                text.push_str(&t.span("core.render", |_| render_answer_report(&report) + "\n"));
                count_execution(&report, &mut tally);
            }
            Ok(text)
        })?;
        tally.answer_bytes.push(text.len() as f64);
        tally.facts_bytes.push(req.facts.len() as f64);
        collect_execution_spans(&recorder, &mut tally);
        if text != req.expected {
            out.failed += 1;
        }
    }
    let wall = begun.elapsed();
    for name in [
        "cache.hit_rate",
        "cache.evictions",
        "containment.decisions",
        "containment.memo_hit_rate",
        "containment.recursive_calls",
    ] {
        out.metrics.insert(name, 0.0);
    }
    summarise(&tracer, &tally, wall, &mut out);
    Ok(out)
}

/// Turns spans and tallies into the per-layer metrics.
fn summarise(tracer: &Tracer, tally: &Tally, wall: Duration, out: &mut Replay) {
    use crate::stats::{mean, median, percentile};
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let per_request = per_request_us(spans);
    let p50 = |name: &str| per_request.get(name).map_or(0.0, |v| median(v));
    for (name, samples) in &per_request {
        out.layer_p50_us.insert(name, median(samples));
    }
    out.request_p50_us = p50("request");

    // Lookup cost without the compile work nested under a miss.
    let lookup_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "cache.lookup")
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    let feasible_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.feasible")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let contained_us: f64 = feasible_us
        .iter()
        .zip(&tally.feasible_contained)
        .filter(|(_, &c)| c)
        .fold(0.0, |sum, (us, _)| sum + us);
    let (root_ns, root_self_ns) = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "request")
        .fold((0u64, 0u64), |(a, b), (s, &own)| {
            (a + s.duration_ns(), b + own)
        });

    let m = &mut out.metrics;
    m.insert("obs.snapshot_us", p50("obs.snapshot"));
    m.insert("obs.fold_us", p50("obs.fold"));
    m.insert(
        "obs.snapshot_events",
        ratio(tally.snapshot_events as f64, tally.snapshots as f64),
    );
    m.insert(
        "obs.fold_yield",
        ratio(tally.folded_events as f64, tally.snapshot_events as f64),
    );
    m.insert("proto.encode_us", p50("proto.encode"));
    m.insert("proto.decode_us", p50("proto.decode"));
    m.insert("proto.request_bytes", mean(&tally.request_bytes));
    m.insert("proto.response_bytes", mean(&tally.response_bytes));
    m.insert("cache.lookup_us", median(&lookup_self));
    m.insert("ir.parse_us", p50("ir.parse"));
    m.insert("core.plan_star_us", p50("core.plan_star"));
    m.insert("core.feasible_us_p50", median(&feasible_us));
    m.insert("core.feasible_us_p99", percentile(&feasible_us, 99.0));
    m.insert(
        "feasible.containment_share",
        ratio(contained_us, feasible_us.iter().sum()),
    );
    m.insert("engine.lower_us", p50("engine.lower"));
    m.insert("engine.facts_parse_us", p50("engine.facts_parse"));
    m.insert("engine.facts_bytes", mean(&tally.facts_bytes));
    m.insert("engine.execute_under_us", median(&tally.under_us));
    m.insert("engine.execute_over_us", median(&tally.over_us));
    m.insert(
        "engine.source_calls",
        ratio(tally.source_calls as f64, tally.executions as f64),
    );
    m.insert(
        "engine.tuples_transferred",
        ratio(tally.tuples as f64, tally.executions as f64),
    );
    m.insert(
        "engine.tuples_per_answer",
        ratio(tally.tuples as f64, tally.answers as f64),
    );
    m.insert("core.render_us", p50("core.render"));
    m.insert("core.answer_bytes", mean(&tally.answer_bytes));
    m.insert(
        "trace.unattributed_frac",
        ratio(root_self_ns as f64, root_ns as f64),
    );
    m.insert(
        "trace.overhead_frac",
        ratio(spans.len() as f64 * span_cost_ns(), wall.as_nanos() as f64),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
