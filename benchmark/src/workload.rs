//! Seeded request streams for the three workloads, each request paired
//! with the reference rendering it must be answered with.
//!
//! The program under test only ever sees the generated text: program
//! source, facts source and wire options. Every reference is computed
//! in-process before any timing starts, with the same public entry points
//! one-shot `lapq run` uses (`answer_star_obs_cfg` + `render_answer_report`,
//! or `answer_star_resilient_cfg` + `render_outcome` when the request
//! carries resilience options). A reference that fails to compute fails
//! the benchmark; no request is ever skipped.

use lap::core::{
    answer_star_obs_cfg, answer_star_resilient_cfg, containment_to_feasibility,
    render_answer_report, render_outcome,
};
use lap::engine::{Database, ExecConfig, FaultConfig, ResilienceConfig, RetryPolicy};
use lap::ir::{parse_program, Predicate, Program, Schema, UnionQuery};
use lap::obs::Recorder;
use lap::proto::QueryOptions;
use lap::workload::families::excluded_middle_pair;
use lap::workload::{bookstore, gen_instance, gen_query, gen_schema, BookstoreConfig};
use lap::workload::{InstanceConfig, QueryConfig, SchemaConfig};
use lap_prng::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["serve-hot", "serve-churn", "oneshot-bookstore"];

/// Closed-loop client connections for the `serve-*` workloads.
pub const CLIENTS: usize = 2;

/// Requests per connection before the client reconnects.
pub const HOT_SESSION: usize = 256;
/// Requests per connection before the client reconnects.
pub const CHURN_SESSION: usize = 8;

/// Plan-cache budget handed to `lapd --cache-mb` on `serve-churn`.
pub const CHURN_CACHE_MB: u64 = 1;

/// The E24 four-scenario mix: a feasible negation query, an infeasible
/// union, a plain scan and a two-query program, all on tiny facts.
const HOT_SCENARIOS: &[(&str, &str)] = &[
    (
        "B^ioo. B^oio. C^oo. L^o.\nQ(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        r#"B(1, "a", "t1"). B(2, "b", "t2"). C(1, "a"). C(2, "b"). L(1)."#,
    ),
    (
        "S^o. R^oo. B^ii. T^oo.\nQ(x, y) :- not S(z), R(x, z), B(x, y).\nQ(x, y) :- T(x, y).",
        "R(1, 10). S(99). T(7, 8). B(1, 5).",
    ),
    (
        "C^oo.\nQ(i) :- C(i, a).",
        r#"C(1, "a"). C(2, "b"). C(3, "c")."#,
    ),
    (
        "C^oo. F^o.\nQ(i) :- C(i, a).\nP(x) :- F(x).",
        r#"C(1, "a"). F(9). F(10)."#,
    ),
];

/// Distinct random programs in the `serve-churn` pool. Their compiled
/// plans add up to about 7 MiB (`PreparedProgram::estimated_bytes`),
/// several times the 1 MiB plan-cache budget.
pub const CHURN_POOL: usize = 3000;
/// Schema groups in the churn pool; each has one generated instance.
const CHURN_GROUPS: usize = 6;
/// Seed of the churn pool's content.
const CHURN_POOL_SEED: u64 = 0xC4_0C4;
/// Zipf exponent of the skewed draw over the churn pool.
const CHURN_SKEW: f64 = 0.9;
/// Every this-many-th churn request is a fresh Theorem-18 instance, its
/// `n` cycling through 4, 5, 6.
const THM18_EVERY: usize = 16;
/// Every this-many-th churn request carries resilience options.
const RESILIENT_EVERY: usize = 4;

/// `oneshot-bookstore` instances; the invocations cycle through them.
/// Instance `i` has `BOOKSTORE_MIN_BOOKS + i * BOOKSTORE_STEP` books
/// (100 to 472 books, 8–40 KB of facts). The paper-scale 5000 books
/// (470 KB, 0.7 s per invocation) is memory-bound, and on a machine shared
/// with other tenants its run-to-run spread is about the largest bound the
/// benchmark allows; at these sizes the working set stays in cache and an
/// invocation takes 3–20 ms, so a run times thousands of them. Many evenly
/// spaced sizes make the latency distribution wide and smooth, so its
/// median moves with the machine's speed as the mean does; one size (or a
/// few) gives tight clusters whose median jumps from one to the next.
pub const BOOKSTORE_INSTANCES: usize = 32;
const BOOKSTORE_MIN_BOOKS: usize = 100;
const BOOKSTORE_STEP: usize = 12;

/// One query request and the exact response text it must produce.
#[derive(Debug, PartialEq)]
pub struct Request {
    /// Program source (schema declarations and rules).
    pub program: String,
    /// Facts source, shared between requests that use the same instance.
    pub facts: Arc<str>,
    /// Wire options; resilience options switch to the degraded executor.
    pub options: QueryOptions,
    /// The reference rendering, byte for byte.
    pub expected: String,
}

/// A generated workload: one request stream per client connection.
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// Requests per connection before reconnecting (`oneshot`: 1).
    pub session_len: usize,
    /// Per-client request streams.
    pub streams: Vec<Vec<Arc<Request>>>,
    /// Whether a client may replay its stream from the start when it runs
    /// out. Only a workload whose every request is meant to repeat may:
    /// a repeated churn stream would turn fresh requests into cache hits.
    pub cyclic: bool,
    /// Sizes and shapes for the provenance record.
    pub sizes: Vec<(&'static str, f64)>,
}

impl Workload {
    /// Every distinct facts text with its byte size, for reporting.
    pub fn facts_bytes_total(&self) -> usize {
        let mut seen: HashMap<*const u8, usize> = HashMap::new();
        for r in self.streams.iter().flatten() {
            seen.insert(r.facts.as_ptr(), r.facts.len());
        }
        seen.values().sum()
    }
}

/// Builds `name`'s request streams from `seed`. `per_client` is the
/// stream length each `serve-*` client gets before it wraps around.
pub fn build(name: &str, seed: u64, per_client: usize) -> Result<Workload, String> {
    match name {
        "serve-hot" => hot(seed, per_client),
        "serve-churn" => churn(seed, per_client),
        "oneshot-bookstore" => oneshot(seed),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The error a run stops with when a client of a workload that is not
/// `cyclic` reaches the end of its stream.
pub fn exhausted(w: &Workload) -> String {
    format!(
        "a {} client used up its {}-request stream; replaying it would turn \
         fresh requests into cache hits, so the stream must be made longer",
        w.name,
        w.streams[0].len()
    )
}

fn hot(seed: u64, per_client: usize) -> Result<Workload, String> {
    let pool = HOT_SCENARIOS
        .iter()
        .map(|(p, f)| request(p.to_string(), Arc::from(*f), QueryOptions::default()).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = client_rng(seed, c);
            (0..per_client)
                .map(|_| Arc::clone(&pool[rng.gen_range(0..pool.len())]))
                .collect()
        })
        .collect();
    Ok(Workload {
        name: "serve-hot",
        session_len: HOT_SESSION,
        streams,
        cyclic: true,
        sizes: vec![("programs", pool.len() as f64)],
    })
}

/// A schema group of the churn pool: its schema over `R0…R11` and the
/// instance every program of the group is answered over.
struct Group {
    schema: Schema,
    db: Database,
}

fn churn(seed: u64, per_client: usize) -> Result<Workload, String> {
    // The pool (schemas, instances, programs) is fixed, like serve-hot's
    // four scenarios; the seed draws the traffic over it: which programs,
    // in which order, which requests are resilient, and the Theorem-18
    // instances. Pool content drawn per seed would make a run's cost
    // depend on how expensive that seed's most popular programs happen
    // to be, and seed-to-seed spread would swamp every bound.
    let mut rng = StdRng::seed_from_u64(CHURN_POOL_SEED);
    // Instance sizes form a ladder, 55 to 275 tuples in each of 12
    // relations (10–50 KB of facts), and the program of popularity rank r
    // uses rung r mod 6, so every popularity band spans all six sizes.
    let groups: Vec<Group> = (0..CHURN_GROUPS)
        .map(|g| {
            let schema = gen_schema(
                &SchemaConfig {
                    num_relations: 12,
                    ..SchemaConfig::default()
                },
                &mut rng,
            );
            let tuples = 55 + g * 44;
            let db = gen_instance(
                &schema,
                &InstanceConfig {
                    domain_size: 4 * tuples,
                    tuples_per_relation: tuples,
                },
                &mut rng,
            );
            Group { schema, db }
        })
        .collect();
    // Zipf weights by popularity rank; rank r is pool program r.
    let mut cumulative = Vec::with_capacity(CHURN_POOL);
    let mut total = 0.0;
    for rank in 0..CHURN_POOL {
        total += 1.0 / ((rank + 1) as f64).powf(CHURN_SKEW);
        cumulative.push(total);
    }
    let program_seed = rng.next_u64();

    // Pool entries are generated the first time the stream draws them;
    // the streams hold indices into `distinct` until every reference is
    // computed.
    let mut distinct: Vec<(String, Arc<str>, QueryOptions)> = Vec::new();
    let mut pool: HashMap<(usize, bool), usize> = HashMap::new();
    let mut facts: HashMap<usize, Arc<str>> = HashMap::new();
    let mut thm18 = 0usize;
    let mut positions = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut rng = client_rng(seed ^ CHURN_POOL_SEED, c);
        let mut stream = Vec::with_capacity(per_client);
        // Theorem-18 and resilient requests sit at fixed positions, and
        // the instances' sizes cycle, rather than being drawn: a FEASIBLE
        // check at n = 6 costs many times one at n = 4, and a run holds
        // only a few dozen of them, so drawn counts and sizes would make
        // one seed's run much slower than another's. For the same reason
        // the pool draws are stratified and do not follow the seed: each
        // block of `THM18_EVERY` requests takes one draw from each of
        // `THM18_EVERY - 1` equal slices of the Zipf distribution, drawn
        // by a generator of its own, and only their order within the block
        // follows the seed. Which programs a run requests, and how often,
        // sets its cost (decoding a request takes time quadratic in its
        // facts' size, README), and drawn per seed it made runs of one
        // seed up to a quarter slower than runs of another.
        let slots = THM18_EVERY - 1;
        let mut draws = client_rng(CHURN_POOL_SEED, c);
        let mut strata: Vec<f64> = Vec::with_capacity(slots);
        for k in 0..per_client {
            if k % THM18_EVERY == 0 {
                strata.clear();
                strata.extend((0..slots).map(|j| (j as f64 + draws.next_f64()) / slots as f64));
                for i in (1..slots).rev() {
                    strata.swap(i, rng.gen_range(0..=i));
                }
            }
            let resilient = k % RESILIENT_EVERY == 1;
            if k % THM18_EVERY == THM18_EVERY - 1 {
                let n = 4 + (k / THM18_EVERY) % 3;
                let (program, facts) = theorem18_instance(n, &format!("t{c}x{k}"), &mut rng);
                stream.push(distinct.len());
                distinct.push((program, Arc::from(facts), options(resilient)));
                thm18 += 1;
                continue;
            }
            let u = strata.pop().expect("one stratum per pool draw") * total;
            let id = cumulative.partition_point(|&w| w < u).min(CHURN_POOL - 1);
            if let Some(&found) = pool.get(&(id, resilient)) {
                stream.push(found);
                continue;
            }
            let group = &groups[id % CHURN_GROUPS];
            let facts = Arc::clone(facts.entry(id).or_insert_with(|| {
                Arc::from(renamed_db(&group.db, &format!("G{id}")).to_string())
            }));
            let program = churn_program(id, group, program_seed);
            pool.insert((id, resilient), distinct.len());
            stream.push(distinct.len());
            distinct.push((program, facts, options(resilient)));
        }
        positions.push(stream);
    }
    let requests = requests(distinct)?;
    let streams = positions
        .iter()
        .map(|stream| stream.iter().map(|&i| Arc::clone(&requests[i])).collect())
        .collect();
    // One facts text per drawn program: its group's instance, renamed.
    let facts_bytes = facts.values().map(|f| f.len() as f64);
    Ok(Workload {
        name: "serve-churn",
        session_len: CHURN_SESSION,
        streams,
        cyclic: false,
        sizes: vec![
            ("pool_programs", CHURN_POOL as f64),
            ("programs_drawn", facts.len() as f64),
            ("theorem18_instances", thm18 as f64),
            ("instances", CHURN_GROUPS as f64),
            (
                "facts_bytes_min",
                facts_bytes.clone().reduce(f64::min).unwrap_or(0.0),
            ),
            ("facts_bytes_max", facts_bytes.fold(0.0, f64::max)),
            ("cache_mb", CHURN_CACHE_MB as f64),
        ],
    })
}

fn oneshot(seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = (0..BOOKSTORE_INSTANCES)
        .map(|i| {
            let books = BOOKSTORE_MIN_BOOKS + i * BOOKSTORE_STEP;
            let cfg = BookstoreConfig {
                vendors: 2,
                catalogs: 2,
                books,
                authors: books / 5,
                ..BookstoreConfig::default()
            };
            let scenario = bookstore(&cfg, &mut rng);
            request(
                scenario.program_text(),
                Arc::from(scenario.db.to_string()),
                QueryOptions::default(),
            )
            .map(Arc::new)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let facts = stream.iter().map(|r| r.facts.len() as f64);
    Ok(Workload {
        name: "oneshot-bookstore",
        session_len: 1,
        cyclic: true,
        sizes: vec![
            ("books_min", BOOKSTORE_MIN_BOOKS as f64),
            (
                "books_max",
                (BOOKSTORE_MIN_BOOKS + (BOOKSTORE_INSTANCES - 1) * BOOKSTORE_STEP) as f64,
            ),
            ("instances", BOOKSTORE_INSTANCES as f64),
            (
                "facts_bytes_min",
                facts.clone().reduce(f64::min).unwrap_or(0.0),
            ),
            ("facts_bytes_max", facts.fold(0.0, f64::max)),
        ],
        streams: vec![stream],
    })
}

/// The churn pool's program `id`: a random UCQ¬ (2–6 disjuncts, 1–2
/// negations per disjunct) over its group's schema. Relations carry the
/// program's own prefix, so no two programs share a telemetry profile:
/// shared profiles would let the daemon's drift watcher re-plan one
/// program from another's traffic, which changes its call counts.
fn churn_program(id: usize, group: &Group, program_seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(program_seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
    let schema = renamed_schema(&group.schema, &format!("G{id}"));
    let cfg = QueryConfig {
        num_disjuncts: rng.gen_range(2..=6usize),
        positive_per_disjunct: rng.gen_range(2..=3usize),
        negative_per_disjunct: rng.gen_range(1..=2usize),
        // One head variable keeps an answer to at most one tuple per
        // domain value (about 10 KB of text). Wider heads reach hundreds
        // of KB, and decoding a frame costs time quadratic in its string
        // length (README, "What the split shows"), so one such answer
        // would stall its client for seconds and set the run's pace.
        head_arity: 1,
        ..QueryConfig::default()
    };
    // Connected disjuncts only: a disjunct whose positive literals split
    // into variable-disjoint groups is a cross product, and on 10–50 KB
    // instances one of those costs seconds, so a handful would set the
    // whole workload's pace.
    let one = QueryConfig {
        num_disjuncts: 1,
        ..cfg
    };
    let disjuncts = (0..cfg.num_disjuncts)
        .map(|_| loop {
            let mut q = gen_query(&schema, &one, &mut rng);
            if is_connected(&q.disjuncts[0]) {
                break q.disjuncts.remove(0);
            }
        })
        .collect();
    let query = UnionQuery::new(disjuncts).expect("every disjunct has the head Q(x0, …)");
    Program {
        schema,
        queries: vec![query],
    }
    .to_string()
}

/// Whether the positive literals of `cq` form one join component.
fn is_connected(cq: &lap::ir::ConjunctiveQuery) -> bool {
    let groups: Vec<Vec<lap::ir::Var>> = cq
        .body
        .iter()
        .filter(|lit| lit.positive)
        .map(|lit| lit.atom.args.iter().filter_map(|t| t.as_var()).collect())
        .collect();
    let Some(first) = groups.first() else {
        return true;
    };
    let mut reached: std::collections::HashSet<lap::ir::Var> = first.iter().copied().collect();
    let mut joined = vec![false; groups.len()];
    joined[0] = true;
    let mut grew = true;
    while grew {
        grew = false;
        for (i, vars) in groups.iter().enumerate() {
            if !joined[i] && vars.iter().any(|v| reached.contains(v)) {
                joined[i] = true;
                reached.extend(vars.iter().copied());
                grew = true;
            }
        }
    }
    joined
        .iter()
        .zip(&groups)
        .all(|(&j, vars)| j || vars.is_empty())
}

/// Theorem 18's reduction of the excluded-middle pair `P ⊑ Q` (which
/// holds) to a feasibility instance, with every relation renamed by `tag`
/// so neither the plan cache nor the containment memo has seen it.
fn theorem18_instance(n: usize, tag: &str, rng: &mut StdRng) -> (String, String) {
    let (p, q) = excluded_middle_pair(n);
    let inst = containment_to_feasibility(&rename_query(&p, tag), &rename_query(&q, tag));
    // The reduction names its fresh relation and variable with `$`, which
    // the parser does not accept; give them parseable unique names.
    let program = Program {
        schema: inst.schema,
        queries: vec![inst.query],
    }
    .to_string()
    .replace("B$thm18", &format!("B{tag}"))
    .replace("_y$thm18", &format!("y_{tag}"));
    let mut facts = format!("B{tag}(1).\n");
    for x in 1..=24 {
        facts.push_str(&format!("R{tag}({x}).\n"));
        for j in 0..n {
            if rng.gen_bool(0.5) {
                facts.push_str(&format!("S{j}{tag}({x}).\n"));
            }
        }
    }
    // Every relation must exist in the instance, even if no draw hit it.
    for j in 0..n {
        facts.push_str(&format!("S{j}{tag}(0).\n"));
    }
    (program, facts)
}

fn rename_query(q: &UnionQuery, tag: &str) -> UnionQuery {
    let disjuncts = q
        .disjuncts
        .iter()
        .map(|cq| {
            let mut cq = cq.clone();
            for lit in &mut cq.body {
                let pred = lit.atom.predicate;
                lit.atom.predicate = Predicate::new(&format!("{}{tag}", pred.name), pred.arity);
            }
            cq
        })
        .collect();
    UnionQuery::new(disjuncts).expect("renaming keeps the shared head")
}

fn renamed_schema(schema: &Schema, prefix: &str) -> Schema {
    let mut out = Schema::new();
    for decl in schema.iter() {
        for pattern in &decl.patterns {
            out.add_pattern(&format!("{prefix}{}", decl.predicate.name), *pattern)
                .expect("renaming keeps arities consistent");
        }
    }
    out
}

fn renamed_db(db: &Database, prefix: &str) -> Database {
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        for row in rel.iter() {
            out.insert(&format!("{prefix}{name}"), row.to_vec())
                .expect("same arity");
        }
    }
    out
}

/// The resilience options one churn request in four carries.
fn options(resilient: bool) -> QueryOptions {
    if !resilient {
        return QueryOptions::default();
    }
    QueryOptions {
        fault_rate: Some(0.05),
        retry: Some(3),
        io_workers: Some(2),
        ..QueryOptions::default()
    }
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (client as u64 + 1))
}

/// [`request`] for each of `distinct`, on [`CLIENTS`] threads.
fn requests(distinct: Vec<(String, Arc<str>, QueryOptions)>) -> Result<Vec<Arc<Request>>, String> {
    let mut done: Vec<(usize, Result<Request, String>)> = std::thread::scope(|scope| {
        let distinct = &distinct;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mine = distinct.iter().enumerate().skip(t).step_by(CLIENTS);
                    mine.map(|(i, (program, facts, options))| {
                        let req = request(program.clone(), Arc::clone(facts), options.clone());
                        (i, req)
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, req)| req.map(Arc::new)).collect()
}

fn request(program: String, facts: Arc<str>, options: QueryOptions) -> Result<Request, String> {
    let expected = reference(&program, &facts, &options)?;
    Ok(Request {
        program,
        facts,
        options,
        expected,
    })
}

/// What `lapq run` prints for `program` over `facts` with the flags that
/// `options` mirrors, and therefore what `lapd` must answer.
pub fn reference(program: &str, facts: &str, options: &QueryOptions) -> Result<String, String> {
    let parsed = parse_program(program).map_err(|e| format!("reference: program: {e}"))?;
    let db = Database::from_facts(facts).map_err(|e| format!("reference: facts: {e}"))?;
    let (exec, resilience) = exec_settings(options);
    let recorder = Recorder::disabled();
    let mut text = String::new();
    for q in &parsed.queries {
        let sig = q.signature.0;
        text.push_str(&format!("query {sig}:\n"));
        match &resilience {
            Some(res) => {
                let outcome =
                    answer_star_resilient_cfg(q, &parsed.schema, &db, &recorder, res, exec)
                        .map_err(|e| format!("reference: evaluating {sig}: {e}"))?;
                text.push_str(&render_outcome(&outcome));
            }
            None => {
                let report = answer_star_obs_cfg(q, &parsed.schema, &db, &recorder, exec)
                    .map_err(|e| format!("reference: evaluating {sig}: {e}"))?;
                text.push_str(&render_answer_report(&report));
                text.push('\n');
            }
        }
    }
    Ok(text)
}

/// The executor and resilience settings `lapq run` derives from the
/// flags these options mirror (same defaults, same fault seed).
pub fn exec_settings(options: &QueryOptions) -> (ExecConfig, Option<ResilienceConfig>) {
    let mut exec = ExecConfig::default();
    if let Some(n) = options.io_workers {
        exec = exec.with_io_workers(n as usize);
    }
    if let Some(n) = options.batch_width {
        exec.batch_size = n as usize;
    }
    if !options.wants_resilience() {
        return (exec, None);
    }
    let fault = FaultConfig {
        error_rate: options.fault_rate.unwrap_or(0.0),
        latency_ms: options.latency_ms.unwrap_or(0),
        latency_jitter_ms: 0,
        timeout_ms: options.timeout_ms,
        seed: options.fault_seed.unwrap_or(0xC0FFEE),
    };
    let mut retry = RetryPolicy::standard();
    if let Some(n) = options.retry {
        retry = retry.with_max_attempts(n as u32);
    }
    if let Some(budget) = options.deadline_ms {
        retry = retry.with_deadline_ms(budget);
    }
    (
        exec,
        Some(ResilienceConfig {
            fault: Some(fault),
            retry,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap::proto::{write_frame, Request as Wire};

    /// The wire bytes of a stream prefix, as a client would send them.
    fn frames(w: &Workload, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for stream in &w.streams {
            for r in stream.iter().take(n) {
                let wire = Wire::Query {
                    id: 0,
                    program: r.program.clone(),
                    facts: r.facts.to_string(),
                    options: r.options.clone(),
                };
                write_frame(&mut out, &wire.to_json()).expect("in-memory write");
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_streams_and_other_seeds_differ() {
        for name in ["serve-hot", "serve-churn"] {
            let a = frames(&build(name, 7, 40).unwrap(), 40);
            let b = frames(&build(name, 7, 40).unwrap(), 40);
            let c = frames(&build(name, 8, 40).unwrap(), 40);
            assert_eq!(a, b, "{name}: same seed, different bytes");
            assert_ne!(a, c, "{name}: different seeds, same bytes");
        }
    }

    #[test]
    fn oneshot_inputs_follow_the_seed() {
        let a = build("oneshot-bookstore", 3, 0).unwrap();
        let b = build("oneshot-bookstore", 3, 0).unwrap();
        let c = build("oneshot-bookstore", 4, 0).unwrap();
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.streams[0].len(), BOOKSTORE_INSTANCES);
        assert_ne!(a.streams[0][0].facts, c.streams[0][0].facts);
    }

    #[test]
    fn theorem18_instances_parse_and_are_fresh() {
        let mut rng = StdRng::seed_from_u64(1);
        let (p1, f1) = theorem18_instance(4, "t0x1", &mut rng);
        let (p2, _) = theorem18_instance(4, "t0x2", &mut rng);
        assert_ne!(p1, p2);
        let program = parse_program(&p1).expect("reduction output parses");
        assert_eq!(program.queries[0].disjuncts.len(), 1 + 16);
        assert!(Database::from_facts(&f1).is_ok());
    }
}
