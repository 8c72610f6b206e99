//! `lapbench` — the repository's benchmark: three workloads, end-to-end
//! metrics from the release `lapd`/`lapq` binaries, and a traced
//! in-process replay that splits the time by layer.
//!
//! ```text
//! lapbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!          [--bin-dir <dir>] [--out <results.jsonl>]
//! lapbench compare <old.jsonl> <new.jsonl> [--bench-json <BENCHMARK.json>]
//! ```
//!
//! A run prints a human-readable table on stderr, one `{"detail": …}`
//! line with provenance and sample counts on stdout, and last the result
//! line `{"correct", "attempted", "failed", "metrics"}`. `--out` appends
//! the detail line to a file, which `compare` reads. See `README.md`.

mod compare;
mod e2e;
mod metrics;
mod probe;
mod stats;
mod trace;
mod traced;
mod workload;

use e2e::{
    children_peak_rss_mb, client_loop, encode_streams, lapq_run, Daemon, EncodedStream,
    OneshotFiles,
};
use lap::obs::Json;
use metrics::{Measured, END_TO_END, PER_LAYER};
use probe::{Probe, Speed};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, CHURN_CACHE_MB, CLIENTS};

/// Upper bound on `serve-churn` throughput used to size each client's
/// stream. Measured throughput is 15–23 requests per second on one CPU of
/// a 2-vCPU KVM guest, so a run uses at most a quarter of its stream. A run that
/// would need more stops with an error rather than repeat requests (and
/// fresh Theorem-18 instances) it already sent.
const CHURN_MAX_RPS: u64 = 100;

/// A measured run is cut into this many equal slices, with a block of
/// set-ups before each slice and after the last. Set-up times swing with
/// the machine's speed from second to second; blocks spread over the run
/// sample it at several moments, where one block at the start samples one.
const SLICES: u32 = 6;
/// Set-ups per block (daemon spawns, or `lapq run` of a tiny program on
/// `oneshot`); `setup_s` is the median over all blocks.
const SETUPS_PER_BLOCK: usize = 8;

/// A timed interval: when it began and how long it took.
type Timed = (Instant, Duration);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lapbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args).and_then(|opts| run(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lapbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.as_str();
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--bin-dir",
            "--out",
        ]
        .contains(&name)
        {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(name, value).is_some() {
            return Err(format!("duplicate flag {flag}"));
        }
    }
    let need = |k: &str| values.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let number = |k: &str| -> Result<u64, String> {
        need(k)?.parse().map_err(|e| format!("bad {k} value: {e}"))
    };
    let workload = need("--workload")?.to_owned();
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            workload::WORKLOADS.join(", ")
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let bin_dir = match values.get("--bin-dir") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate the lapbench binary: {e}"))?
            .parent()
            .ok_or("the lapbench binary has no parent directory")?
            .to_path_buf(),
    };
    Ok(Options {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        bin_dir,
        out: values.get("--out").map(PathBuf::from),
    })
}

/// Runs one measurement; `Ok(false)` when any answer was wrong.
fn run(opts: &Options) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before any thread or process starts, so that all of them inherit it.
    let cpu = probe::pin_to_one_cpu()?;
    let lapd = opts.bin_dir.join("lapd");
    let lapq = opts.bin_dir.join("lapq");
    for bin in [&lapd, &lapq] {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing; build with `cargo build --release`",
                bin.display()
            ));
        }
    }
    let prepared = Instant::now();
    let per_client = match opts.workload.as_str() {
        "serve-hot" => workload::HOT_SESSION * 64,
        _ => (opts.seconds * CHURN_MAX_RPS).div_ceil(CLIENTS as u64) as usize,
    };
    let w = workload::build(&opts.workload, opts.seed, per_client)?;
    eprintln!(
        "lapbench: {} seed {} generated with references in {:.2} s",
        w.name,
        opts.seed,
        prepared.elapsed().as_secs_f64()
    );
    let budget = Duration::from_secs(opts.seconds);
    let serve = w.name.starts_with("serve-");
    let flags = daemon_flags(&w);
    let measured = match (serve, opts.trace) {
        (true, false) => serve_end_to_end(&w, &lapd, &flags, budget)?,
        (false, false) => oneshot_end_to_end(&w, &lapq, budget)?,
        (true, true) => serve_traced(&w, &lapd, &flags, budget)?,
        (false, true) => oneshot_traced(&w, &lapq, budget)?,
    };
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    measured.check_names(declared)?;
    let correct = measured.failed == 0;
    let detail = Json::obj([(
        "detail",
        Json::obj([
            ("provenance", provenance(opts, &w, &flags, nproc, cpu)),
            ("attempted", Json::num(measured.attempted)),
            ("failed", Json::num(measured.failed)),
            ("failed_frac", Json::Num(measured.failed_frac())),
            ("metrics", measured.detail_json(declared)),
            (
                "notes",
                Json::Obj(
                    measured
                        .notes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
        ]),
    )]);
    eprint!("{}", measured.table(declared, w.name, opts.trace));
    for e in &measured.errors {
        eprintln!("lapbench: FAILED: {e}");
    }
    let line = detail.to_compact();
    if let Some(path) = &opts.out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    println!("{}", measured.result_json(declared, correct).to_compact());
    Ok(correct)
}

/// Deployment flags only: the listen address is added by [`Daemon`].
fn daemon_flags(w: &Workload) -> Vec<String> {
    match w.name {
        "serve-churn" => vec!["--cache-mb".to_owned(), CHURN_CACHE_MB.to_string()],
        _ => Vec::new(),
    }
}

/// Runs `slice` [`SLICES`] times over `budget`, with a block of
/// [`SETUPS_PER_BLOCK`] calls of `setup` before each slice and after the
/// last. Returns every set-up's start and duration.
fn sliced(
    budget: Duration,
    mut setup: impl FnMut() -> Result<Duration, String>,
    mut slice: impl FnMut(Duration) -> Result<(), String>,
) -> Result<Vec<Timed>, String> {
    let mut setups = Vec::new();
    for i in 0..=SLICES {
        for _ in 0..SETUPS_PER_BLOCK {
            let at = Instant::now();
            setups.push((at, setup()?));
        }
        if i < SLICES {
            slice(budget / SLICES)?;
        }
    }
    Ok(setups)
}

/// Closed-loop clients against `daemon` for `budget`, each resuming its
/// stream at its cursor and holding `probe` back while a request is in
/// flight. Returns when they began, which their completion times count
/// from, and what each saw.
fn drive(
    w: &Workload,
    streams: &[EncodedStream],
    cursors: &mut [usize],
    daemon: &Daemon,
    probe: Option<&Probe>,
    budget: Duration,
) -> Result<(Instant, Vec<e2e::ClientOutcome>), String> {
    let begun = Instant::now();
    let deadline = begun + budget;
    let outcomes: Vec<e2e::ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(cursors.iter_mut())
            .map(|(stream, next)| {
                scope.spawn(move || {
                    client_loop(
                        &daemon.addr,
                        stream,
                        w.session_len,
                        w.cyclic,
                        next,
                        probe,
                        begun,
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if outcomes.iter().any(|o| o.exhausted) {
        return Err(workload::exhausted(w));
    }
    Ok((begun, outcomes))
}

fn serve_end_to_end(
    w: &Workload,
    lapd: &Path,
    flags: &[String],
    budget: Duration,
) -> Result<Measured, String> {
    let streams = encode_streams(w);
    let mut cursors = vec![0; streams.len()];
    let probe = Probe::start();
    let (daemon, _) = Daemon::start(lapd, flags)?;
    let mut m = Measured::default();
    let mut latencies = Vec::new();
    // A slice lasts up to its last answer: requests in flight at the
    // deadline still count, over the time they took to finish.
    let mut slices = Vec::new();
    // The set-up daemons come and go while the measured one sits idle
    // between slices, its plan cache and telemetry kept.
    let setups = sliced(
        budget,
        || {
            let _held = probe.hold();
            let (d, took) = Daemon::start(lapd, flags)?;
            d.stop()?;
            Ok(took)
        },
        |slice| {
            let (begun, got) = drive(w, &streams, &mut cursors, &daemon, Some(&probe), slice)?;
            let mut last = Duration::ZERO;
            for o in got {
                m.attempted += o.attempted;
                m.failed += o.failed;
                m.errors.extend(o.errors);
                for (done_s, rtt_us) in o.completions {
                    let done = Duration::from_secs_f64(done_s);
                    let took = Duration::from_secs_f64(rtt_us / 1e6);
                    latencies.push((begun + done.saturating_sub(took), took));
                    last = last.max(done);
                }
            }
            slices.push((begun, last));
            daemon.wait_idle()
        },
    )?;
    let stats = daemon.stats()?;
    daemon.stop()?;
    let speed = probe.finish();
    put_end_to_end(
        &mut m,
        &speed,
        &slices,
        latencies.len() as u64,
        &latencies,
        &setups,
    );
    m.note("daemon_stats", stats);
    Ok(m)
}

/// Puts the end-to-end metrics, every time scaled to the reference speed
/// (see `probe.rs`), and notes the same figures in wall-clock time along
/// with the speeds sampled. `answers` correct answers came back over
/// `slices`, less the probe's pauses; `latencies` are the timed requests,
/// `setups` the set-ups.
fn put_end_to_end(
    m: &mut Measured,
    speed: &Speed,
    slices: &[Timed],
    answers: u64,
    latencies: &[Timed],
    setups: &[Timed],
) {
    let figures = |of: &dyn Fn(&Timed) -> f64, busy_of: &dyn Fn(&Timed) -> f64| {
        let lat: Vec<f64> = latencies.iter().map(of).collect();
        let busy: f64 = slices.iter().map(busy_of).sum();
        let setup: Vec<f64> = setups.iter().map(of).collect();
        [
            (
                "throughput_rps",
                if answers == 0 {
                    0.0
                } else {
                    answers as f64 / busy
                },
            ),
            ("latency_p50_ms", stats::percentile(&lat, 50.0) * 1e3),
            ("latency_p99_ms", stats::percentile(&lat, 99.0) * 1e3),
            ("setup_s", stats::median(&setup)),
        ]
    };
    let reference =
        figures(
            &|&(at, took)| speed.scale(at, took).as_secs_f64(),
            &|&(at, took)| speed.scale_busy(at, took).as_secs_f64(),
        );
    let wall = figures(&|t| t.1.as_secs_f64(), &|t| t.1.as_secs_f64());
    let n = latencies.len() as u64;
    for ((name, value), samples) in reference
        .into_iter()
        .zip([answers, n, n, setups.len() as u64])
    {
        // p99 is reported without a bound (README).
        if name == "latency_p99_ms" {
            m.note(name, Json::Num(value));
        } else {
            m.put(name, value, samples);
        }
    }
    m.note(
        "wall_clock",
        Json::Obj(
            wall.into_iter()
                .map(|(name, value)| (name.to_owned(), Json::Num(value)))
                .collect(),
        ),
    );
    let speeds = speed.values();
    m.note(
        "speed",
        Json::obj([
            ("reference_rate", Json::Num(probe::REFERENCE_RATE)),
            ("probes", Json::num(speeds.len() as u64)),
            ("preempted", Json::num(speed.preempted)),
            ("p10", Json::Num(stats::percentile(&speeds, 10.0))),
            ("median", Json::Num(stats::median(&speeds))),
            ("p90", Json::Num(stats::percentile(&speeds, 90.0))),
        ]),
    );
}

/// Writes the `oneshot` inputs, one pair of files per instance in stream
/// order (and a tiny program for `setup_s`), into a scratch directory next
/// to the binaries.
fn oneshot_files(
    w: &Workload,
    lapq: &Path,
) -> Result<(PathBuf, Vec<OneshotFiles>, OneshotFiles, String), String> {
    let dir = lapq
        .parent()
        .expect("binary directory")
        .join(format!("lapbench-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let main = w.streams[0]
        .iter()
        .enumerate()
        .map(|(i, req)| OneshotFiles::write(&dir, &format!("bookstore{i}"), req))
        .collect::<Result<Vec<_>, _>>()?;
    let tiny = workload::build("serve-hot", 0, 1)?.streams[0][0].clone();
    let tiny_files = OneshotFiles::write(&dir, "tiny", &tiny)?;
    Ok((dir, main, tiny_files, tiny.expected.clone()))
}

fn oneshot_end_to_end(w: &Workload, lapq: &Path, budget: Duration) -> Result<Measured, String> {
    let (dir, files, tiny, tiny_expected) = oneshot_files(w, lapq)?;
    let probe = Probe::start();
    let mut m = Measured::default();
    let mut latencies = Vec::new();
    let mut slices = Vec::new();
    let setups = sliced(
        budget,
        || {
            let _held = probe.hold();
            match lapq_run(lapq, &tiny, &tiny_expected)? {
                (took, true) => Ok(took),
                (_, false) => {
                    Err("lapq run on the set-up program did not match its reference".to_owned())
                }
            }
        },
        |slice| {
            let begun = Instant::now();
            loop {
                let i = m.attempted as usize % files.len();
                let (at, took, ok) = {
                    let _held = probe.hold();
                    let at = Instant::now();
                    let (took, ok) = lapq_run(lapq, &files[i], &w.streams[0][i].expected)?;
                    (at, took, ok)
                };
                m.attempted += 1;
                latencies.push((at, took));
                if !ok {
                    m.failed += 1;
                    m.errors
                        .push("lapq run output differs from the reference".to_owned());
                }
                if begun.elapsed() >= slice {
                    break;
                }
            }
            slices.push((begun, begun.elapsed()));
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let setups = setups?;
    let speed = probe.finish();
    let answers = m.attempted - m.failed;
    put_end_to_end(&mut m, &speed, &slices, answers, &latencies, &setups);
    Ok(m)
}

/// Share of a traced run's time spent on the network or process phase;
/// the rest goes to the in-process replay.
const OUTSIDE_SHARE: f64 = 0.4;

fn serve_traced(
    w: &Workload,
    lapd: &Path,
    flags: &[String],
    budget: Duration,
) -> Result<Measured, String> {
    // Phase 1: the real daemon, for what only it can report.
    let streams = encode_streams(w);
    let mut cursors = vec![0; streams.len()];
    let (daemon, _) = Daemon::start(lapd, flags)?;
    let (_, outcomes) = drive(
        w,
        &streams,
        &mut cursors,
        &daemon,
        None,
        budget.mul_f64(OUTSIDE_SHARE),
    )?;
    let stats = daemon.stats()?;
    let rss = daemon.peak_rss_mb()?;
    daemon.stop()?;
    let mut m = Measured::default();
    let latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.completions.iter().map(|c| c.1))
        .collect();
    let connects: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.connect_us.iter().copied())
        .collect();
    for o in &outcomes {
        m.attempted += o.attempted;
        m.failed += o.failed;
        m.errors.extend(o.errors.iter().cloned());
    }
    let latency = |key: &str, q: &str| {
        stats
            .get("latency")
            .and_then(|l| l.get(key))
            .and_then(|h| h.get(q))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let client_p50 = stats::median(&latencies);
    let server_p50 = latency("request_us", "p50");
    let queries = latency("request_us", "count") as u64;
    m.put(
        "daemon.gate_wait_us_p99",
        latency("gate_wait_us", "p99"),
        queries,
    );
    m.put("daemon.request_us_p50", server_p50, queries);
    m.put(
        "daemon.request_us_p99",
        latency("request_us", "p99"),
        queries,
    );
    m.put(
        "daemon.outside_handle_us",
        client_p50 - server_p50,
        latencies.len() as u64,
    );
    m.put(
        "daemon.connect_us",
        stats::median(&connects),
        connects.len() as u64,
    );
    m.put(
        "client.latency_p99_ms",
        stats::percentile(&latencies, 99.0) / 1e3,
        latencies.len() as u64,
    );
    m.put("lapq.process_overhead_ms", 0.0, 0);
    m.put("mem.peak_rss_mb", rss, 1);
    m.note("daemon_stats", stats);

    // Phase 2: the in-process replay.
    let cache_bytes = match w.name {
        "serve-churn" => (CHURN_CACHE_MB as usize) << 20,
        _ => lap::core::DEFAULT_CACHE_BYTES,
    };
    let replay = traced::replay_serve(w, cache_bytes, budget.mul_f64(1.0 - OUTSIDE_SHARE))?;
    m.note(
        "gap_attribution",
        gap_attribution(client_p50 - server_p50, &replay),
    );
    m.absorb_replay(replay);
    Ok(m)
}

/// How the gap between the client's p50 round trip and the daemon's p50
/// `request_us` splits over the layers that run outside `request_us`.
fn gap_attribution(gap_us: f64, replay: &traced::Replay) -> Json {
    let outside = ["proto.encode", "proto.decode", "obs.snapshot", "obs.fold"];
    let mut pairs: Vec<(String, Json)> = outside
        .iter()
        .map(|l| {
            (
                format!("{l}_us"),
                Json::Num(replay.layer_p50_us.get(l).copied().unwrap_or(0.0)),
            )
        })
        .collect();
    let named: f64 = outside
        .iter()
        .filter_map(|l| replay.layer_p50_us.get(l))
        .sum();
    pairs.push(("gap_us".to_owned(), Json::Num(gap_us)));
    pairs.push(("named_layers_us".to_owned(), Json::Num(named)));
    pairs.push((
        "transport_and_scheduling_us".to_owned(),
        Json::Num(gap_us - named),
    ));
    Json::Obj(pairs)
}

fn oneshot_traced(w: &Workload, lapq: &Path, budget: Duration) -> Result<Measured, String> {
    let (dir, files, _, _) = oneshot_files(w, lapq)?;
    let phase = budget.mul_f64(OUTSIDE_SHARE);
    let mut m = Measured::default();
    let mut walls = Vec::new();
    let begun = Instant::now();
    let outside = (|| {
        while walls.len() < files.len() || begun.elapsed() < phase {
            let i = walls.len() % files.len();
            let (took, ok) = lapq_run(lapq, &files[i], &w.streams[0][i].expected)?;
            m.attempted += 1;
            walls.push(took.as_secs_f64() * 1e3);
            if !ok {
                m.failed += 1;
                m.errors
                    .push("lapq run output differs from the reference".to_owned());
            }
        }
        Ok::<(), String>(())
    })();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    outside?;
    let replay = traced::replay_oneshot(w, budget.mul_f64(1.0 - OUTSIDE_SHARE))?;
    for name in [
        "daemon.gate_wait_us_p99",
        "daemon.request_us_p50",
        "daemon.request_us_p99",
        "daemon.outside_handle_us",
        "daemon.connect_us",
    ] {
        m.put(name, 0.0, 0);
    }
    let lapq_ms = stats::median(&walls);
    m.put(
        "client.latency_p99_ms",
        stats::percentile(&walls, 99.0),
        walls.len() as u64,
    );
    m.put(
        "lapq.process_overhead_ms",
        lapq_ms - replay.request_p50_us / 1e3,
        walls.len() as u64,
    );
    m.put(
        "mem.peak_rss_mb",
        children_peak_rss_mb()?,
        walls.len() as u64,
    );
    m.absorb_replay(replay);
    Ok(m)
}

/// Where the run came from, so results can be compared honestly.
fn provenance(opts: &Options, w: &Workload, flags: &[String], nproc: usize, cpu: usize) -> Json {
    let command_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::num(opts.seed)),
        ("seconds", Json::num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::num(nproc as u64)),
        ("pinned_cpu", Json::num(cpu as u64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "source_hash",
            Json::str(metrics::source_hash(Path::new("."))),
        ),
        (
            "daemon_flags",
            Json::Arr(flags.iter().map(Json::str).collect()),
        ),
        (
            "clients",
            Json::num(if w.name.starts_with("serve-") {
                CLIENTS as u64
            } else {
                1
            }),
        ),
        ("session_len", Json::num(w.session_len as u64)),
        (
            "stream_len_per_client",
            Json::num(w.streams[0].len() as u64),
        ),
        (
            "facts_bytes_distinct",
            Json::num(w.facts_bytes_total() as u64),
        ),
        (
            "sizes",
            Json::Obj(
                w.sizes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}
