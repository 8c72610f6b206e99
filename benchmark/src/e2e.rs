//! End-to-end runs against the release `lapd` and `lapq` binaries, timed
//! from outside the process the way a user would see them.

use crate::probe::Probe;
use crate::workload::{Request, Workload};
use lap::obs::Json;
use lap::proto::{read_frame, Client, FrameError, Request as Wire, Response, MAX_FRAME_BYTES};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A `lapd` child process.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's exit message has a reader.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawns `lapd` on an ephemeral port with `flags` and waits for its
    /// first `ping` answer. Returns the daemon and the time from spawn to
    /// that answer.
    pub fn start(lapd: &Path, flags: &[String]) -> Result<(Daemon, Duration), String> {
        let begun = Instant::now();
        let mut child = Command::new(lapd)
            .args(["--bind", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", lapd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("lapd listening on ")) {
            (Ok(_), Some(addr)) => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("lapd did not report its address (got {line:?})"));
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let mut client = daemon.client()?;
        match client.ping() {
            Ok(Response::Ok { .. }) => {}
            other => return Err(format!("lapd ping failed: {other:?}")),
        }
        Ok((daemon, begun.elapsed()))
    }

    fn client(&self) -> Result<Client, String> {
        let mut client =
            Client::connect(&self.addr).map_err(|e| format!("cannot connect to lapd: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// The daemon's `stats` payload, without the per-entry cache keys
    /// (whole program texts).
    pub fn stats(&self) -> Result<Json, String> {
        let Json::Obj(pairs) = (match self.client()?.stats() {
            Ok(Response::Ok { data, .. }) => data,
            other => return Err(format!("lapd stats failed: {other:?}")),
        }) else {
            return Err("lapd stats payload is not an object".to_owned());
        };
        let trimmed = pairs.into_iter().map(|(key, value)| match value {
            Json::Obj(inner) if key == "plan_cache" => {
                let kept = inner
                    .into_iter()
                    .filter(|(k, _)| k != "per_entry")
                    .collect();
                (key, Json::Obj(kept))
            }
            value => (key, value),
        });
        Ok(Json::Obj(trimmed.collect()))
    }

    /// Peak resident set size so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Waits, for at most 3 s, until the daemon has used no CPU for
    /// 100 ms: after traffic it may still be ending sessions, folding
    /// their journals or sweeping its telemetry, and on the one CPU the
    /// benchmark pins itself to, that work would slow the set-ups timed
    /// next.
    pub fn wait_idle(&self) -> Result<(), String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let cpu_ticks = || -> Result<u64, String> {
            let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            // Fields after the parenthesised command name: state is the
            // first, utime and stime the twelfth and thirteenth.
            let fields: Vec<&str> = stat
                .rsplit_once(')')
                .map_or("", |(_, rest)| rest)
                .split_whitespace()
                .collect();
            let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
            match (tick(11), tick(12)) {
                (Some(user), Some(system)) => Ok(user + system),
                _ => Err(format!("{path}: no utime/stime fields")),
            }
        };
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut last = cpu_ticks()?;
        let mut quiet = 0;
        while quiet < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let now = cpu_ticks()?;
            quiet = if now == last { quiet + 1 } else { 0 };
            last = now;
        }
        Ok(())
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = matches!(self.client()?.shutdown(), Ok(Response::Ok { .. }));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return match (acked, status.success()) {
                    (true, true) => Ok(()),
                    _ => Err(format!(
                        "lapd exited with {status} (shutdown acked: {acked})"
                    )),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("lapd did not exit within 10 s of a shutdown request".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op after a clean `stop`; on an error path it makes sure no
        // daemon outlives the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClientOutcome {
    /// Every correctly answered request: (completion time since the run
    /// started, in seconds; round-trip time, in microseconds).
    pub completions: Vec<(f64, f64)>,
    /// TCP connect time of every session, in microseconds.
    pub connect_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with anything but the reference bytes.
    pub failed: u64,
    /// The first few failures, for the error report.
    pub errors: Vec<String>,
    /// The client reached the end of a stream that must not repeat.
    pub exhausted: bool,
}

/// A request stream with every distinct request's frame encoded once,
/// before timing, so clients spend no CPU on encoding while measured.
pub struct EncodedStream {
    pub requests: Vec<Arc<Request>>,
    pub frames: Vec<Arc<Vec<u8>>>,
}

/// Encodes each distinct request of `w`'s streams once.
pub fn encode_streams(w: &Workload) -> Vec<EncodedStream> {
    let mut cache: HashMap<*const Request, Arc<Vec<u8>>> = HashMap::new();
    w.streams
        .iter()
        .map(|stream| {
            let frames = stream
                .iter()
                .map(|r| {
                    let frame = cache.entry(Arc::as_ptr(r)).or_insert_with(|| {
                        let mut buf = Vec::new();
                        lap::proto::write_frame(&mut buf, &wire(r, 1).to_json())
                            .expect("in-memory write");
                        Arc::new(buf)
                    });
                    Arc::clone(frame)
                })
                .collect();
            EncodedStream {
                requests: stream.clone(),
                frames,
            }
        })
        .collect()
}

/// The wire form of `r` with request id `id`.
pub fn wire(r: &Request, id: u64) -> Wire {
    Wire::Query {
        id,
        program: r.program.clone(),
        facts: r.facts.to_string(),
        options: r.options.clone(),
    }
}

/// One closed-loop client: sessions of `session_len` requests over fresh
/// connections from `started` until `deadline`, every answer checked byte
/// for byte, each request holding `probe` back until it is checked.
/// `next` is the stream position, kept across calls; a stream that is not
/// `cyclic` ends the client (`exhausted`) instead of wrapping.
#[allow(clippy::too_many_arguments)]
pub fn client_loop(
    addr: &str,
    stream: &EncodedStream,
    session_len: usize,
    cyclic: bool,
    next: &mut usize,
    probe: Option<&Probe>,
    started: Instant,
    deadline: Instant,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    while Instant::now() < deadline {
        let begun = Instant::now();
        let conn = match TcpStream::connect(addr) {
            Ok(conn) => conn,
            Err(e) => {
                out.attempted += 1;
                fail(&mut out, format!("connect: {e}"));
                continue;
            }
        };
        out.connect_us.push(begun.elapsed().as_secs_f64() * 1e6);
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let mut reader = BufReader::new(conn.try_clone().expect("socket clone"));
        let mut writer = conn;
        for _ in 0..session_len {
            if Instant::now() >= deadline {
                return out;
            }
            if *next == stream.requests.len() {
                if !cyclic {
                    out.exhausted = true;
                    return out;
                }
                *next = 0;
            }
            let i = *next;
            *next += 1;
            let (req, frame) = (&stream.requests[i], &stream.frames[i]);
            out.attempted += 1;
            let _held = probe.map(Probe::hold);
            let sent = Instant::now();
            let answer = writer
                .write_all(frame)
                .map_err(FrameError::Io)
                .and_then(|()| read_frame(&mut reader, MAX_FRAME_BYTES));
            let done = Instant::now();
            let doc = match answer {
                Ok(doc) => doc,
                Err(e) => {
                    fail(&mut out, format!("transport: {e}"));
                    break;
                }
            };
            match Response::from_json(&doc) {
                Ok(Response::Ok { id: 1, text, .. }) if text == req.expected => {
                    out.completions.push((
                        done.duration_since(started).as_secs_f64(),
                        done.duration_since(sent).as_secs_f64() * 1e6,
                    ));
                }
                Ok(Response::Ok { id: 1, .. }) => fail(
                    &mut out,
                    format!("answer differs from the reference for:\n{}", req.program),
                ),
                Ok(Response::Ok { id, .. }) => fail(&mut out, format!("response id {id}, sent 1")),
                Ok(Response::Error { code, message, .. }) => {
                    fail(&mut out, format!("error frame {code}: {message}"))
                }
                Err(e) => fail(&mut out, format!("bad response: {e}")),
            }
        }
    }
    out
}

fn fail(out: &mut ClientOutcome, why: String) {
    out.failed += 1;
    if out.errors.len() < 3 {
        out.errors.push(why);
    }
}

/// Files a `lapq run` invocation reads.
pub struct OneshotFiles {
    pub program: PathBuf,
    pub facts: PathBuf,
}

impl OneshotFiles {
    /// Writes `req`'s program and facts under `dir` as `<stem>.lap` and
    /// `<stem>_facts.lap`.
    pub fn write(dir: &Path, stem: &str, req: &Request) -> Result<OneshotFiles, String> {
        let program = dir.join(format!("{stem}.lap"));
        let facts = dir.join(format!("{stem}_facts.lap"));
        std::fs::write(&program, &req.program)
            .map_err(|e| format!("{}: {e}", program.display()))?;
        std::fs::write(&facts, req.facts.as_bytes())
            .map_err(|e| format!("{}: {e}", facts.display()))?;
        Ok(OneshotFiles { program, facts })
    }
}

/// One `lapq run` invocation: wall time from spawn to exit, and whether
/// it exited 0 with exactly `expected` on stdout.
pub fn lapq_run(
    lapq: &Path,
    files: &OneshotFiles,
    expected: &str,
) -> Result<(Duration, bool), String> {
    let begun = Instant::now();
    let output = Command::new(lapq)
        .arg("run")
        .arg(&files.program)
        .arg(&files.facts)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", lapq.display()))?;
    let elapsed = begun.elapsed();
    Ok((
        elapsed,
        output.status.success() && output.stdout == expected.as_bytes(),
    ))
}

/// Peak resident set size of the largest child process waited for so
/// far, in MiB (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (two longs
    // each), then fourteen longs, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of `struct rusage` on this target, and `getrusage` writes only
    // within the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(usage.fields[4] as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> Result<f64, String> {
    Err("peak child RSS is only measured on 64-bit Linux".to_owned())
}
