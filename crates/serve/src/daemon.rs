//! The daemon: transports, admission control, and panic isolation
//! around the single-threaded [`ServeState`] core.
//!
//! Layout: one *worker* thread owns the [`ServeState`] and processes
//! jobs strictly in admission order from a **bounded** queue. Reader
//! threads (one per connection, or the stdin loop) parse only the
//! request envelope — the `id=` tag and the `deadline=` budget — so the
//! deadline clock starts at admission and queue wait counts against the
//! request's budget. When the queue is full the reader sheds the
//! request immediately with `err overloaded retry-after-ms=<hint>`,
//! where the hint is the current queue depth times the learned mean
//! service time; the worker is never blocked by load it did not admit.
//!
//! Panic isolation: each request runs under `catch_unwind`. A panic
//! poisons only the carving session, which [`ServeState::rebuild_session`]
//! replaces wholesale (loaded graphs and the decomposition LRU are
//! immutable shared state and survive); the client gets
//! `err panic session-rebuilt` and the daemon keeps serving.
//!
//! Ordering: responses to *admitted* requests preserve admission order
//! per connection. A shed (`overloaded`) response is written by the
//! reader thread and may overtake responses to still-queued requests —
//! clients that pipeline should tag requests with `id=`.

use crate::protocol::{overloaded_frame, parse_request, split_prefix, tag_frame, Request};
use crate::state::{ServeState, SharedCounters};
use sdnd_graph::Deadline;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity; requests beyond it are shed.
    pub queue_cap: usize,
    /// Capacity of the finished-decomposition LRU.
    pub lru_cap: usize,
    /// A graph spec to load before serving (same grammar as `load`).
    pub preload: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 32,
            lru_cap: 8,
            preload: None,
        }
    }
}

/// One admitted request, queued for the worker.
struct Job {
    tag: Option<String>,
    deadline: Deadline,
    verb: String,
    reply: Sender<String>,
}

/// Shared admission front end handed to every reader thread.
#[derive(Clone)]
struct Admission {
    queue: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    /// EWMA of worker service time, microseconds (for retry hints).
    service_us: Arc<AtomicU64>,
    counters: Arc<SharedCounters>,
    stop: Arc<AtomicBool>,
}

impl Admission {
    /// Admits or sheds one raw request line. All responses (including
    /// shed and parse-error frames) go through `reply`.
    fn offer(&self, line: &str, reply: &Sender<String>) {
        let (tag, budget, verb) = match split_prefix(line) {
            Ok(parts) => parts,
            Err(reason) => {
                let _ = reply.send(format!("err bad-request {reason}"));
                return;
            }
        };
        // The deadline clock starts here, at admission.
        let deadline = budget.map_or_else(Deadline::unarmed, Deadline::within);
        let job = Job {
            tag: tag.clone(),
            deadline,
            verb: verb.to_string(),
            reply: reply.clone(),
        };
        match self.queue.try_send(job) {
            Ok(()) => {
                self.depth.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) => {
                self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                let hint = self.retry_after();
                let _ = reply.send(tag_frame(tag.as_deref(), &overloaded_frame(hint)));
            }
            Err(TrySendError::Disconnected(_)) => {
                let _ = reply.send(tag_frame(tag.as_deref(), "err shutting-down"));
            }
        }
    }

    /// Load-shedding hint: queue depth times the learned mean service
    /// time, floored at one millisecond.
    fn retry_after(&self) -> Duration {
        let depth = self.depth.load(Ordering::Relaxed) as u64 + 1;
        let us = self.service_us.load(Ordering::Relaxed).max(100);
        Duration::from_micros(depth.saturating_mul(us)).max(Duration::from_millis(1))
    }
}

/// The worker loop: owns the state, drains the queue in order, isolates
/// panics, learns the mean service time.
fn worker_loop(
    rx: &Receiver<Job>,
    mut state: ServeState,
    depth: &AtomicUsize,
    service_us: &AtomicU64,
    stop: &AtomicBool,
) {
    while let Ok(job) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        let started = Instant::now();
        let (body, is_shutdown) = match parse_request(&job.verb) {
            Err(reason) => (format!("err bad-request {reason}"), false),
            Ok(req) => {
                let is_shutdown = req == Request::Shutdown;
                let out = catch_unwind(AssertUnwindSafe(|| state.execute(&req, &job.deadline)));
                match out {
                    Ok(body) => (body, is_shutdown),
                    Err(_) => {
                        state.rebuild_session();
                        ("err panic session-rebuilt".into(), false)
                    }
                }
            }
        };
        let us = started.elapsed().as_micros() as u64;
        let old = service_us.load(Ordering::Relaxed);
        service_us.store(old - old / 5 + us / 5, Ordering::Relaxed);
        let _ = job.reply.send(tag_frame(job.tag.as_deref(), &body));
        if is_shutdown {
            stop.store(true, Ordering::Release);
            break;
        }
    }
}

/// A running daemon (worker plus transport threads).
pub struct DaemonHandle {
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
}

impl DaemonHandle {
    /// Requests a stop (as if a `shutdown` request had been served).
    /// The accept loop notices within its poll interval.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Connection threads (each connection's reader and writer) still
    /// alive. A thread's count drops only after its half of the stream
    /// is closed, so 0 once every client has disconnected means no
    /// thread or socket of theirs is left, whenever the OS reaps the
    /// exited threads.
    pub fn live_connection_threads(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Waits for every daemon thread to exit.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn build_core(config: &ServeConfig) -> (Admission, Receiver<Job>, ServeState) {
    let counters = Arc::new(SharedCounters::default());
    let mut state = ServeState::new(config.lru_cap, counters.clone());
    if let Some(spec) = &config.preload {
        let r = state.execute(&Request::Load { spec: spec.clone() }, &Deadline::unarmed());
        assert!(r.starts_with("ok "), "preload failed: {r}");
    }
    let (tx, rx) = sync_channel(config.queue_cap.max(1));
    let admission = Admission {
        queue: tx,
        depth: Arc::new(AtomicUsize::new(0)),
        service_us: Arc::new(AtomicU64::new(1000)),
        counters,
        stop: Arc::new(AtomicBool::new(false)),
    };
    (admission, rx, state)
}

fn spawn_worker(admission: &Admission, rx: Receiver<Job>, state: ServeState) -> JoinHandle<()> {
    let depth = admission.depth.clone();
    let service_us = admission.service_us.clone();
    let stop = admission.stop.clone();
    std::thread::Builder::new()
        .name("sdnd-serve-worker".into())
        .spawn(move || worker_loop(&rx, state, &depth, &service_us, &stop))
        .expect("spawn worker thread")
}

/// Serves the framed protocol over stdin/stdout until EOF or a
/// `shutdown` request. Responses preserve admission order; shed
/// responses may overtake queued ones (tag requests with `id=` when
/// pipelining).
///
/// # Errors
///
/// Propagates I/O errors from stdin.
pub fn run_stdio(config: &ServeConfig) -> std::io::Result<()> {
    let (admission, rx, state) = build_core(config);
    let worker = spawn_worker(&admission, rx, state);

    let (reply_tx, reply_rx) = std::sync::mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("sdnd-serve-stdout".into())
        .spawn(move || {
            let stdout = std::io::stdout();
            for line in reply_rx {
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        })
        .expect("spawn writer thread");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        admission.offer(&line, &reply_tx);
        if admission.stop.load(Ordering::Acquire) {
            break;
        }
    }
    // EOF (or stop): close the queue so the worker drains and exits,
    // then close the reply channel so the writer exits.
    drop(admission);
    let _ = worker.join();
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

/// Binds `path` and serves the framed protocol over a Unix socket until
/// a `shutdown` request (or [`DaemonHandle::stop`]). Each connection
/// gets a reader thread (lines → admission) and a writer thread
/// (responses → stream); both exit when the peer disconnects.
///
/// # Errors
///
/// Propagates bind errors (the path must not exist).
pub fn spawn_unix(path: &Path, config: &ServeConfig) -> std::io::Result<DaemonHandle> {
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let (admission, rx, state) = build_core(config);
    let worker = spawn_worker(&admission, rx, state);
    let stop = admission.stop.clone();

    let accept_stop = stop.clone();
    let live = Arc::new(AtomicUsize::new(0));
    let accept_live = live.clone();
    let accept = std::thread::Builder::new()
        .name("sdnd-serve-accept".into())
        .spawn(move || {
            loop {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => serve_connection(stream, admission.clone(), &accept_live),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
            // Dropping the admission sender lets the worker drain and
            // exit even when stop was raised externally.
            drop(admission);
        })
        .expect("spawn accept thread");

    Ok(DaemonHandle {
        threads: vec![worker, accept],
        stop,
        live,
    })
}

/// Counts one connection thread in the daemon's live count from
/// construction to drop.
struct LiveGuard(Arc<AtomicUsize>);

impl LiveGuard {
    fn new(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        LiveGuard(live.clone())
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-connection fan-in/fan-out. The reader thread ends when the peer
/// closes or the daemon shuts down; the writer thread ends when the
/// last reply sender (reader + queued jobs) is gone. Each thread holds
/// a [`LiveGuard`], declared first so that it drops last.
fn serve_connection(stream: UnixStream, admission: Admission, live: &Arc<AtomicUsize>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::channel::<String>();
    let writer_live = LiveGuard::new(live);
    let writer = std::thread::Builder::new()
        .name("sdnd-serve-conn-writer".into())
        .spawn(move || {
            let _live = writer_live;
            let mut out = std::io::BufWriter::new(write_half);
            for line in reply_rx {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    break;
                }
            }
        });
    let reader_live = LiveGuard::new(live);
    let reader = std::thread::Builder::new()
        .name("sdnd-serve-conn-reader".into())
        .spawn(move || {
            let _live = reader_live;
            // Moved into locals so that they, too, drop before the guard.
            let (admission, reply_tx) = (admission, reply_tx);
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                admission.offer(&line, &reply_tx);
                if admission.stop.load(Ordering::Acquire) {
                    break;
                }
            }
        });
    // Detach: connection threads exit with their connection. Join
    // handles are dropped deliberately.
    drop(writer);
    drop(reader);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{classify_response, ResponseKind};

    fn tmp_socket(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdnd-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    struct Client {
        reader: BufReader<UnixStream>,
        write: UnixStream,
    }

    impl Client {
        fn connect(path: &Path) -> Client {
            // The accept loop may not have the socket up instantly.
            for _ in 0..100 {
                if let Ok(s) = UnixStream::connect(path) {
                    let write = s.try_clone().expect("clone stream");
                    return Client {
                        reader: BufReader::new(s),
                        write,
                    };
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("daemon socket never came up at {}", path.display());
        }

        fn roundtrip(&mut self, req: &str) -> String {
            writeln!(self.write, "{req}").expect("send request");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response");
            line.trim_end().to_string()
        }
    }

    #[test]
    fn unix_daemon_serves_a_session_and_shuts_down() {
        let path = tmp_socket("basic");
        let config = ServeConfig {
            preload: Some("grid:8x8".into()),
            ..ServeConfig::default()
        };
        let handle = spawn_unix(&path, &config).expect("bind daemon");
        let mut c = Client::connect(&path);

        let r = c.roundtrip("decompose thm2.3 0.5 1");
        assert!(r.contains("cached=false"), "{r}");
        let r = c.roundtrip("id=q7 decompose thm2.3 0.5 1");
        assert!(r.starts_with("id=q7 ok"), "{r}");
        assert!(r.contains("cached=true"), "{r}");

        let r = c.roundtrip("cluster-of 12");
        assert_eq!(classify_response(&r), ResponseKind::Ok, "{r}");

        let r = c.roundtrip("deadline=0 decompose thm3.4 0.5 2");
        assert_eq!(classify_response(&r), ResponseKind::Cancelled, "{r}");

        let r = c.roundtrip("debug-panic");
        assert_eq!(classify_response(&r), ResponseKind::Panicked, "{r}");
        let r = c.roundtrip("stats");
        assert!(r.contains("panics=1"), "{r}");

        let r = c.roundtrip("shutdown");
        assert_eq!(r, "ok shutting-down");
        handle.join();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_lines_get_bad_request_frames() {
        let path = tmp_socket("bad");
        let handle = spawn_unix(&path, &ServeConfig::default()).expect("bind daemon");
        let mut c = Client::connect(&path);
        let r = c.roundtrip("frobnicate the graph");
        assert!(r.starts_with("err bad-request"), "{r}");
        let r = c.roundtrip("deadline=oops stats");
        assert!(r.starts_with("err bad-request"), "{r}");
        c.roundtrip("shutdown");
        handle.join();
        let _ = std::fs::remove_file(&path);
    }
}
