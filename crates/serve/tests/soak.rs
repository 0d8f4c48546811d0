//! Soak / leak test: one daemon, hundreds of mixed requests through the
//! framed Unix-socket protocol — including cancelled, overloaded, and
//! panicking ones — with the daemon's live connection-thread count
//! pinned to 0 once the clients have disconnected. Zero panics escape,
//! zero hangs, zero leaks.
//!
//! The count is the daemon's own (a drop guard on each connection
//! thread, dropped after its half of the stream), so the pin does not
//! depend on when the OS reaps an exited thread or on what other tests
//! in this binary have running, as a `/proc/self` thread or fd count
//! would.

use sdnd_serve::protocol::{classify_response, ResponseKind};
use sdnd_serve::{spawn_unix, DaemonHandle, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Waits, up to ten seconds, until no connection thread of `handle` is
/// left, and fails with the count otherwise.
fn assert_connections_drain(handle: &DaemonHandle, when: &str) {
    let started = Instant::now();
    while handle.live_connection_threads() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{when}: {} connection threads still alive",
            handle.live_connection_threads()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn tmp_socket(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sdnd-soak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

struct Client {
    reader: BufReader<UnixStream>,
    write: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Client {
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(path) {
                let write = s.try_clone().expect("clone stream");
                return Client {
                    reader: BufReader::new(s),
                    write,
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("daemon socket never came up");
    }

    fn roundtrip(&mut self, req: &str) -> String {
        writeln!(self.write, "{req}").expect("send");
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection mid-session");
        line.trim_end().to_string()
    }
}

/// The soak itself: ≥200 requests in a fixed rotation that exercises
/// every robustness path, across several sequential connections, then
/// the leak pins.
#[test]
fn soak_mixed_requests_leak_free() {
    let path = tmp_socket("mixed");
    let config = ServeConfig {
        queue_cap: 4,
        lru_cap: 4,
        preload: Some("grid:12x12".into()),
    };
    let handle = spawn_unix(&path, &config).expect("bind daemon");
    assert_eq!(handle.live_connection_threads(), 0);

    let mut served = 0usize;
    let mut cancelled = 0usize;
    let mut panicked = 0usize;
    for conn in 0..4 {
        let mut c = Client::connect(&path);
        for i in 0..60 {
            let line = match i % 12 {
                0 => format!("decompose thm2.3 0.5 {}", i % 5),
                1 => "cluster-of 17".into(),
                2 => "distance-in-cluster 17 18".into(),
                3 => "validate".into(),
                // Deadline-zero requests must cancel, not hang.
                4 => format!("deadline=0 decompose thm3.4 0.5 {conn}{i}"),
                5 => "validate:approx".into(),
                6 => "debug-panic".into(),
                7 => format!("id=t{conn}-{i} decompose thm3.4 0.5 {}", i % 3),
                8 => "carve thm2.2 0.5".into(),
                9 => "stats".into(),
                10 => "definitely-not-a-verb".into(),
                _ => format!(
                    "deadline=1 validate{}",
                    if i % 2 == 0 { "" } else { ":approx" }
                ),
            };
            let resp = c.roundtrip(&line);
            // Answered: the connection's reader and writer are running.
            assert!(handle.live_connection_threads() >= 2);
            served += 1;
            match classify_response(&resp) {
                ResponseKind::Ok | ResponseKind::OtherError => {}
                ResponseKind::Cancelled => cancelled += 1,
                ResponseKind::Panicked => panicked += 1,
                ResponseKind::Overloaded => panic!("closed-loop client was shed: {resp}"),
                ResponseKind::Malformed => panic!("malformed frame: {resp}"),
            }
        }
        drop(c);
    }
    assert!(served >= 200, "soak must push at least 200 requests");
    assert!(cancelled >= 20, "deadline rotation must trip ({cancelled})");
    assert_eq!(panicked, 4 * 5, "every debug-panic poisons one request");

    // Overload burst: more raw writes than the queue admits, from a
    // pipelining client that does not wait for responses. EN16 reads its
    // seed, so every burst request misses the LRU and carves.
    let mut burst = Client::connect(&path);
    for i in 0..32 {
        writeln!(burst.write, "id=b{i} decompose en16 0.5 {}", 100 + i).expect("send");
    }
    let mut overloaded = 0;
    for _ in 0..32 {
        let mut line = String::new();
        burst.reader.read_line(&mut line).expect("recv");
        if classify_response(&line) == ResponseKind::Overloaded {
            overloaded += 1;
        }
    }
    assert!(
        overloaded > 0,
        "a 32-deep burst into a 4-slot queue must shed"
    );
    drop(burst);
    assert_connections_drain(&handle, "after the soak clients");

    // The daemon is still coherent after everything above.
    let mut c = Client::connect(&path);
    let stats = c.roundtrip("stats");
    assert!(stats.contains("panics=20"), "{stats}");
    assert!(!stats.contains("overloaded=0 "), "{stats}");
    let resp = c.roundtrip("decompose thm2.3 0.5 0");
    assert_eq!(classify_response(&resp), ResponseKind::Ok, "{resp}");
    assert_eq!(c.roundtrip("shutdown"), "ok shutting-down");
    drop(c);
    // Leak pin: every connection's reader and writer thread, and with
    // them its stream halves, must be gone.
    assert_connections_drain(&handle, "after shutdown");
    handle.join();
    let _ = std::fs::remove_file(&path);
}
