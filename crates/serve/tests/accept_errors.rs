//! Accept errors over a real socket. This is a test binary of its own
//! because the test exhausts the process's file descriptors, which
//! would break any test running beside it.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use jinn_serve::{Daemon, ServeConfig, SocketServer};

/// Above this soft descriptor limit, exhausting the limit costs more
/// time and memory than the test is worth.
const MAX_HOARD: u64 = 131_072;

/// `EMFILE`: the process has no free descriptor.
const EMFILE: i32 = 24;

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
fn soft_nofile_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Opens `/dev/null` until the process runs out of descriptors.
fn exhaust_descriptors() -> Vec<File> {
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) => {
                assert_eq!(
                    e.raw_os_error(),
                    Some(EMFILE),
                    "hoarding stopped early: {e}"
                );
                return hoard;
            }
        }
    }
}

/// Sends one `ping` on `conn` and reads the reply line, waiting at most
/// five seconds.
fn ping_on(conn: TcpStream) -> std::io::Result<String> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    (&conn).write_all(b"{\"op\": \"ping\"}\n")?;
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line)?;
    Ok(line)
}

/// While descriptors are exhausted, `accept` fails with `EMFILE`; the
/// accept loop backs off and accepts again instead of ending, so a
/// client that connected meanwhile is served once descriptors free up.
/// Then a shutdown whose wake-up connection cannot be made (no
/// descriptor for its socket) still returns, and the connection the
/// accept thread takes after the stop flag is set is closed unserved.
#[test]
fn accept_errors_do_not_stop_the_server() {
    match soft_nofile_limit() {
        Some(limit) if limit <= MAX_HOARD => {}
        other => {
            eprintln!(
                "skipped: the soft descriptor limit ({other:?}) is unknown or above {MAX_HOARD}"
            );
            return;
        }
    }
    let daemon = Daemon::start(ServeConfig::default());
    let server = SocketServer::bind(daemon.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut hoard = exhaust_descriptors();
    hoard.pop();
    let client = TcpStream::connect(addr);
    // Long enough for many accept attempts against the exhausted table.
    std::thread::sleep(Duration::from_millis(100));
    drop(hoard);
    let reply = client.and_then(ping_on);
    assert!(
        matches!(&reply, Ok(line) if line.contains("pong")),
        "the server stopped serving after an accept error: {reply:?}"
    );

    let hoard = exhaust_descriptors();
    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    let shut = returned.recv_timeout(Duration::from_secs(5));
    drop(hoard);
    assert!(
        shut.is_ok(),
        "shutdown hung when its wake-up connection could not be made"
    );
    // The accept thread outlived the failed wake-up and takes this
    // connection after the stop flag was set.
    let late = TcpStream::connect(addr).expect("the accept thread still listens");
    let reply = ping_on(late);
    assert!(
        !matches!(&reply, Ok(line) if line.contains("pong")),
        "a connection accepted after stop was served: {reply:?}"
    );
    daemon.shutdown();
}
