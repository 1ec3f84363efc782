//! Thread accounting, in a test binary of its own: the counts come from
//! `/proc/self/task`, which is process-wide, so no sibling test may be
//! starting servers while this one looks.
#![cfg(target_os = "linux")]

use ariel::Ariel;
use ariel_server::protocol::{encode_hello_client, read_frame, write_frame, Opcode};
use ariel_server::{Client, Server, ServerOptions};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A finished thread leaves `/proc` a moment after its peer saw the
/// socket close, so equalities are polled up to a deadline.
fn assert_threads(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(thread_count(), expected, "{what}");
}

#[test]
fn server_owns_accept_plus_one_thread_per_live_session() {
    let before = thread_count();
    let mut db = Ariel::new();
    db.execute("create kv (k = int, v = int)").unwrap();
    let server = Server::bind("127.0.0.1:0", db, ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    assert_threads(before + 1, "an idle server is its accept loop");

    for i in 0..50 {
        let mut c = Client::connect(addr).unwrap();
        c.command(&format!("append kv (k = {i}, v = 1)")).unwrap();
    }
    let mut scrape = TcpStream::connect(addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    scrape.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");

    let mut c = Client::connect(addr).unwrap();
    assert_threads(
        before + 2,
        "51 closed connections left nothing: accept + the one live session",
    );
    assert_eq!(c.query("retrieve (kv.k)").unwrap().table.rows.len(), 50);

    c.shutdown().unwrap();
    // join() returns only after the accept loop joined every session
    let (stats, _engine) = handle.join();
    assert_eq!(stats.sessions, 52);
    assert_threads(before, "no thread outlives the server");

    // the port is released
    assert!(
        TcpStream::connect(addr).is_err() || {
            // a racing TIME_WAIT accept is possible; a write must then fail
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, Opcode::Hello, &encode_hello_client()).is_err()
                || read_frame(&mut s).is_err()
        }
    );
}
