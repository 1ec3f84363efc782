//! End-to-end tests for the TCP server: concurrent sessions driving rule
//! firings, session isolation, wire-level misbehaviour, a client killed
//! mid-batch, drains against a serial model, and group commit.
//! (Thread accounting lives in `threads.rs`, a binary of its own.)

use ariel::{Ariel, EngineOptions};
use ariel_server::protocol::{
    encode_hello_client, read_frame, write_frame, ErrorCode, Opcode, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use ariel_server::{Client, ClientError, Server, ServerHandle, ServerOptions};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

#[path = "../../../tests/common/golden.rs"]
mod golden;

/// A fresh engine with the test schema: a `kv` relation and an active
/// rule mirroring large values into `audit` (so appends exercise the
/// match network, not just the heap).
fn test_engine() -> Ariel {
    test_engine_with(EngineOptions::default())
}

fn test_engine_with(options: EngineOptions) -> Ariel {
    let mut db = Ariel::with_options(options);
    db.execute("create kv (k = int, v = int)").unwrap();
    db.execute("create audit (k = int, v = int)").unwrap();
    db.execute("define rule big if kv.v >= 100 then append to audit (k = kv.k, v = kv.v)")
        .unwrap();
    db
}

fn spawn_server() -> (SocketAddr, ServerHandle) {
    spawn_server_with(ServerOptions::default())
}

fn spawn_server_with(options: ServerOptions) -> (SocketAddr, ServerHandle) {
    spawn_server_on(test_engine(), options)
}

fn spawn_server_on(db: Ariel, options: ServerOptions) -> (SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", db, options).unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}

/// Rows for [`hold_engine`]'s nested-loop retrieve.
fn add_ballast(db: &mut Ariel) {
    db.execute("create lhs (x = int)").unwrap();
    db.execute("create rhs (x = int)").unwrap();
    for i in 0..600 {
        db.execute(&format!("append lhs (x = {i})")).unwrap();
        db.execute(&format!("append rhs (x = {i})")).unwrap();
    }
}

/// Make the next requests contend: send, on a raw session, a retrieve
/// that evaluates 360 000 pairs and returns none — milliseconds with the
/// engine held, against the microseconds other sessions need to deposit
/// their frames behind it. Returns once the frame is sent; call the
/// result to read the reply.
fn hold_engine(addr: SocketAddr) -> impl FnOnce() {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, Opcode::Hello, &encode_hello_client()).unwrap();
    read_frame(&mut s).unwrap();
    write_frame(
        &mut s,
        Opcode::Query,
        b"retrieve (lhs.x) where lhs.x + rhs.x < 0",
    )
    .unwrap();
    move || assert_eq!(read_frame(&mut s).unwrap().opcode, Opcode::Result)
}

#[test]
fn two_concurrent_clients_end_to_end() {
    let (addr, handle) = spawn_server();

    // two clients appending disjoint key ranges concurrently, some rows
    // above the rule threshold
    let writer = |base: i64| {
        move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..50i64 {
                let k = base + i;
                let v = if i % 5 == 0 { 100 + i } else { i };
                let r = c.command(&format!("append kv (k = {k}, v = {v})")).unwrap();
                assert!(r.changes >= 1, "append must report its change");
            }
            c
        }
    };
    let t1 = std::thread::spawn(writer(0));
    let t2 = std::thread::spawn(writer(1000));
    let mut c1 = t1.join().unwrap();
    let c2 = t2.join().unwrap();

    // both clients' rows and the rule's firings are visible to a query
    let kv = c1.query("retrieve (kv.all)").unwrap();
    assert_eq!(kv.table.rows.len(), 100, "both sessions' appends landed");
    let audit = c1.query("retrieve (audit.all)").unwrap();
    assert_eq!(
        audit.table.rows.len(),
        20,
        "rule fired once per above-threshold append (10 per client)"
    );

    drop(c2);
    let (stats, engine) = handle.shutdown();
    assert_eq!(stats.sessions, 2);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.engine_errors, 0);
    // engine comes back out of the server with all the state
    let mut engine = engine;
    let out = engine.query("retrieve (kv.all)").unwrap();
    assert_eq!(out.rows.len(), 100);
}

#[test]
fn session_isolation_interleaved() {
    let (addr, handle) = spawn_server();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert_ne!(a.session_id(), b.session_id(), "distinct session ids");

    // interleave commands; each client must see exactly its own replies
    for i in 0..20i64 {
        let ra = a.command(&format!("append kv (k = {i}, v = 1)")).unwrap();
        assert_eq!(ra.changes, 1, "client a sees one change per append");
        let rb = b
            .command(&format!(
                "append kv (k = {}, v = 2)\nappend kv (k = {}, v = 3)",
                100 + i,
                200 + i
            ))
            .unwrap();
        assert_eq!(rb.changes, 2, "client b sees its two-append change count");
    }

    // an engine error on one session leaves the other (and itself) usable
    let err = a.command("append nosuch (k = 1)").unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Engine),
        other => panic!("expected engine error, got {other}"),
    }
    assert_eq!(a.query("retrieve (kv.all)").unwrap().table.rows.len(), 60);
    assert_eq!(b.query("retrieve (kv.all)").unwrap().table.rows.len(), 60);

    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.engine_errors, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn oversized_result_becomes_engine_error_not_desync() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    c.command("create blob (id = int, body = str)").unwrap();

    // five ~1 MiB rows: each append frame fits, but the combined
    // retrieve result overflows the 4 MiB frame cap
    for i in 0..5i64 {
        let body = "x".repeat(1 << 20);
        let r = c
            .command(&format!("append blob (id = {i}, body = \"{body}\")"))
            .unwrap();
        assert_eq!(r.changes, 1);
    }

    let err = c.query("retrieve (blob.all)").unwrap_err();
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Engine);
            assert!(
                message.contains("frame cap"),
                "message explains the cap: {message}"
            );
        }
        other => panic!("expected oversized-result error, got {other}"),
    }

    // the stream is still in sync: a narrower query succeeds
    let out = c.query("retrieve (blob.id)").unwrap();
    assert_eq!(out.table.rows.len(), 5, "session survives the oversize");

    drop(c);
    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0, "no wire-level fault recorded");
}

#[test]
fn query_frame_rejects_non_retrieve() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    let err = c.query("append kv (k = 1, v = 1)").unwrap_err();
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Engine);
            assert!(
                message.contains("retrieve"),
                "message names the rule: {message}"
            );
        }
        other => panic!("expected engine error, got {other}"),
    }
    // session survives an engine-class error
    assert!(c.query("retrieve (kv.all)").is_ok());
    handle.shutdown();
}

#[test]
fn wire_level_violations_close_connection() {
    let (addr, handle) = spawn_server();

    // garbage opcode after a valid hello
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, Opcode::Hello, &encode_hello_client()).unwrap();
        let hello = read_frame(&mut s).unwrap();
        assert_eq!(hello.opcode, Opcode::Hello);
        s.write_all(&2u32.to_be_bytes()).unwrap();
        s.write_all(&[0xEE, 0x00]).unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply.opcode, Opcode::Error);
        // then the server hangs up
        assert!(read_frame(&mut s).is_err());
    }

    // oversized frame length is rejected before any payload is read
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, Opcode::Hello, &encode_hello_client()).unwrap();
        read_frame(&mut s).unwrap();
        s.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply.opcode, Opcode::Error);
    }

    // truncated frame: declared length, then hang up mid-body
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, Opcode::Hello, &encode_hello_client()).unwrap();
        read_frame(&mut s).unwrap();
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(&[Opcode::Command as u8, b'a']).unwrap();
        drop(s); // server should just reap the session, not wedge
    }

    // first frame not a hello
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, Opcode::Command, b"retrieve (kv.all)").unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply.opcode, Opcode::Error);
    }

    // wrong protocol version in hello
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let bogus = (PROTOCOL_VERSION + 1).to_be_bytes();
        write_frame(&mut s, Opcode::Hello, &bogus).unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply.opcode, Opcode::Error);
    }

    // a healthy client still works after all of the above
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 1)").unwrap();
    assert_eq!(c.query("retrieve (kv.all)").unwrap().table.rows.len(), 1);

    let (stats, _engine) = handle.shutdown();
    assert!(
        stats.protocol_errors >= 4,
        "violations counted: {}",
        stats.protocol_errors
    );
}

#[test]
fn kill_client_mid_batch_keeps_engine_consistent() {
    let (addr, handle) = spawn_server();

    // one client hammers appends and is killed without reading replies;
    // frames fully received by the server must execute atomically
    let mut victim = TcpStream::connect(addr).unwrap();
    write_frame(&mut victim, Opcode::Hello, &encode_hello_client()).unwrap();
    read_frame(&mut victim).unwrap();
    for i in 0..40i64 {
        write_frame(
            &mut victim,
            Opcode::Command,
            format!("append kv (k = {i}, v = 100)").as_bytes(),
        )
        .unwrap();
    }
    // hard close with replies unread and possibly frames in flight
    drop(victim);

    // a healthy concurrent client keeps appending throughout
    let mut c = Client::connect(addr).unwrap();
    for i in 0..40i64 {
        c.command(&format!("append kv (k = {}, v = 100)", 1000 + i))
            .unwrap();
    }

    // consistency: every kv row above threshold has exactly one audit row
    let kv = c.query("retrieve (kv.all)").unwrap();
    let audit = c.query("retrieve (audit.all)").unwrap();
    assert_eq!(
        kv.table.rows.len(),
        audit.table.rows.len(),
        "each committed append fired the rule exactly once"
    );
    assert!(
        kv.table.rows.len() >= 40,
        "the healthy client's rows all landed"
    );

    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.engine_errors, 0);
}

#[test]
fn cross_session_append_batching() {
    // requests share a drain whenever sessions deposit while another
    // holds the engine; many clients + many appends makes that likely,
    // but we only assert on what is guaranteed (correct totals,
    // well-formed drain stats)
    let (addr, handle) = spawn_server();
    let mut threads = Vec::new();
    for t in 0..8i64 {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..50i64 {
                c.command(&format!("append kv (k = {}, v = {i})", t * 1000 + i))
                    .unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.query("retrieve (kv.all)").unwrap().table.rows.len(), 400);

    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.commands, 400);
    let drained: u64 = stats.batch_hist.iter().sum();
    assert_eq!(drained, stats.batches, "histogram covers every drain");
    assert!(stats.max_batch >= 1);
    assert_eq!(
        stats.batch_hist[0] + stats.batched_requests,
        stats.commands + stats.queries,
        "every answered frame rode exactly one drain: {stats:?}"
    );
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn metrics_frame_reports_server_and_engine() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 100)").unwrap();
    let json = c.metrics().unwrap();
    assert!(json.starts_with("{\"server\":{"), "got: {json}");
    assert!(json.contains("\"engine\":{"), "engine half present: {json}");
    assert!(
        json.contains("\"commands\":1"),
        "server half counts: {json}"
    );
    handle.shutdown();
}

#[test]
fn metrics_prom_frame_is_valid_exposition() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 100)").unwrap();
    c.query("retrieve (kv.all)").unwrap();
    let text = c.metrics_prom().unwrap();
    for family in [
        "# TYPE ariel_server_sessions_total counter",
        "# TYPE ariel_server_requests_total counter",
        "# TYPE ariel_server_request_duration_ns histogram",
        "# TYPE ariel_server_batch_groups_total counter",
        "# TYPE ariel_wal_fsyncs_total counter",
        "# TYPE ariel_rule_firings_total counter",
        "# TYPE ariel_engine_firings_total counter",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    // the one above-threshold append fired the audit rule once
    assert!(
        text.contains("ariel_rule_firings_total{rule=\"big\"} 1"),
        "per-rule firing counter: {text}"
    );
    // per-opcode latency histograms carry this session's two requests
    assert!(
        text.contains("ariel_server_request_duration_ns_count{opcode=\"command\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("ariel_server_request_duration_ns_count{opcode=\"query\"} 1"),
        "{text}"
    );
    // every line is a comment or a `name{labels} value` sample
    for line in text.lines() {
        assert!(
            line.starts_with("# ") || line.split_whitespace().count() == 2,
            "malformed exposition line: {line:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn http_get_metrics_shim_serves_prometheus() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 100)").unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.0 200 OK\r\n"),
        "status line: {response}"
    );
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1;
    assert!(body.contains("ariel_server_commands_total 1"), "{body}");
    assert!(
        body.contains("# TYPE ariel_engine_firings_total counter"),
        "{body}"
    );

    // the shim is not a session and breaks nothing for real clients
    assert_eq!(c.query("retrieve (kv.all)").unwrap().table.rows.len(), 1);
    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0, "GET is not a protocol violation");
}

#[test]
fn slow_log_captures_slowest_under_16_client_load() {
    let options = ServerOptions {
        slow_capacity: 8,
        slow_threshold_ns: 0, // everything competes; the 8 slowest stay
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(options);
    let mut threads = Vec::new();
    for t in 0..16i64 {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..20i64 {
                c.command(&format!("append kv (k = {}, v = {i})", t * 1000 + i))
                    .unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    let mut c = Client::connect(addr).unwrap();
    let json = c.metrics().unwrap();
    assert!(json.contains("\"telemetry\":{"), "{json}");
    let slowlog = json.split_once("\"slowlog\":[").expect("slowlog section").1;
    let slowlog = &slowlog[..slowlog.find(']').expect("slowlog closes")];
    let entries = slowlog.matches("\"session\":").count();
    assert_eq!(entries, 8, "log holds exactly its capacity: {slowlog}");
    assert!(slowlog.contains("\"opcode\":\"command\""), "{slowlog}");
    assert!(slowlog.contains("\"dur_ns\":"), "{slowlog}");
    assert!(
        slowlog.contains("append kv"),
        "rendered ARL text: {slowlog}"
    );
    // per-session figures cover the 16 writers
    let sessions = json
        .split_once("\"sessions\":{")
        .expect("sessions section")
        .1;
    assert!(
        sessions.matches("\"requests\":").count() >= 16,
        "{sessions}"
    );
    handle.shutdown();
}

#[test]
fn telemetry_off_serves_but_records_nothing() {
    let options = ServerOptions {
        telemetry: false,
        ..Default::default()
    };
    let (addr, handle) = spawn_server_with(options);
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 100)").unwrap();
    let json = c.metrics().unwrap();
    assert!(json.contains("\"telemetry\":{\"enabled\":false"), "{json}");
    assert!(
        json.contains("\"opcodes\":{}"),
        "no per-opcode stats: {json}"
    );
    assert!(json.contains("\"slowlog\":[]"), "{json}");
    // plain server counters still work (they predate the telemetry layer)
    assert!(json.contains("\"commands\":1"), "{json}");
    let prom = c.metrics_prom().unwrap();
    assert!(prom.contains("ariel_server_commands_total 1"), "{prom}");
    handle.shutdown();
}

/// Both server frames, for one scripted client with telemetry off, hold
/// the key paths and families of `tests/golden/`.
#[test]
fn metrics_frames_match_their_golden_schemas() {
    let (addr, handle) = spawn_server_with(ServerOptions {
        telemetry: false,
        ..Default::default()
    });
    let mut c = Client::connect(addr).unwrap();
    c.command("append kv (k = 1, v = 100)").unwrap();
    c.query("retrieve (kv.all)").unwrap();
    let json = c.metrics().unwrap();
    let prom = c.metrics_prom().unwrap();
    handle.shutdown();
    golden::assert_golden("server_metrics_json.txt", &golden::json_schema(&json));
    golden::assert_golden("server_metrics_prom.txt", &golden::prom_schema(&prom));
}

#[test]
fn notifications_reach_the_session() {
    let mut db = Ariel::with_options(EngineOptions::default());
    db.execute("create kv (k = int, v = int)").unwrap();
    db.execute("define rule watch if kv.v >= 100 then notify bigkv (kv.k, kv.v)")
        .unwrap();
    let server = Server::bind("127.0.0.1:0", db, ServerOptions::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut c = Client::connect(addr).unwrap();
    let quiet = c.command("append kv (k = 1, v = 5)").unwrap();
    assert!(quiet.notes.is_empty());
    let loud = c.command("append kv (k = 2, v = 200)").unwrap();
    assert_eq!(loud.notes.len(), 1, "notify rode back on the result frame");
    assert_eq!(loud.notes[0].0, "bigkv");
    assert_eq!(loud.notes[0].1.rows.len(), 1);
    handle.shutdown();
}

/// 16 sessions of mixed frames, each over its own keys so the sessions
/// commute: every reply carries exactly its own session's change count
/// and value, and the final contents equal a serial model of the same
/// requests — however the drains grouped them.
#[test]
fn sixteen_mixed_sessions_match_a_serial_model() {
    const SESSIONS: i64 = 16;
    const ROUNDS: i64 = 25;
    let mut db = test_engine();
    add_ballast(&mut db);
    let (addr, handle) = spawn_server_on(db, ServerOptions::default());

    let mut clients: Vec<Client> = (0..SESSIONS)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    let release = hold_engine(addr);
    let threads: Vec<_> = clients
        .drain(..)
        .enumerate()
        .map(|(t, mut c)| {
            std::thread::spawn(move || {
                let base = t as i64 * 1000;
                for i in 0..ROUNDS {
                    let (k, k2) = (base + 2 * i, base + 2 * i + 1);
                    // append-only frame (one transition), one row above
                    // the rule threshold every fifth round
                    let v = if i % 5 == 0 { 100 + i } else { i };
                    let r = c
                        .command(&format!(
                            "append kv (k = {k}, v = {v})\nappend kv (k = {k2}, v = 1)"
                        ))
                        .unwrap();
                    assert_eq!(r.changes, 2, "session {t} round {i}: own appends");
                    let r = c
                        .command(&format!("replace kv (v = 7) where kv.k = {k2}"))
                        .unwrap();
                    assert_eq!(r.changes, 1, "session {t} round {i}: own replace");
                    let r = c
                        .query(&format!("retrieve (kv.v) where kv.k = {k2}"))
                        .unwrap();
                    assert_eq!(r.table.rows, [["7"]], "session {t} round {i}: own row");
                    if i % 2 == 1 {
                        let r = c.command(&format!("delete kv where kv.k = {k2}")).unwrap();
                        assert_eq!(r.changes, 1, "session {t} round {i}: own delete");
                    }
                }
            })
        })
        .collect();
    release();
    for t in threads {
        t.join().unwrap();
    }

    // the serial model
    let mut kv = Vec::new();
    let mut audit = Vec::new();
    for t in 0..SESSIONS {
        for i in 0..ROUNDS {
            let (k, k2) = (t * 1000 + 2 * i, t * 1000 + 2 * i + 1);
            let v = if i % 5 == 0 { 100 + i } else { i };
            kv.push(vec![k.to_string(), v.to_string()]);
            if v >= 100 {
                audit.push(vec![k.to_string(), v.to_string()]);
            }
            if i % 2 == 0 {
                kv.push(vec![k2.to_string(), "7".to_string()]);
            }
        }
    }
    kv.sort();
    audit.sort();
    let mut c = Client::connect(addr).unwrap();
    let sorted = |c: &mut Client, src: &str| {
        let mut rows = c.query(src).unwrap().table.rows;
        rows.sort();
        rows
    };
    assert_eq!(sorted(&mut c, "retrieve (kv.all)"), kv);
    assert_eq!(sorted(&mut c, "retrieve (audit.all)"), audit);

    let (stats, _engine) = handle.shutdown();
    assert!(
        stats.batched_requests > 0,
        "requests deposited behind the held engine share a drain: {stats:?}"
    );
    assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.batches);
    assert_eq!(
        stats.batch_hist[0] + stats.batched_requests,
        stats.commands + stats.queries,
        "every answered frame rode exactly one drain: {stats:?}"
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.engine_errors, 0);
}

/// One session can never find anything but its own entry pending.
#[test]
fn one_session_is_one_group_per_request() {
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(addr).unwrap();
    for i in 0..30i64 {
        c.command(&format!("append kv (k = {i}, v = {i})")).unwrap();
        c.query("retrieve (kv.k) where kv.v >= 100").unwrap();
    }
    drop(c);
    let (stats, _engine) = handle.shutdown();
    assert_eq!(stats.batches, 60);
    assert_eq!(stats.batched_requests, 0);
    assert_eq!(stats.max_batch, 1);
}

/// Commit mode under 8 sessions: a drain's records share one fsync (each
/// append is its own transition and record), and acked work is what
/// recovery finds.
#[test]
fn commit_mode_drains_share_an_fsync_and_recover() {
    let dir = std::env::temp_dir().join(format!("ariel-server-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = EngineOptions {
        durability: ariel::Durability::Commit,
        ..Default::default()
    };
    let mut db = test_engine_with(options.clone());
    add_ballast(&mut db);
    db.checkpoint(&dir).unwrap();
    let (addr, handle) = spawn_server_on(db, ServerOptions::default());

    let mut clients: Vec<Client> = (0..8).map(|_| Client::connect(addr).unwrap()).collect();
    let release = hold_engine(addr);
    let threads: Vec<_> = clients
        .drain(..)
        .enumerate()
        .map(|(t, mut c)| {
            std::thread::spawn(move || {
                for i in 0..20 {
                    let k = t * 1000 + i;
                    let r = c
                        .command(&format!("append kv (k = {k}, v = {})", 90 + i))
                        .unwrap();
                    assert_eq!(r.changes, 1);
                }
            })
        })
        .collect();
    release();
    for t in threads {
        t.join().unwrap();
    }

    let (stats, mut engine) = handle.shutdown();
    assert_eq!(stats.engine_errors, 0);
    let wal = engine.wal_metrics();
    assert_eq!(wal.records, 160, "one record per acked append");
    assert!(
        wal.fsyncs < wal.records,
        "group commit: {} fsyncs for {} records",
        wal.fsyncs,
        wal.records
    );
    let contents = |db: &mut Ariel| {
        ["kv", "audit"].map(|rel| {
            let mut rows = db.query(&format!("retrieve ({rel}.all)")).unwrap().rows;
            rows.sort_by_key(|row| format!("{row:?}"));
            rows
        })
    };
    let served = contents(&mut engine);
    assert_eq!((served[0].len(), served[1].len()), (160, 80));
    drop(engine);
    let (mut recovered, report) = Ariel::recover(&dir, options).unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    assert_eq!(contents(&mut recovered), served);
    let _ = std::fs::remove_dir_all(&dir);
}
