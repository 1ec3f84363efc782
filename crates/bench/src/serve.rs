//! Load generator for the TCP server: N client threads hammering an
//! in-process [`ariel_server::Server`] over loopback with a mixed
//! append/replace/retrieve workload against an active rule, measuring
//! per-request latency (p50/p99), commands per second, and how much
//! cross-session write batching the server's drains achieved.
//!
//! `paper_tables -- serve` renders the table and writes
//! `BENCH_serve.json`, which `bench_gate serve` checks against the
//! checked-in `BENCH_serve_baseline.json`.

use ariel::{Ariel, EngineOptions};
use ariel_server::{Client, Server, ServerOptions};
use std::time::{Duration, Instant};

/// Requests each client issues per run.
pub const COMMANDS_PER_CLIENT: usize = 200;

/// One row of the serve benchmark: a run at a fixed client count.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests issued across all clients (commands + queries).
    pub requests: u64,
    /// Wall-clock for the whole run (connect → last reply).
    pub total: Duration,
    /// Median per-request latency.
    pub p50: Duration,
    /// 99th-percentile per-request latency.
    pub p99: Duration,
    /// Engine-level errors the server reported (must be 0).
    pub cmd_errors: u64,
    /// Protocol-level errors the server reported (must be 0).
    pub protocol_errors: u64,
    /// Groups the server's drains ran (one transition each).
    pub batches: u64,
    /// Requests that rode in a group of ≥ 2 sessions' appends.
    pub batched_requests: u64,
    /// Largest group, in requests.
    pub max_batch: u64,
}

/// The served schema: a keyed relation plus an active rule mirroring
/// above-threshold rows into an audit log, so every append exercises the
/// discrimination network and not just the heap.
fn serve_db() -> Ariel {
    let mut db = Ariel::with_options(EngineOptions::default());
    db.execute("create kv (k = int, v = int)").unwrap();
    db.execute("create audit (k = int, v = int)").unwrap();
    db.execute("define rule audit_big if kv.v >= 900 then append to audit (k = kv.k, v = kv.v)")
        .unwrap();
    db
}

/// The per-client request mix, chosen request-by-request: 7 appends, one
/// replace, two retrieves per 10 requests. Appends dominate so the
/// cross-session batcher has material to work with; the replace and the
/// retrieves break up the append runs the way a real mixed load would.
fn request(c: &mut Client, client: usize, i: usize) -> Result<(), ariel_server::ClientError> {
    let k = (client * COMMANDS_PER_CLIENT + i) as i64;
    match i % 10 {
        7 => c
            .command(&format!("replace kv (v = {i}) where kv.k = {}", k - 1))
            .map(drop),
        8 | 9 => c.query("retrieve (kv.k) where kv.v >= 900").map(drop),
        _ => c
            .command(&format!("append kv (k = {k}, v = {})", (i * 13) % 1000))
            .map(drop),
    }
}

/// Run one client-count configuration against a fresh in-process server
/// and collect latency + batching numbers.
pub fn serve_row(clients: usize) -> ServeRow {
    let server =
        Server::bind("127.0.0.1:0", serve_db(), ServerOptions::default()).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();

    let start = Instant::now();
    let mut threads = Vec::new();
    for client in 0..clients {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut lat = Vec::with_capacity(COMMANDS_PER_CLIENT);
            let mut errors = 0u64;
            for i in 0..COMMANDS_PER_CLIENT {
                let t = Instant::now();
                if request(&mut c, client, i).is_err() {
                    errors += 1;
                }
                lat.push(t.elapsed());
            }
            (lat, errors)
        }));
    }
    let mut latencies = Vec::with_capacity(clients * COMMANDS_PER_CLIENT);
    let mut client_errors = 0u64;
    for t in threads {
        let (lat, errors) = t.join().expect("client thread");
        latencies.extend(lat);
        client_errors += errors;
    }
    let total = start.elapsed();
    let (stats, _engine) = handle.shutdown();
    assert_eq!(
        client_errors, stats.engine_errors,
        "client and server agree on errors"
    );

    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).saturating_sub(1);
        latencies[idx.min(latencies.len() - 1)]
    };
    ServeRow {
        clients,
        requests: latencies.len() as u64,
        total,
        p50: pct(0.50),
        p99: pct(0.99),
        cmd_errors: stats.engine_errors,
        protocol_errors: stats.protocol_errors,
        batches: stats.batches,
        batched_requests: stats.batched_requests,
        max_batch: stats.max_batch,
    }
}

/// The full table: one row per client count.
pub fn serve_table(client_counts: &[usize]) -> Vec<ServeRow> {
    client_counts.iter().map(|&c| serve_row(c)).collect()
}

/// One row of the telemetry-overhead benchmark (`paper_tables -- obs`):
/// the serve workload with the server's telemetry layer on or off.
#[derive(Debug, Clone)]
pub struct ObsRow {
    /// `"telemetry_off"` or `"telemetry_on"`.
    pub config: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests issued (deterministic for a client count).
    pub requests: u64,
    /// `command` frames answered.
    pub commands: u64,
    /// `query` frames answered.
    pub queries: u64,
    /// Best (minimum) wall-clock over the measured repetitions.
    pub total: Duration,
}

/// Drive the standard serve workload once under `options` and return the
/// wall clock plus the server's counters.
fn serve_once(options: ServerOptions, clients: usize) -> (Duration, ariel_server::ServerStats) {
    let server = Server::bind("127.0.0.1:0", serve_db(), options).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();
    let start = Instant::now();
    let mut threads = Vec::new();
    for client in 0..clients {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            for i in 0..COMMANDS_PER_CLIENT {
                request(&mut c, client, i).expect("all-valid workload");
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    let total = start.elapsed();
    let (stats, _engine) = handle.shutdown();
    (total, stats)
}

/// Measure the telemetry overhead: the same workload with telemetry off
/// and on, `reps` repetitions each, keeping the *minimum* wall clock per
/// config (the least-noise estimate — `bench_gate obs` holds the on/off
/// ratio under 10%).
pub fn obs_overhead_table(clients: usize, reps: usize) -> Vec<ObsRow> {
    [("telemetry_off", false), ("telemetry_on", true)]
        .iter()
        .map(|&(config, telemetry)| {
            let mut best: Option<(Duration, ariel_server::ServerStats)> = None;
            for _ in 0..reps.max(1) {
                let options = ServerOptions {
                    telemetry,
                    ..Default::default()
                };
                let (total, stats) = serve_once(options, clients);
                if best.as_ref().map_or(true, |(b, _)| total < *b) {
                    best = Some((total, stats));
                }
            }
            let (total, stats) = best.expect("reps >= 1");
            ObsRow {
                config,
                clients,
                requests: stats.commands + stats.queries,
                commands: stats.commands,
                queries: stats.queries,
                total,
            }
        })
        .collect()
}

/// Render obs rows as the flat JSON array `bench_gate obs` parses.
pub fn obs_json(rows: &[ObsRow]) -> String {
    let mut json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"config\":\"{}\",\"clients\":{},\"requests\":{},\"commands\":{},\
             \"queries\":{},\"total_ms\":{:.3},\"cps\":{:.1}}}",
            r.config,
            r.clients,
            r.requests,
            r.commands,
            r.queries,
            r.total.as_secs_f64() * 1e3,
            r.requests as f64 / r.total.as_secs_f64().max(1e-12),
        ));
    }
    json.push(']');
    json
}

/// Commands per second for a row.
pub fn cps(r: &ServeRow) -> f64 {
    r.requests as f64 / r.total.as_secs_f64().max(1e-12)
}

/// Render rows as the flat JSON array `bench_gate serve` parses.
pub fn serve_json(rows: &[ServeRow]) -> String {
    let mut json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"clients\":{},\"requests\":{},\"total_ms\":{:.3},\"cps\":{:.1},\
             \"p50_us\":{:.1},\"p99_us\":{:.1},\"cmd_errors\":{},\"protocol_errors\":{},\
             \"batches\":{},\"batched_requests\":{},\"max_batch\":{}}}",
            r.clients,
            r.requests,
            r.total.as_secs_f64() * 1e3,
            cps(r),
            r.p50.as_secs_f64() * 1e6,
            r.p99.as_secs_f64() * 1e6,
            r.cmd_errors,
            r.protocol_errors,
            r.batches,
            r.batched_requests,
            r.max_batch,
        ));
    }
    json.push(']');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_overhead_rows_shape() {
        let rows = obs_overhead_table(2, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].config, "telemetry_off");
        assert_eq!(rows[1].config, "telemetry_on");
        for r in &rows {
            assert_eq!(r.requests, (2 * COMMANDS_PER_CLIENT) as u64);
            // 8 of every 10 requests are commands, 2 are queries
            assert_eq!(r.commands, (2 * COMMANDS_PER_CLIENT * 8 / 10) as u64);
            assert_eq!(r.queries, (2 * COMMANDS_PER_CLIENT * 2 / 10) as u64);
            assert!(r.total > Duration::ZERO);
        }
        let json = obs_json(&rows);
        assert!(
            json.starts_with("[{\"config\":\"telemetry_off\","),
            "{json}"
        );
        assert!(json.contains("\"cps\":"), "{json}");
    }

    #[test]
    fn serve_row_shape() {
        let r = serve_row(2);
        assert_eq!(r.clients, 2);
        assert_eq!(r.requests, (2 * COMMANDS_PER_CLIENT) as u64);
        assert_eq!(r.cmd_errors, 0, "the mixed workload is all-valid");
        assert_eq!(r.protocol_errors, 0);
        assert!(r.p99 >= r.p50);
        assert!(r.p50 > Duration::ZERO);
        let json = serve_json(&[r]);
        assert!(json.starts_with("[{\"clients\":2,"), "{json}");
        assert!(json.contains("\"p99_us\":"), "{json}");
    }
}
