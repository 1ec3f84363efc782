//! Load generator for the TCP server: N client threads hammering an
//! in-process [`ariel_server::Server`] over loopback with a mixed
//! append/replace/retrieve workload against an active rule, measuring
//! per-request latency (p50/p99), commands per second, and how much
//! cross-session write batching the server's drains achieved.
//!
//! `paper_tables -- serve` and `paper_tables -- obs` render these rows and
//! write `BENCH_serve.json` / `BENCH_obs.json`, which `bench_gate` checks.

use crate::table::Row;
use ariel::{Ariel, EngineOptions};
use ariel_server::{Client, Server, ServerOptions, ServerStats};
use std::time::{Duration, Instant};

/// Requests each client issues per run.
pub const COMMANDS_PER_CLIENT: usize = 200;

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

/// One run of the workload against a fresh in-process server.
struct Run {
    /// Connect → last reply.
    total: Duration,
    /// Every request's latency, sorted.
    latencies: Vec<Duration>,
    stats: ServerStats,
}

impl Run {
    fn new(options: ServerOptions, clients: usize) -> Run {
        let server = Server::bind("127.0.0.1:0", serve_db(), options).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.spawn();
        let start = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(COMMANDS_PER_CLIENT);
                    let mut errors = 0u64;
                    for i in 0..COMMANDS_PER_CLIENT {
                        let t = Instant::now();
                        errors += request(&mut c, client, i).is_err() as u64;
                        lat.push(t.elapsed());
                    }
                    (lat, errors)
                })
            })
            .collect();
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
        Run {
            total,
            latencies,
            stats,
        }
    }

    fn percentile(&self, p: f64) -> Duration {
        let n = self.latencies.len();
        let idx = ((n as f64 * p).ceil() as usize).saturating_sub(1);
        self.latencies[idx.min(n - 1)]
    }

    /// Requests per second.
    fn cps(&self) -> f64 {
        self.latencies.len() as f64 / self.total.as_secs_f64().max(1e-12)
    }
}

/// One row of the serve table: a run at a fixed client count. The batching
/// figures depend on how requests happened to interleave, so they are
/// times, not counts.
pub fn serve_row(clients: usize) -> Row {
    let run = Run::new(ServerOptions::default(), clients);
    let s = &run.stats;
    Row::new()
        .count("clients", clients)
        .count("requests", run.latencies.len())
        .ms("total_ms", run.total)
        .time("cps", run.cps())
        .us("p50_us", run.percentile(0.50))
        .us("p99_us", run.percentile(0.99))
        .count("cmd_errors", s.engine_errors)
        .count("protocol_errors", s.protocol_errors)
        .time("batches", s.batches as f64)
        .time("batched_requests", s.batched_requests as f64)
        .time("max_batch", s.max_batch as f64)
}

/// The serve table: one row per client count.
pub fn serve_table(client_counts: &[usize]) -> Vec<Row> {
    client_counts.iter().map(|&c| serve_row(c)).collect()
}

/// One pair of the telemetry-overhead table (`paper_tables -- obs`): the
/// serve workload with the server's telemetry off and on, back to back
/// (`off_first` picks the order, so alternating it across pairs cancels
/// any bias of going second). `vs_off` is a row's wall clock over the
/// pair's telemetry-off wall clock; `bench_gate obs` holds its median on
/// the `telemetry_on` row.
pub fn obs_pair(clients: usize, off_first: bool) -> Vec<Row> {
    let run = |telemetry| {
        let options = ServerOptions {
            telemetry,
            ..Default::default()
        };
        Run::new(options, clients)
    };
    let (off, on) = if off_first {
        let off = run(false);
        (off, run(true))
    } else {
        let on = run(true);
        (run(false), on)
    };
    let off_ms = off.total.as_secs_f64();
    [("telemetry_off", off), ("telemetry_on", on)]
        .into_iter()
        .map(|(config, r)| {
            Row::new()
                .key("config", config)
                .count("clients", clients)
                .count("requests", r.stats.commands + r.stats.queries)
                .count("commands", r.stats.commands)
                .count("queries", r.stats.queries)
                .ms("total_ms", r.total)
                .time("cps", r.cps())
                .time("vs_off", r.total.as_secs_f64() / off_ms)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_overhead_rows_shape() {
        let rows = obs_pair(2, false);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label(&["config"]), "telemetry_off");
        assert_eq!(rows[1].label(&["config"]), "telemetry_on");
        for r in &rows {
            assert_eq!(r.num("requests"), Some((2 * COMMANDS_PER_CLIENT) as f64));
            // 8 of every 10 requests are commands, 2 are queries
            assert_eq!(
                r.num("commands"),
                Some((2 * COMMANDS_PER_CLIENT * 8 / 10) as f64)
            );
            assert_eq!(
                r.num("queries"),
                Some((2 * COMMANDS_PER_CLIENT * 2 / 10) as f64)
            );
            assert!(r.num("total_ms").unwrap() > 0.0);
        }
        assert_eq!(rows[0].num("vs_off"), Some(1.0));
        let json = crate::table::to_json(&rows);
        assert!(
            json.starts_with("[{\"config\":\"telemetry_off\","),
            "{json}"
        );
        assert!(json.contains("\"cps\":"), "{json}");
    }

    #[test]
    fn serve_row_shape() {
        let r = serve_row(2);
        assert_eq!(r.num("clients"), Some(2.0));
        assert_eq!(r.num("requests"), Some((2 * COMMANDS_PER_CLIENT) as f64));
        assert_eq!(
            r.num("cmd_errors"),
            Some(0.0),
            "the mixed workload is all-valid"
        );
        assert_eq!(r.num("protocol_errors"), Some(0.0));
        assert!(r.num("p99_us") >= r.num("p50_us"));
        assert!(r.num("p50_us").unwrap() > 0.0);
        let json = crate::table::to_json(&[r]);
        assert!(json.starts_with("[{\"clients\":2,"), "{json}");
        assert!(json.contains("\"p99_us\":"), "{json}");
    }
}
