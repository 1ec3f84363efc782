//! The closed-loop load: two client threads, one request in flight each,
//! against an in-process TCP server. The timed run records nothing but
//! client-observed latencies.

use crate::gen::{Expected, Generator, Request};
use crate::spec::Workload;
use crate::stats::Sample;
use crate::workload::{build, verify, Built, Res, CLIENTS};
use ariel::Ariel;
use ariel_server::{
    Client, ClientError, ResultBody, Server, ServerHandle, ServerOptions, ServerStats,
};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Share of the measured time run first and not measured, so that caches,
/// the allocator and the server's threads are warm.
pub const WARM_UP_SHARE: f64 = 0.05;

/// A served workload: engine behind a bound server, clients connected.
pub struct Served {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
    pub gens: Vec<Box<dyn Generator>>,
    pub shared: Expected,
    /// Whether the server's threads could be confined to [`SERVER_CPU`].
    pub pinned: bool,
}

/// Everything `setup_s` covers: [`build`], bind, spawn, connect.
pub fn serve(w: &Workload, seed: u64, wal_dir: Option<&Path>) -> Res<Served> {
    // before anything else: set-up runs where the server will, the server
    // sizes its worker pool for the one CPU it gets, and its threads
    // inherit this thread's mask
    let pinned = pin_current_thread(SERVER_CPU);
    let Built {
        db, gens, shared, ..
    } = build(w, seed, wal_dir)?;
    let server = Server::bind("127.0.0.1:0", db, ServerOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Res<Vec<_>>>()?;
    Ok(Served {
        handle,
        clients,
        gens,
        shared,
        pinned,
    })
}

/// The clients run on [`CLIENT_CPU`] and every thread of the server on
/// [`SERVER_CPU`], as if on two machines. Left to float, load generator and
/// server chase each other across the two cores and throughput switches
/// between regimes that last seconds (15 000 to 33 000 requests/s on
/// `serve.point_mix`), which no run of this length averages out; held
/// apart, the same run repeats within a few percent, and the generator
/// never takes cycles from the program under test.
pub const CLIENT_CPU: usize = 0;
pub const SERVER_CPU: usize = 1;

/// Confine the calling thread, and the threads it spawns from now on, to
/// `cpu`. Returns whether the kernel accepted the mask (it does not on a
/// one-CPU machine, where there is nothing to hold apart).
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its
    // size; pid 0 names the calling thread, so no other thread is touched.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// What one client thread brings back beside its generator, and what a
/// run adds up over its clients.
#[derive(Default)]
pub struct Load {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures of each client, and every mismatch between
    /// the final state and the model.
    pub errors: Vec<String>,
    /// Bytes of command text sent.
    pub text_bytes: u64,
    /// Whether clients and server could be held on their own CPUs.
    pub pinned: bool,
}

/// A reply that is an error, or that reports the wrong change count or the
/// wrong retrieved value, is a failed operation.
pub fn check_reply(req: &Request, reply: &ResultBody) -> Result<(), String> {
    if reply.changes != req.changes {
        return Err(format!(
            "`{}`: {} changes, expected {}",
            req.text, reply.changes, req.changes
        ));
    }
    if let Some(v) = req.cell {
        if reply.table.rows != [[v.to_string()]] {
            return Err(format!(
                "`{}`: rows {:?}, expected [[{v}]]",
                req.text, reply.table.rows
            ));
        }
    }
    Ok(())
}

fn client_loop(
    mut client: Client,
    mut gen: Box<dyn Generator>,
    start: &Barrier,
    epoch: Instant,
    run_for: Duration,
) -> (Load, Box<dyn Generator>) {
    let mut run = Load {
        samples: Vec::with_capacity(1 << 16),
        ..Default::default()
    };
    let mut cycle = Vec::new();
    run.pinned = pin_current_thread(CLIENT_CPU);
    start.wait();
    'run: while epoch.elapsed() < run_for {
        cycle.clear();
        gen.next_cycle(&mut cycle);
        for req in &cycle {
            let sent = Instant::now();
            let reply = if req.is_query() {
                client.query(&req.text)
            } else {
                client.command(&req.text)
            };
            let done = Instant::now();
            run.samples.push(Sample {
                end_ns: (done - epoch).as_nanos() as u64,
                latency_ns: (done - sent).as_nanos() as u64,
            });
            run.attempted += 1;
            run.text_bytes += req.text.len() as u64;
            let outcome = match &reply {
                Ok(body) => check_reply(req, body),
                Err(e) => Err(format!("`{}`: {e}", req.text)),
            };
            if let Err(why) = outcome {
                run.failed += 1;
                if run.errors.len() < 3 {
                    run.errors.push(why);
                }
            }
            // an engine error leaves the session usable; anything else
            // means the connection is gone and every later request would
            // fail the same way
            if matches!(&reply, Err(e) if !matches!(e, ClientError::Server { .. })) {
                break 'run;
            }
        }
    }
    (run, gen)
}

/// A finished socket run.
pub struct TcpRun {
    /// Both clients together.
    pub load: Load,
    /// Measured interval, ns since the epoch the samples count from.
    pub from_ns: u64,
    pub to_ns: u64,
    pub stats: ServerStats,
    /// The engine the server hands back at shutdown.
    pub engine: Ariel,
}

/// Drive `served` for a warm-up plus `seconds`, shut the server down, and
/// check what it left against the model. Each client finishes the cycle it
/// is in when time runs out, so the run ends with every client's live row
/// count where it began.
pub fn run(served: Served, seconds: f64) -> Res<TcpRun> {
    let Served {
        handle,
        clients,
        gens,
        shared,
        pinned,
    } = served;
    let warm_up = Duration::from_secs_f64(seconds * WARM_UP_SHARE);
    let run_for = warm_up + Duration::from_secs_f64(seconds);
    let start = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let runs: Vec<(Load, Box<dyn Generator>)> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .zip(gens)
            .map(|(client, gen)| {
                let start = &start;
                s.spawn(move || client_loop(client, gen, start, epoch, run_for))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Res<Vec<_>>>()
    })?;
    let (stats, mut engine) = handle.shutdown();

    let mut all = Load {
        pinned,
        ..Default::default()
    };
    let mut gens = Vec::with_capacity(CLIENTS);
    for (r, gen) in runs {
        all.samples.extend(r.samples);
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.errors.extend(r.errors);
        all.text_bytes += r.text_bytes;
        all.pinned &= r.pinned;
        gens.push(gen);
    }
    // a wrong final state fails the run as a whole: count it once
    let mismatches = verify(&mut engine, &gens, &shared)?;
    if !mismatches.is_empty() {
        all.failed += 1;
        all.errors.extend(mismatches);
    }
    if stats.engine_errors + stats.protocol_errors > 0 {
        all.errors.push(format!(
            "server counted {} engine and {} protocol errors",
            stats.engine_errors, stats.protocol_errors
        ));
    }
    Ok(TcpRun {
        load: all,
        from_ns: warm_up.as_nanos() as u64,
        to_ns: run_for.as_nanos() as u64,
        stats,
        engine,
    })
}

/// Set up `repeats` times, timing each, and keep the last one serving.
/// The earlier servers are shut down before the next set-up starts.
pub fn serve_timed(
    w: &Workload,
    seed: u64,
    wal_dir: Option<&Path>,
    repeats: usize,
) -> Res<(Served, Vec<f64>)> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        if let Some(Served {
            handle, clients, ..
        }) = last.take()
        {
            drop(clients);
            let _ = ServerHandle::shutdown(handle);
        }
        let t0 = Instant::now();
        last = Some(serve(w, seed, wal_dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("repeats >= 1"), times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use crate::stats::windows;

    /// Every workload through real sockets for a fraction of a second:
    /// no failed operation, and the model agrees with the engine.
    #[test]
    fn short_socket_run_is_clean_on_every_workload() {
        let out = crate::out_dir().join(format!("test-wal-{}", std::process::id()));
        for w in &WORKLOADS {
            let dir = w.durable.then_some(out.as_path());
            let (served, times) = serve_timed(w, 3, dir, 2).unwrap();
            assert_eq!(times.len(), 2);
            let r = run(served, 0.2).unwrap();
            assert_eq!(
                (r.load.failed, &r.load.errors),
                (0, &Vec::new()),
                "{}",
                w.name
            );
            assert!(r.load.attempted >= 10, "{}", w.name);
            assert_eq!(r.stats.commands + r.stats.queries, r.load.attempted);
            assert!(!windows(&r.load.samples, r.from_ns, r.to_ns).is_empty());
            assert_eq!(r.engine.wal_metrics().attached, w.durable);
        }
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn wrong_replies_are_failed_operations() {
        let req = Request {
            text: "retrieve (kv.v) where kv.k = 1".into(),
            changes: 0,
            cell: Some(7),
            probes: vec![],
        };
        let mut ok = ResultBody::default();
        ok.table.columns = vec!["v".into()];
        ok.table.rows = vec![vec!["7".into()]];
        assert!(check_reply(&req, &ok).is_ok());
        let mut wrong_value = ok.clone();
        wrong_value.table.rows[0][0] = "8".into();
        assert!(check_reply(&req, &wrong_value).is_err());
        let mut wrong_count = ok.clone();
        wrong_count.changes = 1;
        assert!(check_reply(&req, &wrong_count).is_err());
        let mut no_row = ok;
        no_row.table.rows.clear();
        assert!(check_reply(&req, &no_row).is_err());
    }
}
