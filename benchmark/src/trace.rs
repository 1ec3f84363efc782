//! The traced walk: one request at a time, single thread, no sockets,
//! through the public functions the server and the engine themselves call,
//! with a span around every call. Spans are recorded here, from outside the
//! program; splitting `network.match` or `ariel.act` further needs spans
//! inside it and is a later change.

use crate::drive::check_reply;
use crate::gen::Request;
use crate::stats::percentile;
use crate::workload::Res;
use ariel::query::{
    execute_with_plan, parse_command, parse_script, plan_command, CmdOutput, Command, Resolver,
};
use ariel::storage::wal::WalWriter;
use ariel::{Ariel, DeltaTracker};
use ariel_server::protocol::{encode_result_frame, read_frame, write_frame};
use ariel_server::{Opcode, ResultBody, Table};
use std::io::Write;
use std::time::Instant;

/// Marks a span with no parent.
const ROOT: u32 = u32::MAX;

/// Layers, by crate: the prefix of a span name up to the dot.
pub const LAYERS: [&str; 5] = ["server", "query", "ariel", "network", "storage"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub request: u32,
    /// Index of the span that caused this one, [`ROOT`] for a request span.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in memory, written out when the benchmark ends.
///
/// The clock is read once per span boundary: a span starts where the one
/// before it ended. A clock read costs about as much as the cheapest calls
/// timed here, so two reads per span would leave a sixth of a point request
/// between spans, attributed to no layer. The few instructions the walk
/// itself runs between two calls fall to the later span.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// The open request span new spans hang under.
    current: u32,
    /// Where the last span ended, or the request began.
    mark_ns: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current: ROOT,
            mark_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_request(&mut self) {
        self.current = self.spans.len() as u32;
        self.mark_ns = self.now();
        self.spans.push(Span {
            name: "request",
            request: self.current,
            parent: ROOT,
            start_ns: self.mark_ns,
            end_ns: self.mark_ns,
        });
    }

    fn close_request(&mut self) {
        self.spans[self.current as usize].end_ns = self.now();
        self.current = ROOT;
    }

    /// Run `f` as a child span of the open request.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            request: self.current,
            parent: self.current,
            start_ns: self.mark_ns,
            end_ns,
        });
        self.mark_ns = end_ns;
        out
    }

    /// One JSON object per span: `id` is the index `parent` refers to.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children may overlap one another and may stick out of the
/// parent; the union of their intervals, clipped to the parent, counts once.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    parent.duration() - covered
}

/// Reply body for a request's outputs, built the way the server's executor
/// builds it: changes summed, the last result table rendered to text.
fn result_body(outputs: &[CmdOutput]) -> ResultBody {
    let mut body = ResultBody::default();
    for out in outputs {
        body.changes += out.changes.len() as u32;
        if !out.columns.is_empty() {
            body.table = Table {
                columns: out.columns.clone(),
                rows: out
                    .rows
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_string()).collect())
                    .collect(),
            };
        }
    }
    body
}

/// Walk `requests` through `db`, one span per call into a layer, checking
/// every reply. `wal` (the durable workload) appends and fsyncs each
/// request's text the way a commit-mode log does.
pub fn walk(
    db: &mut Ariel,
    requests: &[Request],
    mut wal: Option<&mut WalWriter>,
    tracer: &mut Tracer,
) -> Res<()> {
    let err = |layer: &str, req: &Request, e: &dyn std::fmt::Display| {
        format!("walk {layer} `{}`: {e}", req.text)
    };
    for req in requests {
        tracer.open_request();
        // server: the request frame, client side out and server side in
        let opcode = if req.is_query() {
            Opcode::Query
        } else {
            Opcode::Command
        };
        let src = tracer
            .span("server.wire_in", || -> Result<String, String> {
                let mut wire = Vec::new();
                write_frame(&mut wire, opcode, req.text.as_bytes()).map_err(|e| e.to_string())?;
                let frame = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
                String::from_utf8(frame.payload).map_err(|e| e.to_string())
            })
            .map_err(|e| err("wire_in", req, &e))?;
        let script = tracer
            .span("query.parse", || {
                if req.is_query() {
                    parse_command(&src).map(|c| vec![c])
                } else {
                    parse_script(&src)
                }
            })
            .map_err(|e| err("parse", req, &e))?;
        let mut outputs = Vec::new();
        for top in &script {
            // a `do … end` block is one transition over its commands, a
            // plain command a transition of one
            let cmds = match top {
                Command::Block(cmds) => cmds.as_slice(),
                single => std::slice::from_ref(single),
            };
            let mut delta = DeltaTracker::new();
            for cmd in cmds {
                let rcmd = tracer
                    .span("query.resolve", || {
                        Resolver::new(db.catalog()).resolve_command(cmd)
                    })
                    .map_err(|e| err("resolve", req, &e))?;
                let plan = tracer
                    .span("query.plan", || plan_command(&rcmd, db.catalog(), None))
                    .map_err(|e| err("plan", req, &e))?;
                let out = tracer
                    .span("query.exec", || {
                        execute_with_plan(&rcmd, plan.as_ref(), db.catalog_mut(), None)
                    })
                    .map_err(|e| err("exec", req, &e))?;
                let tokens = tracer.span("ariel.delta", || delta.tokens_for_all(&out.changes));
                tracer
                    .span("network.match", || db.match_tokens(&tokens))
                    .map_err(|e| err("match", req, &e))?;
                outputs.push(out);
            }
            tracer
                .span("ariel.act", || db.run_rules())
                .map_err(|e| err("act", req, &e))?;
        }
        if let Some(w) = wal.as_deref_mut() {
            tracer
                .span("storage.wal_append", || w.append(req.text.as_bytes()))
                .and_then(|()| tracer.span("storage.wal_fsync", || w.sync()))
                .map_err(|e| err("wal", req, &e))?;
        }
        // server: the result frame, server side out and client side in
        let reply = tracer
            .span("server.wire_out", || -> Result<ResultBody, String> {
                let (op, payload) = encode_result_frame(&result_body(&outputs));
                let mut wire = Vec::new();
                write_frame(&mut wire, op, &payload).map_err(|e| e.to_string())?;
                let frame = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
                ResultBody::decode(&frame.payload).map_err(|e| e.to_string())
            })
            .map_err(|e| err("wire_out", req, &e))?;
        tracer.close_request();
        check_reply(req, &reply)?;
    }
    Ok(())
}

/// Where the time of the walked requests went.
pub struct Breakdown {
    pub requests: usize,
    /// p50 of the request spans.
    pub request_p50_ns: u64,
    /// Share of all request time covered by child spans.
    pub coverage: f64,
    /// Per [`LAYERS`] entry.
    pub layers: Vec<LayerTime>,
}

pub struct LayerTime {
    pub layer: &'static str,
    /// Share of all request time spent in the layer's spans.
    pub share: f64,
    /// Per request: the layer's time in that request.
    pub p50_ns: u64,
    pub p99_ns: u64,
}

fn layer_of(span_name: &str) -> Option<usize> {
    let prefix = span_name.split('.').next()?;
    LAYERS.iter().position(|l| *l == prefix)
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut request_ns = Vec::new();
    let mut per_layer: Vec<Vec<u64>> = vec![Vec::new(); LAYERS.len()];
    let (mut total, mut uncovered) = (0u64, 0u64);
    let mut i = 0;
    while i < spans.len() {
        // a request span is followed by its children
        let root = &spans[i];
        let end = spans[i + 1..]
            .iter()
            .position(|s| s.parent == ROOT)
            .map_or(spans.len(), |n| i + 1 + n);
        let children = &spans[i + 1..end];
        let mut in_layer = [0u64; LAYERS.len()];
        for c in children {
            if let Some(l) = layer_of(c.name) {
                in_layer[l] += c.duration();
            }
        }
        for (l, ns) in in_layer.into_iter().enumerate() {
            per_layer[l].push(ns);
        }
        request_ns.push(root.duration());
        total += root.duration();
        uncovered += self_time(root, children);
        i = end;
    }
    request_ns.sort_unstable();
    let layers = LAYERS
        .iter()
        .zip(per_layer)
        .map(|(layer, mut ns)| {
            ns.sort_unstable();
            LayerTime {
                layer,
                share: ns.iter().sum::<u64>() as f64 / total.max(1) as f64,
                p50_ns: percentile(&ns, 0.50),
                p99_ns: percentile(&ns, 0.99),
            }
        })
        .collect();
    Breakdown {
        requests: request_ns.len(),
        request_p50_ns: percentile(&request_ns, 0.50),
        coverage: 1.0 - uncovered as f64 / total.max(1) as f64,
        layers,
    }
}

/// p50 duration of the spans called `name`, 0 when there are none.
pub fn span_p50(spans: &[Span], name: &str) -> u64 {
    let mut ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect();
    ns.sort_unstable();
    if ns.is_empty() {
        0
    } else {
        percentile(&ns, 0.50)
    }
}

/// p50 over requests of the summed duration of the spans whose name
/// starts with `prefix`.
pub fn request_sum_p50(spans: &[Span], prefix: &str) -> u64 {
    let mut sums: Vec<u64> = Vec::new();
    for s in spans {
        if s.parent == ROOT {
            sums.push(0);
        } else if s.name.starts_with(prefix) {
            *sums.last_mut().expect("children follow a request span") += s.duration();
        }
    }
    sums.sort_unstable();
    if sums.is_empty() {
        0
    } else {
        percentile(&sums, 0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use crate::workload::{build, fingerprint, verify};

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let parent = span("request", ROOT, 100, 200);
        assert_eq!(self_time(&parent, &[]), 100);
        // disjoint children
        let kids = [span("a.x", 0, 110, 130), span("b.y", 0, 150, 160)];
        assert_eq!(self_time(&parent, &kids), 70);
        // overlapping children count their union once
        let kids = [span("a.x", 0, 110, 150), span("b.y", 0, 140, 160)];
        assert_eq!(self_time(&parent, &kids), 50);
        // nested, sticking out at both ends, and entirely outside
        let kids = [
            span("a.x", 0, 90, 120),
            span("a.z", 0, 100, 110),
            span("b.y", 0, 190, 250),
            span("c.w", 0, 300, 400),
        ];
        assert_eq!(self_time(&parent, &kids), 70);
        // fully covered
        assert_eq!(self_time(&parent, &[span("a.x", 0, 0, 1000)]), 0);
    }

    #[test]
    fn breakdown_attributes_time_to_layers() {
        let spans = [
            span("request", ROOT, 0, 100),
            span("server.wire_in", 0, 0, 10),
            span("query.parse", 0, 10, 40),
            span("network.match", 0, 40, 90),
            span("request", ROOT, 100, 300),
            span("network.match", 4, 100, 150),
            span("network.match", 4, 150, 200),
            span("ariel.act", 4, 200, 280),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.requests, 2);
        assert_eq!(b.request_p50_ns, 100);
        assert!((b.coverage - 270.0 / 300.0).abs() < 1e-12);
        let network = &b.layers[3];
        assert_eq!(network.layer, "network");
        assert!((network.share - 0.5).abs() < 1e-12);
        assert_eq!((network.p50_ns, network.p99_ns), (50, 100));
        assert_eq!(b.layers[4].share, 0.0, "no storage spans");
        assert_eq!(span_p50(&spans, "network.match"), 50);
        assert_eq!(request_sum_p50(&spans, "network.match"), 50);
        assert_eq!(request_sum_p50(&spans, "server."), 0);
    }

    /// The walk drives the engine exactly as `Ariel::execute` does: same
    /// final state, on every workload at 1/100 size.
    #[test]
    fn walk_leaves_the_state_execute_leaves() {
        for w in WORKLOADS.iter().filter(|w| !w.durable) {
            let mut walked = build(w, 5, None).unwrap();
            let mut requests = Vec::new();
            for _ in 0..w.trace_requests / 100 / 4 {
                for g in &mut walked.gens {
                    g.next_cycle(&mut requests);
                }
            }
            let mut tracer = Tracer::new(1 << 12);
            walk(&mut walked.db, &requests, None, &mut tracer).unwrap();
            assert_eq!(
                verify(&mut walked.db, &walked.gens, &walked.shared).unwrap(),
                Vec::<String>::new()
            );
            let mut plain = build(w, 5, None).unwrap();
            for r in &requests {
                plain.db.execute(&r.text).unwrap();
            }
            assert_eq!(
                fingerprint(&mut walked.db).unwrap(),
                fingerprint(&mut plain.db).unwrap(),
                "{}",
                w.name
            );
            let b = breakdown(&tracer.spans);
            assert_eq!(b.requests, requests.len());
            assert!(b.coverage > 0.5 && b.coverage <= 1.0, "{}", b.coverage);
        }
    }
}
