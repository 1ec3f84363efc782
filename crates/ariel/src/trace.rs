//! Rendering the flight recorder: the `\why` causal-chain view, the
//! `\trace show` listing, and the Chrome `trace_event` export.
//!
//! All renderings map raw rule ids back to names. The `\why` view never
//! prints raw sequence numbers: stored and virtual α-memories record
//! different probe events (so sequence numbers diverge across virtual
//! policies), but transitions, cascade depths, TIDs, token descriptions,
//! and command text are policy-invariant — which makes the rendered causal
//! chain byte-identical under every policy, a property the equivalence
//! oracle in `tests/observability.rs` pins.

use ariel_islist::json_escape;
use ariel_network::{TraceEventKind, TraceRecord, TraceSource};
use std::collections::HashMap;
use std::fmt::Write as _;

fn rule_name(names: &HashMap<u64, String>, id: u64) -> String {
    names
        .get(&id)
        .cloned()
        .unwrap_or_else(|| format!("rule#{id}"))
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

// ----- \why ------------------------------------------------------------------

/// Render the causal chain of every recorded firing of `rule`:
/// originating command → tokens → matched TIDs → firing → cascaded
/// updates, with cascade depths.
pub(crate) fn render_why(
    records: &[TraceRecord],
    rule: u64,
    name: &str,
    names: &HashMap<u64, String>,
) -> String {
    let by_seq: HashMap<u64, &TraceRecord> = records.iter().map(|r| (r.seq, r)).collect();
    let firings: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(&r.kind, TraceEventKind::Firing { rule: rid, .. } if *rid == rule))
        .collect();
    if firings.is_empty() {
        return format!("why {name}: no firing of {name} in the trace ring\n");
    }
    let mut out = format!(
        "why {name}: {} firing{} in the trace ring\n",
        firings.len(),
        plural(firings.len() as u64)
    );
    for (i, f) in firings.iter().enumerate() {
        let TraceEventKind::Firing { instantiations, .. } = &f.kind else {
            unreachable!("filtered to firings");
        };
        let _ = write!(
            out,
            "\nfiring #{} of {name} — transition {}, depth {}, {} instantiation{}\n",
            i + 1,
            f.transition,
            f.depth,
            instantiations,
            plural(*instantiations)
        );
        out.push_str("  chain: ");
        out.push_str(&render_chain(f, records, &by_seq, names));
        out.push('\n');
        // The firing consumed the rule's `instantiations` most recent
        // P-node rows: the matching instantiation events closest before
        // it. Rendered sorted so join order (which differs between
        // backends) cannot leak into the output.
        let mut lines: Vec<String> = records
            .iter()
            .filter(|r| r.seq < f.seq)
            .filter_map(|r| match &r.kind {
                TraceEventKind::Instantiation {
                    rule: rid,
                    tids,
                    token,
                } if *rid == rule => Some((tids, token)),
                _ => None,
            })
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .take(*instantiations as usize)
            .map(|(tids, token)| {
                let tids = tids
                    .iter()
                    .map(|t| t.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string()))
                    .collect::<Vec<_>>()
                    .join(", ");
                let from = match token {
                    None => "(primed at activation)".to_string(),
                    Some(seq) => match by_seq.get(seq).map(|rec| &rec.kind) {
                        Some(TraceEventKind::TokenEmitted { desc, .. }) => {
                            format!("token {desc}")
                        }
                        _ => "(token evicted from ring)".to_string(),
                    },
                };
                format!("  instantiation tids [{tids}] ← {from}\n")
            })
            .collect();
        lines.sort();
        for line in lines {
            out.push_str(&line);
        }
        // The cascade this firing's action started.
        for r in records {
            let TraceEventKind::TransitionBegin {
                source: TraceSource::RuleAction { firing, .. },
            } = &r.kind
            else {
                continue;
            };
            if *firing != f.seq {
                continue;
            }
            let tokens = records.iter().find_map(|c| match &c.kind {
                TraceEventKind::CascadeDelta { firing: cf, tokens } if *cf == f.seq => {
                    Some(*tokens)
                }
                _ => None,
            });
            let _ = write!(
                out,
                "  cascade → transition {} (depth {})",
                r.transition, r.depth
            );
            match tokens {
                Some(t) => {
                    let _ = writeln!(out, ": {t} token{}", plural(t));
                }
                None => out.push('\n'),
            }
        }
    }
    out
}

/// Walk the firing's cause links up to the originating command and render
/// the chain top-down: `command `…` → r1 fired (depth 0) → r2 fired
/// (depth 1)`.
fn render_chain(
    f: &TraceRecord,
    records: &[TraceRecord],
    by_seq: &HashMap<u64, &TraceRecord>,
    names: &HashMap<u64, String>,
) -> String {
    let mut stack = Vec::new();
    let mut cur = Some(f);
    let mut root = None;
    while let Some(rec) = cur {
        let TraceEventKind::Firing { rule, cause, .. } = &rec.kind else {
            break;
        };
        stack.push(format!(
            "{} fired (depth {})",
            rule_name(names, *rule),
            rec.depth
        ));
        cur = match cause {
            Some(seq) => match by_seq.get(seq) {
                Some(r) => Some(*r),
                None => {
                    stack.push("(cause evicted from ring)".to_string());
                    None
                }
            },
            None => {
                root = Some(rec);
                None
            }
        };
    }
    if let Some(root) = root {
        // The root firing's instantiations arrived in its transition,
        // whose begin event carries the originating command text.
        let origin = records.iter().find_map(|r| match &r.kind {
            TraceEventKind::TransitionBegin {
                source: TraceSource::Command(text),
            } if r.transition == root.transition => Some(format!("command `{text}`")),
            _ => None,
        });
        stack.push(origin.unwrap_or_else(|| "(origin evicted from ring)".to_string()));
    }
    stack.reverse();
    stack.join(" → ")
}

// ----- \trace show -----------------------------------------------------------

/// Render the newest `limit` events (all when `None`) as one line each.
pub(crate) fn render_show(
    records: &[TraceRecord],
    names: &HashMap<u64, String>,
    limit: Option<usize>,
    dropped: u64,
) -> String {
    let shown = limit.unwrap_or(records.len()).min(records.len());
    let mut out = format!(
        "trace: {} event{} recorded, {} evicted\n",
        records.len(),
        plural(records.len() as u64),
        dropped
    );
    if shown < records.len() {
        let _ = writeln!(out, "(showing newest {shown})");
    }
    for r in &records[records.len() - shown..] {
        let detail = match &r.kind {
            TraceEventKind::TransitionBegin { source } => match source {
                TraceSource::Command(text) => format!("command `{text}`"),
                TraceSource::RuleAction { rule, firing } => {
                    format!("action of {} (firing #{firing})", rule_name(names, *rule))
                }
            },
            TraceEventKind::TransitionEnd { tokens } => format!("tokens={tokens}"),
            TraceEventKind::TokenEmitted { desc, .. } => desc.clone(),
            TraceEventKind::SelnetProbe { rel, candidates } => {
                format!("rel={rel} candidates={candidates}")
            }
            TraceEventKind::AlphaPass { rule, var } => {
                format!("rule={} var={var}", rule_name(names, *rule))
            }
            TraceEventKind::VirtualScan {
                rule,
                var,
                scanned,
                served,
            } => format!(
                "rule={} var={var} scanned={scanned} served={served}",
                rule_name(names, *rule)
            ),
            TraceEventKind::BetaProbe {
                rule,
                var,
                candidates,
                indexed,
            } => format!(
                "rule={} var={var} candidates={candidates}{}",
                rule_name(names, *rule),
                if *indexed { " indexed" } else { "" }
            ),
            TraceEventKind::Instantiation { rule, tids, token } => {
                let tids = tids
                    .iter()
                    .map(|t| t.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string()))
                    .collect::<Vec<_>>()
                    .join(", ");
                let token = token.map(|t| format!(" token=#{t}")).unwrap_or_default();
                format!("rule={} tids=[{tids}]{token}", rule_name(names, *rule))
            }
            TraceEventKind::AgendaSchedule { rule, eligible } => {
                format!("rule={} eligible={eligible}", rule_name(names, *rule))
            }
            TraceEventKind::Firing {
                rule,
                instantiations,
                cause,
            } => format!(
                "rule={} instantiations={instantiations}{}",
                rule_name(names, *rule),
                cause.map(|c| format!(" cause=#{c}")).unwrap_or_default()
            ),
            TraceEventKind::CascadeDelta { firing, tokens } => {
                format!("firing=#{firing} tokens={tokens}")
            }
        };
        let dur = r
            .dur_ns
            .map(|d| format!(" dur={}ns", d))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "#{:<6} t{:<4} d{} {:<16} {}{}",
            r.seq,
            r.transition,
            r.depth,
            r.kind.kind_name(),
            detail,
            dur
        );
    }
    out
}

// ----- Chrome trace_event export ---------------------------------------------

/// Convert the recorder into a Chrome `trace_event` JSON document
/// (Perfetto / `chrome://tracing`). One track (`tid`) per cascade depth;
/// transition begin/end pairs and timed firings become complete
/// (`ph:"X"`) spans, everything else thread-scoped instants (`ph:"i"`).
/// Spans are emitted at their begin position, so `ts` stays monotone
/// within every track.
pub(crate) fn chrome_trace_json(records: &[TraceRecord], names: &HashMap<u64, String>) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len());
    for (idx, r) in records.iter().enumerate() {
        match &r.kind {
            TraceEventKind::TransitionBegin { source } => {
                // Transitions are sequential (never nested): the matching
                // end is the next end event with the same transition id.
                let end = records[idx + 1..].iter().find(|e| {
                    e.transition == r.transition
                        && matches!(e.kind, TraceEventKind::TransitionEnd { .. })
                });
                let (src, extra) = match source {
                    TraceSource::Command(text) => (format!("command: {text}"), String::new()),
                    TraceSource::RuleAction { rule, firing } => (
                        format!("action of {}", rule_name(names, *rule)),
                        format!(",\"firing\":{firing}"),
                    ),
                };
                let args = format!(
                    "{{\"seq\":{},\"transition\":{},\"source\":\"{}\"{}}}",
                    r.seq,
                    r.transition,
                    json_escape(&src),
                    extra
                );
                match end {
                    Some(e) => events.push(span(
                        &format!("transition {}", r.transition),
                        "transition",
                        r,
                        e.ts_ns - r.ts_ns,
                        &args,
                    )),
                    None => events.push(instant("transition-begin", "transition", r, &args)),
                }
            }
            // folded into the transition span above
            TraceEventKind::TransitionEnd { .. } => {}
            TraceEventKind::Firing {
                rule,
                instantiations,
                cause,
            } => {
                let name = format!("fire {}", rule_name(names, *rule));
                let args = format!(
                    "{{\"seq\":{},\"rule\":\"{}\",\"instantiations\":{},\"cause\":{}}}",
                    r.seq,
                    json_escape(&rule_name(names, *rule)),
                    instantiations,
                    cause
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "null".into())
                );
                match r.dur_ns {
                    Some(d) => events.push(span(&name, "firing", r, d, &args)),
                    None => events.push(instant(&name, "firing", r, &args)),
                }
            }
            other => {
                let args = instant_args(r, other, names);
                events.push(instant(other.kind_name(), "match", r, &args));
            }
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// `ts`/`dur` are microseconds; keep nanosecond precision as fractions.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn span(name: &str, cat: &str, r: &TraceRecord, dur_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{args}}}",
        json_escape(name),
        micros(r.ts_ns),
        micros(dur_ns),
        r.depth
    )
}

fn instant(name: &str, cat: &str, r: &TraceRecord, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{args}}}",
        json_escape(name),
        micros(r.ts_ns),
        r.depth
    )
}

fn instant_args(r: &TraceRecord, kind: &TraceEventKind, names: &HashMap<u64, String>) -> String {
    let body = match kind {
        TraceEventKind::TokenEmitted {
            kind,
            rel,
            tid,
            desc,
        } => format!(
            "\"kind\":\"{}\",\"rel\":\"{}\",\"tid\":{tid},\"desc\":\"{}\"",
            json_escape(kind),
            json_escape(rel),
            json_escape(desc)
        ),
        TraceEventKind::SelnetProbe { rel, candidates } => {
            format!(
                "\"rel\":\"{}\",\"candidates\":{candidates}",
                json_escape(rel)
            )
        }
        TraceEventKind::AlphaPass { rule, var } => format!(
            "\"rule\":\"{}\",\"var\":{var}",
            json_escape(&rule_name(names, *rule))
        ),
        TraceEventKind::VirtualScan {
            rule,
            var,
            scanned,
            served,
        } => format!(
            "\"rule\":\"{}\",\"var\":{var},\"scanned\":{scanned},\"served\":{served}",
            json_escape(&rule_name(names, *rule))
        ),
        TraceEventKind::BetaProbe {
            rule,
            var,
            candidates,
            indexed,
        } => format!(
            "\"rule\":\"{}\",\"var\":{var},\"candidates\":{candidates},\"indexed\":{indexed}",
            json_escape(&rule_name(names, *rule))
        ),
        TraceEventKind::Instantiation { rule, tids, token } => {
            let tids = tids
                .iter()
                .map(|t| {
                    t.map(|v| v.to_string())
                        .unwrap_or_else(|| "null".to_string())
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "\"rule\":\"{}\",\"tids\":[{tids}],\"token\":{}",
                json_escape(&rule_name(names, *rule)),
                token
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "null".into())
            )
        }
        TraceEventKind::AgendaSchedule { rule, eligible } => format!(
            "\"rule\":\"{}\",\"eligible\":{eligible}",
            json_escape(&rule_name(names, *rule))
        ),
        TraceEventKind::CascadeDelta { firing, tokens } => {
            format!("\"firing\":{firing},\"tokens\":{tokens}")
        }
        // handled by the caller before reaching here
        TraceEventKind::TransitionBegin { .. }
        | TraceEventKind::TransitionEnd { .. }
        | TraceEventKind::Firing { .. } => String::new(),
    };
    if body.is_empty() {
        format!("{{\"seq\":{}}}", r.seq)
    } else {
        format!("{{\"seq\":{},{body}}}", r.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn micros_keeps_nanosecond_precision() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(0), "0.000");
    }
}
