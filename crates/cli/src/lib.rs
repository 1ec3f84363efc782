//! Library half of the Ariel shell: command dispatch and output
//! formatting, separated from terminal I/O so it is unit-testable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ariel::query::CmdOutput;
use ariel::storage::Value;
use ariel::Ariel;
use ariel_server::{Server, ServerOptions, SlowLog};

pub use ariel::ArielResult;
pub use ariel_server::LogLevel;

/// Re-exported engine output type.
pub type Output = CmdOutput;

/// Slow-log slots the shell keeps (`\slowlog`).
const SHELL_SLOW_CAPACITY: usize = 16;

/// REPL state beyond the engine itself: a client-side slow-command log
/// over everything executed in this shell (the server keeps its own; see
/// `docs/OBSERVABILITY.md`).
pub struct Shell {
    /// The shell's database.
    pub db: Ariel,
    slow: SlowLog,
}

impl Shell {
    /// Wrap an engine in shell state.
    pub fn new(db: Ariel) -> Shell {
        Shell {
            db,
            slow: SlowLog::new(SHELL_SLOW_CAPACITY, 0),
        }
    }

    /// Execute one line of shell input, timing non-meta statements into
    /// the shell's slow log. Same contract as [`dispatch`].
    pub fn dispatch(&mut self, line: &str) -> ShellAction {
        let trimmed = line.trim();
        if let Some(meta) = trimmed.strip_prefix('\\') {
            if meta.split_whitespace().next() == Some("slowlog") {
                return slowlog_command(&self.slow, meta);
            }
        }
        let statement =
            !trimmed.is_empty() && !trimmed.starts_with('\\') && !trimmed.starts_with('#');
        let t0 = std::time::Instant::now();
        let action = dispatch(&mut self.db, line);
        if statement {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            self.slow
                .record(0, ariel_server::Opcode::Command, dur_ns, trimmed);
        }
        action
    }
}

/// Render `\slowlog [clear]` against a slow log.
fn slowlog_command(slow: &SlowLog, meta: &str) -> ShellAction {
    let mut parts = meta.split_whitespace();
    parts.next(); // "slowlog"
    match parts.next() {
        Some("clear") => {
            slow.clear();
            ShellAction::Text("slow log cleared\n".into())
        }
        Some(_) => ShellAction::Text("usage: \\slowlog [clear]\n".into()),
        None => {
            let entries = slow.entries();
            if entries.is_empty() {
                return ShellAction::Text("(slow log empty)\n".into());
            }
            let mut text = String::new();
            for e in &entries {
                text.push_str(&format!("{:>12.3} ms  {}\n", e.dur_ns as f64 / 1e6, e.text));
            }
            text.push_str(&format!(
                "({} slowest statement(s) this session)\n",
                entries.len()
            ));
            ShellAction::Text(text)
        }
    }
}

/// Result of one shell input line.
#[derive(Debug, PartialEq)]
pub enum ShellAction {
    /// Text to print.
    Text(String),
    /// Exit the shell.
    Quit,
    /// Nothing to print.
    Silent,
}

/// Render a result set as an aligned ASCII table.
pub fn format_table(columns: &[String], rows: &[Vec<Value>]) -> String {
    if columns.is_empty() {
        return String::new();
    }
    let render = |v: &Value| -> String {
        match v {
            Value::Str(s) => s.clone(),
            Value::Sym(sym) => sym.as_str().to_string(),
            other => other.to_string(),
        }
    };
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(render).collect())
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for (c, w) in columns.iter().zip(&widths) {
        out.push_str(&format!(" {c:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in &rendered {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out.push_str(&format!(
        "({} row{})\n",
        rows.len(),
        if rows.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Execute one line of shell input: a meta command (starting with `\`) or
/// ARL/POSTQUEL source.
pub fn dispatch(db: &mut Ariel, line: &str) -> ShellAction {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return ShellAction::Silent;
    }
    if let Some(meta) = line.strip_prefix('\\') {
        return meta_command(db, meta);
    }
    match db.execute(line) {
        Ok(outputs) => {
            let mut text = String::new();
            for out in outputs {
                if !out.columns.is_empty() {
                    text.push_str(&format_table(&out.columns, &out.rows));
                } else if !out.changes.is_empty() {
                    text.push_str(&format!("({} change(s))\n", out.changes.len()));
                } else {
                    text.push_str("ok\n");
                }
            }
            for note in db.drain_notifications() {
                text.push_str(&format!("notification on `{}`:\n", note.channel));
                text.push_str(&format_table(&note.columns, &note.rows));
            }
            ShellAction::Text(text)
        }
        Err(e) => ShellAction::Text(format!("error: {e}\n")),
    }
}

fn meta_command(db: &mut Ariel, meta: &str) -> ShellAction {
    let mut parts = meta.split_whitespace();
    match parts.next() {
        Some("q") | Some("quit") | Some("exit") => ShellAction::Quit,
        Some("d") | Some("relations") => {
            let mut text = String::new();
            for name in db.catalog().names() {
                let rel = db.catalog().get(&name).unwrap();
                let attrs: Vec<String> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|a| format!("{} {}", a.name, a.ty))
                    .collect();
                text.push_str(&format!(
                    "{name} ({}) — {} tuple(s)\n",
                    attrs.join(", "),
                    rel.len()
                ));
            }
            if text.is_empty() {
                text.push_str("(no relations)\n");
            }
            ShellAction::Text(text)
        }
        Some("rules") => {
            let mut text = String::new();
            for rule in db.rules().iter() {
                text.push_str(&format!(
                    "[{}] {} (priority {}, {})\n    {}\n",
                    if rule.is_active() {
                        "active"
                    } else {
                        "installed"
                    },
                    rule.name,
                    rule.priority,
                    rule.ruleset,
                    rule.def
                ));
            }
            if text.is_empty() {
                text.push_str("(no rules)\n");
            }
            ShellAction::Text(text)
        }
        Some("stats") => {
            if parts.next() == Some("bytes") {
                let m = db.memory_stats();
                return ShellAction::Text(format!(
                    "match state:\n\
                     \x20 alpha    {} bytes over {} entries ({:.1} bytes/entry)\n\
                     \x20 pnodes   {} bytes over {} rows\n\
                     \x20 selnet   {} bytes\n\
                     symbol table: {} symbols, {} bytes\n\
                     scratch: {} bytes\n",
                    m.alpha_bytes,
                    m.alpha_entries,
                    m.alpha_bytes_per_entry(),
                    m.pnode_bytes,
                    m.pnode_rows,
                    m.selnet_bytes,
                    m.symbols,
                    m.symbol_bytes,
                    m.scratch_bytes,
                ));
            }
            let s = db.stats();
            let n = db.network_stats();
            ShellAction::Text(format!(
                "engine: {} transitions, {} tokens, {} firings\n\
                 network: {} rules, {} alpha nodes ({} virtual), \
                 {} alpha entries, {} bytes match state\n",
                s.transitions,
                s.tokens,
                s.firings,
                n.rules,
                n.alpha_nodes,
                n.virtual_alpha_nodes,
                n.alpha_entries,
                n.alpha_bytes + n.pnode_bytes + n.selnet_bytes,
            ))
        }
        Some("explain") => {
            let rest: Vec<&str> = parts.collect();
            let src = rest.join(" ");
            if src.is_empty() {
                return ShellAction::Text(
                    "usage: \\explain <dml command> | \\explain rule <name> | \\explain analyze <command>\n"
                        .into(),
                );
            }
            let result = if let Some(rule) = src.strip_prefix("rule ") {
                db.explain_rule_action(rule.trim())
            } else if let Some(cmd) = src.strip_prefix("analyze ") {
                db.explain_analyze(cmd.trim())
            } else {
                db.explain(&src)
            };
            match result {
                Ok(t) => ShellAction::Text(t),
                Err(e) => ShellAction::Text(format!("error: {e}\n")),
            }
        }
        Some("metrics") => match parts.next() {
            None => ShellAction::Text(format!("{}\n", db.metrics_json())),
            Some("prom") => ShellAction::Text(db.metrics_prometheus()),
            Some(_) => ShellAction::Text("usage: \\metrics [prom]\n".into()),
        },
        Some("observe") => match parts.next() {
            Some("on") => {
                db.set_observability(true);
                ShellAction::Text("observability on (timing histograms active)\n".into())
            }
            Some("off") => {
                db.set_observability(false);
                ShellAction::Text("observability off\n".into())
            }
            _ => ShellAction::Text(format!(
                "observability is {}; usage: \\observe on|off\n",
                if db.observing() { "on" } else { "off" }
            )),
        },
        Some("trace") => match parts.next() {
            Some("on") => {
                db.set_tracing(true);
                ShellAction::Text(format!(
                    "tracing on (flight recorder active, capacity {})\n",
                    db.trace_limit()
                ))
            }
            Some("off") => {
                db.set_tracing(false);
                ShellAction::Text("tracing off\n".into())
            }
            Some("limit") => match parts.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    db.set_trace_limit(n);
                    ShellAction::Text(format!("trace limit set to {}\n", db.trace_limit()))
                }
                _ => ShellAction::Text(format!(
                    "trace limit is {}; usage: \\trace limit <n>\n",
                    db.trace_limit()
                )),
            },
            Some("show") => {
                let limit = parts.next().and_then(|n| n.parse::<usize>().ok());
                if !db.tracing() {
                    return ShellAction::Text(
                        "tracing is off — nothing recorded (enable with \\trace on)\n".into(),
                    );
                }
                ShellAction::Text(db.render_trace(limit))
            }
            Some("export") => match parts.next() {
                Some(path) => match std::fs::write(path, db.chrome_trace_json()) {
                    Ok(()) => ShellAction::Text(format!(
                        "wrote Chrome trace ({} events) to {path}\n",
                        db.trace_events().len()
                    )),
                    Err(e) => ShellAction::Text(format!("error: {e}\n")),
                },
                None => ShellAction::Text("usage: \\trace export <file>\n".into()),
            },
            _ => ShellAction::Text(format!(
                "tracing is {}; usage: \\trace on|off|limit <n>|show [n]|export <file>\n",
                if db.tracing() { "on" } else { "off" }
            )),
        },
        Some("why") => {
            let rest: Vec<&str> = parts.collect();
            match rest.as_slice() {
                [name] => match db.why(name) {
                    Ok(t) => ShellAction::Text(t),
                    Err(e) => ShellAction::Text(format!("error: {e}\n")),
                },
                _ => ShellAction::Text("usage: \\why <rule>\n".into()),
            }
        }
        Some("checkpoint") => {
            let rest: Vec<&str> = parts.collect();
            let usage = "usage: \\checkpoint <dir> [off|commit|batch]\n";
            let (dir, mode) = match rest.as_slice() {
                [dir] => (*dir, None),
                [dir, mode] => (*dir, Some(*mode)),
                _ => return ShellAction::Text(usage.into()),
            };
            if let Some(m) = mode {
                let Some(d) = ariel::Durability::parse(m) else {
                    return ShellAction::Text(format!("unknown durability mode `{m}`; {usage}"));
                };
                if let Err(e) = db.set_durability(d) {
                    return ShellAction::Text(format!("error: {e}\n"));
                }
            }
            match db.checkpoint(dir) {
                Ok(bytes) => ShellAction::Text(format!(
                    "checkpoint: {bytes}-byte snapshot in {dir}, log reset \
                     (durability {})\n",
                    db.options().durability.as_str()
                )),
                Err(e) => ShellAction::Text(format!("error: {e}\n")),
            }
        }
        Some("serve") => match parts.next() {
            Some(addr) => serve_blocking(db, addr),
            None => ShellAction::Text(
                "usage: \\serve <addr>   (e.g. \\serve 127.0.0.1:7878; port 0 = ephemeral)\n"
                    .into(),
            ),
        },
        Some("help") | Some("h") | Some("?") => ShellAction::Text(HELP.to_string()),
        other => ShellAction::Text(format!(
            "unknown meta command `\\{}` — try \\help\n",
            other.unwrap_or_default()
        )),
    }
}

/// Hand the shell's database to a TCP server until a client sends a
/// `shutdown` frame, then take it back: whatever the sessions appended
/// is in the REPL afterwards, and a failed bind costs nothing. Prints
/// the bound address up front (the shell blocks while serving).
fn serve_blocking(db: &mut Ariel, addr: &str) -> ShellAction {
    let engine = std::mem::replace(db, Ariel::new());
    let server = match Server::bind(addr, engine, ServerOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            let msg = format!("error: {e}\n");
            *db = *e.engine;
            return ShellAction::Text(msg);
        }
    };
    // announce before blocking — clients need the address (and tests the
    // ephemeral port) while the server runs
    println!("serving on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let (stats, engine) = server.run();
    *db = engine;
    ShellAction::Text(format!(
        "server stopped: {} session(s), {} command(s), {} query(s), {} protocol error(s), \
         {} drain(s) executed (largest {})\n",
        stats.sessions,
        stats.commands,
        stats.queries,
        stats.protocol_errors,
        stats.batches,
        stats.max_batch,
    ))
}

/// Shell help text.
pub const HELP: &str = r#"Ariel active DBMS shell.

Commands (POSTQUEL subset + ARL):
  create emp (name = string, sal = float, dno = int)
  append emp (name = "alice", sal = 42000, dno = 1)
  retrieve (emp.name, emp.sal) where emp.sal > 10000
  replace emp (sal = 50000) where emp.name = "alice"
  delete emp where emp.dno = 9
  do <cmd> <cmd> ... end                    -- one transition (logical events)
  define rule r [in set] [priority n] [on append emp]
      [if emp.sal > 1.1 * previous emp.sal] then <action>
  activate rule r | deactivate rule r | destroy rule r
  define index on emp (sal) using btree
  notify channel (x = emp.sal)              -- async notification

Meta commands:
  \d, \relations    list relations
  \rules            list rules
  \explain <cmd>    show the optimizer's plan without executing
  \explain rule <r> show the plans a rule firing would run (Fig. 8)
  \explain analyze <cmd>
                    execute <cmd> under a timing capture and show the
                    per-node match work it caused (tokens, times)
  \observe on|off   toggle the timing tier (per-phase histograms)
  \trace on|off     toggle the flight recorder (causal trace events)
  \trace limit <n>  set the recorder's ring capacity
  \trace show [n]   list the recorded events (newest n)
  \trace export <f> write the recording as Chrome trace_event JSON
  \why <rule>       causal chain of the rule's recorded firings
  \serve <addr>     serve this database over TCP until a client sends
                    shutdown (blocks; REPL state survives — docs/SERVER.md)
  \checkpoint <dir> [off|commit|batch]
                    write a snapshot to <dir>, reset its write-ahead log,
                    and log further commits there (docs/DURABILITY.md)
  \metrics          full metrics snapshot as JSON
  \metrics prom     the same snapshot in Prometheus text exposition
  \slowlog [clear]  the slowest statements this shell has executed
  \stats            engine and network statistics
  \stats bytes      per-memory byte breakdown (alpha/pnode/selnet,
                    symbol table, match scratch)
  \help             this text
  \q                quit
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn shell_db() -> Ariel {
        let mut db = Ariel::new();
        db.execute("create t (x = int, name = string)").unwrap();
        db
    }

    #[test]
    fn table_formatting() {
        let cols = vec!["x".to_string(), "name".to_string()];
        let rows = vec![
            vec![Value::Int(1), Value::from("alpha")],
            vec![Value::Int(22), Value::from("b")],
        ];
        let t = format_table(&cols, &rows);
        assert!(t.contains("| x  | name  |"));
        assert!(t.contains("| 1  | alpha |"));
        assert!(t.contains("| 22 | b     |"));
        assert!(t.contains("(2 rows)"));
    }

    #[test]
    fn dispatch_dml_and_query() {
        let mut db = shell_db();
        let a = dispatch(&mut db, r#"append t (x = 1, name = "one")"#);
        assert_eq!(a, ShellAction::Text("(1 change(s))\n".into()));
        let ShellAction::Text(t) = dispatch(&mut db, "retrieve (t.all)") else {
            panic!()
        };
        assert!(t.contains("one"));
        assert!(t.contains("(1 row)"));
    }

    #[test]
    fn dispatch_errors_are_text() {
        let mut db = shell_db();
        let ShellAction::Text(t) = dispatch(&mut db, "retrieve (no.x)") else {
            panic!()
        };
        assert!(t.starts_with("error:"));
    }

    #[test]
    fn meta_commands() {
        let mut db = shell_db();
        assert_eq!(dispatch(&mut db, "\\q"), ShellAction::Quit);
        let ShellAction::Text(t) = dispatch(&mut db, "\\d") else {
            panic!()
        };
        assert!(t.contains("t (x int, name string)"));
        dispatch(&mut db, "define rule r if t.x > 0 then delete t");
        let ShellAction::Text(t) = dispatch(&mut db, "\\rules") else {
            panic!()
        };
        assert!(t.contains("[active] r"));
        let ShellAction::Text(t) = dispatch(&mut db, "\\stats") else {
            panic!()
        };
        assert!(t.contains("network: 1 rules"));
        dispatch(&mut db, r#"append t (x = 3, name = "mem")"#);
        let ShellAction::Text(t) = dispatch(&mut db, "\\stats bytes") else {
            panic!()
        };
        assert!(t.contains("match state:"));
        assert!(t.contains("bytes/entry"));
        assert!(t.contains("symbol table:"));
        assert!(t.contains("scratch:"));
        let ShellAction::Text(t) = dispatch(&mut db, "\\nope") else {
            panic!()
        };
        assert!(t.contains("unknown meta command"));
    }

    #[test]
    fn trace_meta_commands() {
        let mut db = shell_db();
        // off by default, and \trace show says so
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace") else {
            panic!()
        };
        assert!(t.contains("tracing is off"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace show") else {
            panic!()
        };
        assert!(t.contains("tracing is off"), "{t}");
        // on, record, show
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace on") else {
            panic!()
        };
        assert!(t.contains("tracing on"), "{t}");
        dispatch(&mut db, "create log (x = int)");
        dispatch(
            &mut db,
            "define rule r if t.x > 0 then append to log(x = t.x)",
        );
        dispatch(&mut db, r#"append t (x = 3, name = "n")"#);
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace show") else {
            panic!()
        };
        assert!(t.contains("transition-begin"), "{t}");
        assert!(t.contains("firing"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace show 2") else {
            panic!()
        };
        assert!(t.contains("showing newest 2"), "{t}");
        // limit
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace limit 8") else {
            panic!()
        };
        assert!(t.contains("trace limit set to 8"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace limit") else {
            panic!()
        };
        assert!(t.contains("trace limit is 8"), "{t}");
        // off discards
        let ShellAction::Text(t) = dispatch(&mut db, "\\trace off") else {
            panic!()
        };
        assert!(t.contains("tracing off"), "{t}");
    }

    #[test]
    fn why_meta_command() {
        let mut db = shell_db();
        let ShellAction::Text(t) = dispatch(&mut db, "\\why") else {
            panic!()
        };
        assert!(t.contains("usage"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\why nope") else {
            panic!()
        };
        assert!(t.starts_with("error:"), "{t}");
        dispatch(&mut db, "create log (x = int)");
        dispatch(
            &mut db,
            "define rule r if t.x > 0 then append to log(x = t.x)",
        );
        let ShellAction::Text(t) = dispatch(&mut db, "\\why r") else {
            panic!()
        };
        assert!(t.contains("tracing is off"), "{t}");
        dispatch(&mut db, "\\trace on");
        dispatch(&mut db, r#"append t (x = 3, name = "n")"#);
        let ShellAction::Text(t) = dispatch(&mut db, "\\why r") else {
            panic!()
        };
        assert!(t.contains("firing #1 of r"), "{t}");
        assert!(t.contains("command `append t"), "{t}");
    }

    #[test]
    fn trace_export_writes_chrome_json() {
        let mut db = shell_db();
        dispatch(&mut db, "\\trace on");
        dispatch(&mut db, r#"append t (x = 1, name = "e")"#);
        let path = std::env::temp_dir().join("ariel_cli_trace_export_test.json");
        let line = format!("\\trace export {}", path.display());
        let ShellAction::Text(t) = dispatch(&mut db, &line) else {
            panic!()
        };
        assert!(t.contains("wrote Chrome trace"), "{t}");
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    }

    #[test]
    fn checkpoint_meta_command() {
        let mut db = shell_db();
        dispatch(&mut db, r#"append t (x = 1, name = "persisted")"#);
        let ShellAction::Text(t) = dispatch(&mut db, "\\checkpoint") else {
            panic!()
        };
        assert!(t.starts_with("usage:"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\checkpoint /tmp/x paranoid") else {
            panic!()
        };
        assert!(t.contains("unknown durability mode"), "{t}");

        let dir = std::env::temp_dir().join(format!("ariel_cli_ckpt_{}", std::process::id()));
        let line = format!("\\checkpoint {} commit", dir.display());
        let ShellAction::Text(t) = dispatch(&mut db, &line) else {
            panic!()
        };
        assert!(t.contains("snapshot in"), "{t}");
        assert!(t.contains("durability commit"), "{t}");
        assert!(dir.join("snapshot.bin").exists());
        // post-checkpoint commits land in the wal
        dispatch(&mut db, r#"append t (x = 2, name = "logged")"#);
        assert_eq!(db.wal_records(), 1);

        let (mut db2, report) =
            Ariel::recover(&dir, ariel::EngineOptions::default()).expect("recover");
        assert_eq!(report.replayed, 1);
        let out = db2.query("retrieve (t.x)").unwrap();
        assert_eq!(out.rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_prom_meta_command() {
        let mut db = shell_db();
        dispatch(&mut db, r#"append t (x = 1, name = "m")"#);
        let ShellAction::Text(t) = dispatch(&mut db, "\\metrics prom") else {
            panic!()
        };
        assert!(
            t.contains("# TYPE ariel_engine_transitions_total counter"),
            "{t}"
        );
        assert!(t.contains("ariel_engine_transitions_total 1"), "{t}");
        assert!(t.contains("ariel_wal_attached 0"), "{t}");
        let ShellAction::Text(t) = dispatch(&mut db, "\\metrics nope") else {
            panic!()
        };
        assert!(t.starts_with("usage:"), "{t}");
        // bare \metrics still prints JSON
        let ShellAction::Text(t) = dispatch(&mut db, "\\metrics") else {
            panic!()
        };
        assert!(t.starts_with("{\"engine\":"), "{t}");
    }

    #[test]
    fn shell_slowlog_records_statements() {
        let mut shell = Shell::new(shell_db());
        let ShellAction::Text(t) = shell.dispatch("\\slowlog") else {
            panic!()
        };
        assert!(t.contains("(slow log empty)"), "{t}");
        shell.dispatch(r#"append t (x = 1, name = "slow")"#);
        shell.dispatch("retrieve (t.all)");
        shell.dispatch("\\stats"); // meta commands are not timed
        let ShellAction::Text(t) = shell.dispatch("\\slowlog") else {
            panic!()
        };
        assert!(t.contains("append t"), "{t}");
        assert!(t.contains("retrieve (t.all)"), "{t}");
        assert!(t.contains("ms"), "{t}");
        assert!(t.contains("(2 slowest statement(s) this session)"), "{t}");
        assert!(!t.contains("\\stats"), "{t}");
        let ShellAction::Text(t) = shell.dispatch("\\slowlog clear") else {
            panic!()
        };
        assert!(t.contains("cleared"), "{t}");
        let ShellAction::Text(t) = shell.dispatch("\\slowlog") else {
            panic!()
        };
        assert!(t.contains("(slow log empty)"), "{t}");
    }

    #[test]
    fn comments_and_blanks_are_silent() {
        let mut db = shell_db();
        assert_eq!(dispatch(&mut db, "   "), ShellAction::Silent);
        assert_eq!(dispatch(&mut db, "# a comment"), ShellAction::Silent);
    }

    #[test]
    fn notifications_are_printed() {
        let mut db = shell_db();
        dispatch(
            &mut db,
            "define rule w on append t then notify chan (x = t.x)",
        );
        let ShellAction::Text(t) = dispatch(&mut db, r#"append t (x = 5, name = "n")"#) else {
            panic!()
        };
        assert!(t.contains("notification on `chan`"), "{t}");
        assert!(t.contains("| 5 |"));
    }
}
