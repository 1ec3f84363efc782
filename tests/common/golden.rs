//! Schema goldens for the metrics documents. A JSON document's schema is
//! every key path with the type of the value there; a Prometheus
//! exposition's is every `# TYPE` line and every series with its label
//! keys. Numbers and label values are masked, so a golden changes only
//! when a key, family or label does. The checked-in schemas live in
//! `tests/golden/`.

use std::collections::BTreeSet;
use std::path::Path;

/// One `path type` line per leaf and per empty container of a compact JSON
/// document, sorted. Array elements share the path `…[]`.
pub fn json_schema(doc: &str) -> String {
    let mut p = Parser {
        s: doc.as_bytes(),
        i: 0,
    };
    let mut out = BTreeSet::new();
    p.value("$", &mut out);
    assert_eq!(p.i, doc.len(), "trailing bytes after the document");
    lines(out)
}

/// Every `# TYPE` line and every series as `name{label keys}`, sorted.
pub fn prom_schema(text: &str) -> String {
    let mut out = BTreeSet::new();
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            out.insert(line.to_string());
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, _) = line
            .rsplit_once(' ')
            .expect("sample line is `series value`");
        out.insert(match series.split_once('{') {
            None => series.to_string(),
            Some((name, labels)) => {
                let mut keys: Vec<&str> = labels
                    .trim_end_matches('}')
                    .split(',')
                    .map(|kv| kv.split_once('=').expect("label is key=value").0)
                    .collect();
                keys.sort_unstable();
                format!("{name}{{{}}}", keys.join(","))
            }
        });
    }
    lines(out)
}

/// Compare `schema` with `tests/golden/<name>`. On a mismatch the fresh
/// schema is written under the test target directory, for review and for
/// copying over the golden when the change is intended.
pub fn assert_golden(name: &str, schema: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == schema {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh, schema).expect("write the fresh schema");
    let old: BTreeSet<&str> = expected.lines().collect();
    let new: BTreeSet<&str> = schema.lines().collect();
    panic!(
        "{name}: schema changed\n  gone: {:?}\n  added: {:?}\nfresh schema: {}",
        old.difference(&new).collect::<Vec<_>>(),
        new.difference(&old).collect::<Vec<_>>(),
        fresh.display()
    );
}

fn lines(set: BTreeSet<String>) -> String {
    set.into_iter().map(|l| l + "\n").collect()
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> u8 {
        self.s[self.i]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(self.peek() as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self, path: &str, out: &mut BTreeSet<String>) {
        match self.peek() {
            b'{' | b'[' => {
                let close = if self.peek() == b'{' { b'}' } else { b']' };
                self.i += 1;
                if self.peek() == close {
                    self.i += 1;
                    out.insert(format!(
                        "{path} {}",
                        if close == b'}' { "{}" } else { "[]" }
                    ));
                    return;
                }
                loop {
                    if close == b'}' {
                        let key = self.string();
                        self.eat(b':');
                        self.value(&format!("{path}.{key}"), out);
                    } else {
                        self.value(&format!("{path}[]"), out);
                    }
                    if self.peek() != b',' {
                        break;
                    }
                    self.i += 1;
                }
                self.eat(close);
            }
            b'"' => {
                self.string();
                out.insert(format!("{path} string"));
            }
            b't' | b'f' | b'n' => {
                let word = if self.s[self.i..].starts_with(b"null") {
                    "null"
                } else if self.s[self.i..].starts_with(b"true") {
                    "true"
                } else {
                    "false"
                };
                self.i += word.len();
                let kind = if word == "null" { "null" } else { "bool" };
                out.insert(format!("{path} {kind}"));
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                assert!(self.i > start, "unexpected byte at {start}");
                out.insert(format!("{path} number"));
            }
        }
    }

    /// A string literal; returns its raw contents (escapes left as written).
    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.peek() != b'"' {
            self.i += if self.peek() == b'\\' { 2 } else { 1 };
        }
        let raw = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.i += 1;
        raw
    }
}
