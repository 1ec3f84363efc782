//! The one row type of the paper tables. Every experiment produces
//! [`Row`]s; [`repeat`] runs it [`REPS`] times and folds the runs into one
//! table, [`render`] prints it, [`to_json`] writes it as a `BENCH_*.json`
//! file, and `bench_gate` reads those files back into rows.

use std::time::Duration;

/// How many times [`repeat`] runs a table.
pub const REPS: usize = 5;

/// The value of a key cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Key {
    Str(String),
    Bool(bool),
}

/// A time cell over repetitions: the median and the extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// A single run's measurement.
    pub fn of(v: f64) -> Spread {
        Spread {
            median: v,
            min: v,
            max: v,
        }
    }
}

/// One cell of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Names the row (a workload, a config, a flag): must match across
    /// repetitions.
    Key(Key),
    /// A deterministic count: must be equal across repetitions.
    Count(u64),
    /// A timed measurement — a duration, a rate or ratio derived from
    /// one, or a figure that depends on timing (how many requests a
    /// server's drains happened to batch). Varies run to run, so it is
    /// reported as the median over repetitions with its min and max.
    Time(Spread),
}

impl Cell {
    /// A count, or a time's median; keys have no number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Cell::Key(_) => None,
            Cell::Count(n) => Some(*n as f64),
            Cell::Time(s) => Some(s.median),
        }
    }
}

/// Adaptive precision: three significant-ish digits for small values,
/// whole numbers for large ones, and for whole values from 10 up (a
/// median batch count).
fn num_text(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 || (a >= 10.0 || a == 0.0) && v.fract() == 0.0 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.3}"),
    }
}

impl std::fmt::Display for Cell {
    /// A time reads `median [min–max]` (just the median when all runs
    /// agree).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Key(Key::Str(s)) => f.write_str(s),
            Cell::Key(Key::Bool(b)) => write!(f, "{b}"),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Time(s) if s.min == s.max => f.write_str(&num_text(s.median)),
            Cell::Time(s) => write!(
                f,
                "{} [{}–{}]",
                num_text(s.median),
                num_text(s.min),
                num_text(s.max)
            ),
        }
    }
}

/// An ordered list of named cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    pub cells: Vec<(String, Cell)>,
}

impl Row {
    pub fn new() -> Row {
        Row::default()
    }

    /// Append a cell.
    fn with(mut self, name: &str, cell: Cell) -> Row {
        self.cells.push((name.to_string(), cell));
        self
    }

    pub fn key(self, name: &str, value: &str) -> Row {
        self.with(name, Cell::Key(Key::Str(value.to_string())))
    }

    pub fn flag(self, name: &str, value: bool) -> Row {
        self.with(name, Cell::Key(Key::Bool(value)))
    }

    pub fn count<N: TryInto<u64>>(self, name: &str, n: N) -> Row {
        let n = n
            .try_into()
            .unwrap_or_else(|_| panic!("{name}: count out of range"));
        self.with(name, Cell::Count(n))
    }

    /// A single run's measurement.
    pub fn time(self, name: &str, v: f64) -> Row {
        self.with(name, Cell::Time(Spread::of(v)))
    }

    pub fn ms(self, name: &str, d: Duration) -> Row {
        self.time(name, d.as_secs_f64() * 1e3)
    }

    pub fn us(self, name: &str, d: Duration) -> Row {
        self.time(name, d.as_secs_f64() * 1e6)
    }

    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    pub fn num(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Cell::num)
    }

    /// The row's name for messages: the `keys` columns joined by `/`, a
    /// string as itself and anything else as `column=value`.
    pub fn label(&self, keys: &[&str]) -> String {
        keys.iter()
            .map(|&k| match self.get(k) {
                Some(Cell::Key(Key::Str(s))) => s.clone(),
                Some(c) => format!("{k}={c}"),
                None => format!("{k}=?"),
            })
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// The rows as a right-aligned text table, one column per cell of the
/// first row.
pub fn render(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut lines: Vec<Vec<String>> = vec![first.cells.iter().map(|(n, _)| n.clone()).collect()];
    lines.extend(
        rows.iter()
            .map(|r| r.cells.iter().map(|(_, c)| c.to_string()).collect()),
    );
    let widths: Vec<usize> = (0..lines[0].len())
        .map(|i| {
            lines
                .iter()
                .filter_map(|l| l.get(i))
                .map(|s| s.chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    for line in &lines {
        let cols: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(s, w)| format!("{s:>w$}"))
            .collect();
        out.push_str(&cols.join("  "));
        out.push('\n');
    }
    out
}

/// The rows as a flat JSON array of objects. A time cell `x` writes its
/// median as `x` plus `x_min` and `x_max`; numbers of a time always carry
/// a decimal point and counts never do.
pub fn to_json(rows: &[Row]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|row| {
            let fields: Vec<String> = row
                .cells
                .iter()
                .map(|(name, cell)| match cell {
                    Cell::Key(Key::Str(s)) => format!(
                        "\"{name}\":\"{}\"",
                        s.replace('\\', "\\\\").replace('"', "\\\"")
                    ),
                    Cell::Key(Key::Bool(b)) => format!("\"{name}\":{b}"),
                    Cell::Count(n) => format!("\"{name}\":{n}"),
                    Cell::Time(s) => format!(
                        "\"{name}\":{:.3},\"{name}_min\":{:.3},\"{name}_max\":{:.3}",
                        s.median, s.min, s.max
                    ),
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    format!("[{}]", objects.join(","))
}

/// Read a JSON array of flat objects back into rows: a string or boolean
/// becomes a key cell, a number written without a fraction or exponent a
/// count, any other number a time (so `x_min`/`x_max` read as times of
/// their own).
pub fn parse_json(src: &str) -> Result<Vec<Row>, String> {
    Parser::new(src).rows()
}

/// Minimal JSON reader for the flat array-of-objects shape [`to_json`]
/// writes. Strings accept the standard JSON escapes (`\" \\ \/ \b \f \n
/// \r \t \uXXXX`); values must be strings, booleans or numbers — nothing
/// more.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out: Option<String> = None;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                let buf = out.get_or_insert_with(|| {
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map(str::to_string)
                        .unwrap_or_default()
                });
                self.pos += 1;
                let esc = self
                    .bytes
                    .get(self.pos)
                    .ok_or("unterminated escape".to_string())?;
                match esc {
                    b'"' => buf.push('"'),
                    b'\\' => buf.push('\\'),
                    b'/' => buf.push('/'),
                    b'b' => buf.push('\u{8}'),
                    b'f' => buf.push('\u{c}'),
                    b'n' => buf.push('\n'),
                    b'r' => buf.push('\r'),
                    b't' => buf.push('\t'),
                    b'u' => {
                        let hex = self
                            .bytes
                            .get(self.pos + 1..self.pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                        // surrogate halves are not paired up — the files we
                        // read are our own exports, which never emit them
                        buf.push(char::from_u32(code).ok_or_else(|| {
                            format!("\\u{code:04x} is not a scalar value at byte {}", self.pos)
                        })?);
                        self.pos += 4;
                    }
                    other => {
                        return Err(format!(
                            "unknown escape '\\{}' at byte {}",
                            *other as char, self.pos
                        ))
                    }
                }
                self.pos += 1;
                continue;
            }
            if b == b'"' {
                let s = match out {
                    Some(s) => s,
                    None => std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string(),
                };
                self.pos += 1;
                return Ok(s);
            }
            if let Some(buf) = out.as_mut() {
                // re-borrow as str to keep multi-byte UTF-8 intact
                let rest =
                    std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or("unterminated string".to_string())?;
                buf.push(c);
                self.pos += c.len_utf8();
                continue;
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Cell, String> {
        match self.peek() {
            Some(b'"') => Ok(Cell::Key(Key::Str(self.string()?))),
            Some(b't') | Some(b'f') => {
                let rest = &self.bytes[self.pos..];
                if rest.starts_with(b"true") {
                    self.pos += 4;
                    Ok(Cell::Key(Key::Bool(true)))
                } else if rest.starts_with(b"false") {
                    self.pos += 5;
                    Ok(Cell::Key(Key::Bool(false)))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Cell::Count(n));
                }
                let x = text
                    .parse::<f64>()
                    .map_err(|e| format!("bad number at byte {start}: {e}"))?;
                Ok(Cell::Time(Spread::of(x)))
            }
            other => Err(format!(
                "unexpected value start {other:?} at byte {}",
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(row);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            row = row.with(&key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(row);
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn rows(&mut self) -> Result<Vec<Row>, String> {
        self.expect(b'[')?;
        let mut rows = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(rows);
        }
        loop {
            rows.push(self.object()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(rows);
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

/// Run a table [`REPS`] times (`run` gets the repetition index) and fold
/// the runs with [`aggregate`].
pub fn repeat(table: &str, run: impl FnMut(usize) -> Vec<Row>) -> Result<Vec<Row>, String> {
    let runs: Vec<Vec<Row>> = (0..REPS).map(run).collect();
    aggregate(table, &runs)
}

/// Fold repeated runs of one table into one. Every run must have the same
/// rows with the same columns; key and count cells must be equal across
/// runs, and time cells become their median, min and max. An error names
/// the table, the row and the column.
pub fn aggregate(table: &str, runs: &[Vec<Row>]) -> Result<Vec<Row>, String> {
    let Some(first) = runs.first() else {
        return Err(format!("{table}: no runs"));
    };
    if let Some(run) = runs.iter().find(|run| run.len() != first.len()) {
        return Err(format!(
            "{table}: a run has {} rows, the first has {}",
            run.len(),
            first.len()
        ));
    }
    let mut out = Vec::with_capacity(first.len());
    for (r, row) in first.iter().enumerate() {
        let what = |col: &str| {
            let first_col = row.cells.first().map_or("", |(n, _)| n.as_str());
            format!(
                "{table}: row {} ({}), column {col}",
                r + 1,
                row.label(&[first_col])
            )
        };
        if runs.iter().any(|run| run[r].cells.len() != row.cells.len()) {
            return Err(format!("{}: runs disagree on the columns", what("*")));
        }
        let mut cells = Vec::with_capacity(row.cells.len());
        for (c, (name, cell)) in row.cells.iter().enumerate() {
            let mut samples = Vec::with_capacity(runs.len());
            for run in runs {
                match run[r].cells.get(c) {
                    Some((n, x)) if n == name => samples.push(x),
                    _ => return Err(format!("{}: missing from a run", what(name))),
                }
            }
            let merged = if let Cell::Time(_) = cell {
                let mut v = Vec::with_capacity(samples.len());
                for s in &samples {
                    match s {
                        Cell::Time(t) => v.push(t.median),
                        other => {
                            return Err(format!(
                                "{}: a time in one run, {other:?} in another",
                                what(name)
                            ))
                        }
                    }
                }
                v.sort_by(f64::total_cmp);
                Cell::Time(Spread {
                    median: v[v.len() / 2],
                    min: v[0],
                    max: v[v.len() - 1],
                })
            } else {
                if let Some(other) = samples.iter().find(|s| **s != cell) {
                    return Err(format!(
                        "{}: differs across runs ({cell} vs {other})",
                        what(name)
                    ));
                }
                cell.clone()
            };
            cells.push((name.clone(), merged));
        }
        out.push(Row { cells });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(candidates: u64, ms: f64) -> Vec<Row> {
        vec![Row::new()
            .key("workload", "w")
            .flag("indexed", true)
            .count("join_candidates", candidates)
            .time("total_ms", ms)]
    }

    #[test]
    fn repeat_reports_median_min_max_of_times() {
        let times = [3.0, 1.0, 5.0, 2.0, 4.0];
        let rows = repeat("joins", |rep| run(7, times[rep])).unwrap();
        let want = Spread {
            median: 3.0,
            min: 1.0,
            max: 5.0,
        };
        assert_eq!(rows[0].get("total_ms"), Some(&Cell::Time(want)));
        assert_eq!(rows[0].num("join_candidates"), Some(7.0));
        let json = to_json(&rows);
        assert_eq!(
            json,
            "[{\"workload\":\"w\",\"indexed\":true,\"join_candidates\":7,\
             \"total_ms\":3.000,\"total_ms_min\":1.000,\"total_ms_max\":5.000}]"
        );
        // the reader gets every cell back; the spread reads as three times
        let back = parse_json(&json).unwrap();
        assert_eq!(back[0].label(&["workload", "indexed"]), "w/indexed=true");
        assert_eq!(back[0].get("join_candidates"), Some(&Cell::Count(7)));
        assert_eq!(back[0].num("total_ms_max"), Some(5.0));
        let text = render(&rows);
        assert!(text.contains("3.00 [1.00–5.00]"), "{text}");
        assert!(
            text.lines().next().unwrap().contains("join_candidates"),
            "{text}"
        );
    }

    #[test]
    fn repeat_fails_when_counts_differ_across_reps() {
        let err = repeat("joins", |rep| run(if rep == 3 { 8 } else { 7 }, 1.0)).unwrap_err();
        assert!(
            err.starts_with("joins: row 1 (w), column join_candidates"),
            "{err}"
        );
        assert!(err.contains("differs across runs (7 vs 8)"), "{err}");
        // a key that moves, a row that disappears, a column that is renamed
        let mut moved = run(7, 1.0);
        moved[0].cells[0].1 = Cell::Key(Key::Str("v".into()));
        let err = aggregate("t", &[run(7, 1.0), moved]).unwrap_err();
        assert!(err.contains("column workload: differs"), "{err}");
        assert!(aggregate("t", &[run(7, 1.0), vec![]]).is_err());
        let mut renamed = run(7, 1.0);
        renamed[0].cells[1].0 = "sorted".into();
        assert!(aggregate("t", &[run(7, 1.0), renamed])
            .unwrap_err()
            .contains("column indexed: missing from a run"));
        let mut wider = run(7, 1.0);
        wider[0] = wider[0].clone().count("extra", 1u64);
        assert!(aggregate("t", &[run(7, 1.0), wider])
            .unwrap_err()
            .contains("runs disagree on the columns"));
    }

    #[test]
    fn labels_name_rows_by_their_keys() {
        let row = run(7, 1.0).remove(0).count("clients", 4u64);
        assert_eq!(row.label(&["workload", "indexed"]), "w/indexed=true");
        assert_eq!(row.label(&["clients"]), "clients=4");
    }
}
