//! Request generators and the engine-independent model of what their
//! requests must leave behind.
//!
//! A generator is an endless, seed-determined stream of requests cut into
//! *cycles*: after every cycle the client's live row count is back where it
//! started (it deletes what it appends), so cost per request does not
//! drift with run length and a run may stop after any cycle. Each client
//! owns a disjoint key range — and, on the join shape, its own `dept`
//! rows — so the two clients' requests commute and the model needs no
//! knowledge of how the server interleaved them.
//!
//! The model predicts, from the generated values alone, every reply's
//! change count, every retrieved value, the live content of every relation
//! and every row a rule action must have written. It never asks the engine.

use crate::rng::{mix, Rng};
use ariel::islist::Interval;
use ariel::storage::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One client request and what the reply must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// POSTQUEL/ARL source — all the program under test ever sees.
    pub text: String,
    /// Physical changes the reply must report.
    pub changes: u32,
    /// `Some` marks a single `retrieve`, sent as a `query` frame and not a
    /// `command`: the reply holds exactly one row with this value.
    pub cell: Option<i64>,
    /// Values this request stabs through the selection network's interval
    /// index (replayed on a standalone skip list for `islist.stab_ns`).
    pub probes: Vec<i64>,
}

impl Request {
    pub fn is_query(&self) -> bool {
        self.cell.is_some()
    }
}

/// Order-independent digest of a relation: row count plus the wrapping sum
/// of a hash of every row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelDigest {
    pub rows: u64,
    pub sum: u64,
}

impl RelDigest {
    fn row_hash(cells: &[i64]) -> u64 {
        cells
            .iter()
            .fold(0x51_7C_C1_B7_27_22_0A_95, |h, c| mix(h ^ *c as u64))
    }

    pub fn add(&mut self, cells: &[i64]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(Self::row_hash(cells));
    }

    pub fn remove(&mut self, cells: &[i64]) {
        self.rows -= 1;
        self.sum = self.sum.wrapping_sub(Self::row_hash(cells));
    }

    pub fn merge(&mut self, other: &RelDigest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Expected digest per relation name.
pub type Expected = BTreeMap<&'static str, RelDigest>;

fn merge_into(into: &mut Expected, rel: &'static str, d: &RelDigest) {
    into.entry(rel).or_default().merge(d);
}

pub trait Generator: Send {
    /// Append the next cycle's requests to `out`.
    fn next_cycle(&mut self, out: &mut Vec<Request>);
    /// Add this client's share of every relation's expected content.
    fn expected(&self, into: &mut Expected);
}

// ----- kv: the point-operation shape ---------------------------------------

/// Preloaded `kv` rows per client (10 000 in all with two clients).
pub const KV_PRELOAD: usize = 5_000;
/// `v` is uniform in `0..KV_VALUES`; the audit rule takes the top tenth.
pub const KV_VALUES: u64 = 1_000;
pub const KV_AUDIT_FROM: i64 = 900;

pub fn kv_schema() -> Vec<String> {
    vec![
        "create kv (k = int, v = int)".into(),
        "create audit (k = int, v = int)".into(),
        "define index on kv (k) using hash".into(),
    ]
}

pub fn kv_rules() -> Vec<String> {
    vec![format!(
        "define rule audit_big if kv.v >= {KV_AUDIT_FROM} then append to audit (k = kv.k, v = kv.v)"
    )]
}

/// Interval the kv rule registers in the selection network.
pub fn kv_bands() -> Vec<Interval<Value>> {
    vec![Interval::at_least(KV_AUDIT_FROM.into(), true)]
}

#[derive(Clone, Copy)]
enum KvOp {
    Append,
    Delete,
    Replace,
    Retrieve,
}

/// 30 % append, 30 % delete, 20 % replace, 20 % retrieve, in a freshly
/// shuffled order every ten requests.
const KV_CYCLE: [KvOp; 10] = [
    KvOp::Append,
    KvOp::Append,
    KvOp::Append,
    KvOp::Delete,
    KvOp::Delete,
    KvOp::Delete,
    KvOp::Replace,
    KvOp::Replace,
    KvOp::Retrieve,
    KvOp::Retrieve,
];

pub struct KvGen {
    rng: Rng,
    next_k: i64,
    /// Live `(k, v)`, oldest first; deletes take the oldest.
    live: VecDeque<(i64, i64)>,
    kv: RelDigest,
    audit: RelDigest,
}

impl KvGen {
    /// The generator for `client` plus the commands that preload its rows.
    /// Preloaded rows at or above the audit threshold are expected in
    /// `audit`: the rule is activated over them and fired once in set-up.
    pub fn new(seed: u64, client: u64) -> (KvGen, Vec<String>) {
        let mut g = KvGen {
            rng: Rng::stream(seed, client),
            next_k: client as i64 * 1_000_000_000,
            live: VecDeque::with_capacity(KV_PRELOAD + 8),
            kv: RelDigest::default(),
            audit: RelDigest::default(),
        };
        let preload = (0..KV_PRELOAD).map(|_| g.append()).collect();
        (g, preload)
    }

    fn append(&mut self) -> String {
        let (k, v) = (self.next_k, self.rng.below(KV_VALUES) as i64);
        self.next_k += 1;
        self.live.push_back((k, v));
        self.kv.add(&[k, v]);
        self.audited(k, v);
        format!("append kv (k = {k}, v = {v})")
    }

    /// A row that newly satisfies the rule condition is written to `audit`.
    fn audited(&mut self, k: i64, v: i64) {
        if v >= KV_AUDIT_FROM {
            self.audit.add(&[k, v]);
        }
    }

    fn pick(&mut self) -> usize {
        self.rng.below(self.live.len() as u64) as usize
    }
}

impl Generator for KvGen {
    fn next_cycle(&mut self, out: &mut Vec<Request>) {
        let mut ops = KV_CYCLE;
        self.rng.shuffle(&mut ops);
        for op in ops {
            out.push(match op {
                KvOp::Append => {
                    let text = self.append();
                    let v = self.live.back().expect("just appended").1;
                    Request {
                        text,
                        changes: 1,
                        cell: None,
                        probes: vec![v],
                    }
                }
                KvOp::Delete => {
                    let (k, v) = self
                        .live
                        .pop_front()
                        .expect("preloaded rows outnumber a cycle");
                    self.kv.remove(&[k, v]);
                    Request {
                        text: format!("delete kv where kv.k = {k}"),
                        changes: 1,
                        cell: None,
                        probes: vec![],
                    }
                }
                KvOp::Replace => {
                    let i = self.pick();
                    let (k, old) = self.live[i];
                    let v = self.rng.below(KV_VALUES) as i64;
                    self.live[i].1 = v;
                    self.kv.remove(&[k, old]);
                    self.kv.add(&[k, v]);
                    // the replaced tuple is a new instantiation whether or
                    // not the old value matched too
                    self.audited(k, v);
                    Request {
                        text: format!("replace kv (v = {v}) where kv.k = {k}"),
                        changes: 1,
                        cell: None,
                        probes: vec![v],
                    }
                }
                KvOp::Retrieve => {
                    let i = self.pick();
                    let (k, v) = self.live[i];
                    Request {
                        text: format!("retrieve (kv.v) where kv.k = {k}"),
                        changes: 0,
                        cell: Some(v),
                        probes: vec![],
                    }
                }
            });
        }
    }

    fn expected(&self, into: &mut Expected) {
        merge_into(into, "kv", &self.kv);
        merge_into(into, "audit", &self.audit);
    }
}

// ----- emp/dept/job: the rule-heavy shapes ---------------------------------

/// Rules per rule-heavy workload (the paper's Figs. 9–11 go to 200).
pub const RULES: usize = 200;
/// Rule `i` takes `i·STEP < emp.sal <= i·STEP + WIDTH`; with salaries drawn
/// from `WIDTH..=RULES·STEP` every salary lies in exactly `WIDTH/STEP` bands.
pub const BAND_STEP: i64 = 100;
pub const BAND_WIDTH: i64 = 1_000;
pub const EMP_PRELOAD: usize = 1_000;
pub const DEPTS_PER_CLIENT: i64 = 25;
pub const JOBS: i64 = 20;
/// `dept.floor` and `job.grade` are uniform in `0..SELECT_VALUES`, and each
/// join rule names one value of each: one band match in 256 joins, which
/// keeps the join shape under one firing per request.
pub const SELECT_VALUES: u64 = 16;
/// The fan-out shape's second-level rule watches this rule's log rows.
pub const CASCADE_RULE: i64 = 100;

fn band(i: usize) -> (i64, i64) {
    let lo = i as i64 * BAND_STEP;
    (lo, lo + BAND_WIDTH)
}

/// Intervals the rule bands register in the selection network.
pub fn emp_bands() -> Vec<Interval<Value>> {
    (0..RULES)
        .map(band)
        .map(|(lo, hi)| Interval::open_closed(lo.into(), hi.into()).expect("lo < hi"))
        .collect()
}

/// What the two rule-heavy workloads share and where they differ.
pub struct EmpShape {
    /// `emp` appends (or deletes) per request: 1 sends plain commands, more
    /// sends a `do … end` block.
    pub group: usize,
    /// `Some` = three-variable join rules; `None` = one-variable band rules
    /// plus the cascade rule.
    pub join: Option<JoinShape>,
}

/// Seed-determined constants of the join rules and the read-only `job` rows.
pub struct JoinShape {
    rule_floor: Vec<i64>,
    rule_grade: Vec<i64>,
    job_grade: Vec<i64>,
}

impl EmpShape {
    /// `act.fanout`: single commands against 200 one-variable band rules.
    pub fn fanout() -> EmpShape {
        EmpShape {
            group: 1,
            join: None,
        }
    }

    /// `match.*`: blocks of eight against 200 three-variable join rules.
    pub fn join_churn(seed: u64) -> EmpShape {
        let mut rng = Rng::stream(seed, u64::MAX);
        let mut draw =
            |n: i64| -> Vec<i64> { (0..n).map(|_| rng.below(SELECT_VALUES) as i64).collect() };
        EmpShape {
            group: 8,
            join: Some(JoinShape {
                rule_floor: draw(RULES as i64),
                rule_grade: draw(RULES as i64),
                job_grade: draw(JOBS),
            }),
        }
    }

    pub fn schema(&self) -> Vec<String> {
        let mut s: Vec<String> = vec![
            "create emp (eno = int, sal = int, dno = int, jno = int)".into(),
            "create dept (dno = int, floor = int)".into(),
            "create job (jno = int, grade = int)".into(),
            "create bench_log (eno = int, rule = int)".into(),
            "create cascade_log (eno = int)".into(),
            "define index on emp (eno) using hash".into(),
        ];
        if self.join.is_some() {
            for (rel, attr) in [
                ("emp", "dno"),
                ("emp", "jno"),
                ("dept", "dno"),
                ("job", "jno"),
            ] {
                s.push(format!("define index on {rel} ({attr}) using hash"));
            }
        }
        s
    }

    /// Commands loading the rows no client owns (`job` is read-only).
    pub fn preload(&self) -> Vec<String> {
        self.join
            .iter()
            .flat_map(|j| j.job_grade.iter().enumerate())
            .map(|(jno, grade)| format!("append job (jno = {jno}, grade = {grade})"))
            .collect()
    }

    pub fn rules(&self) -> Vec<String> {
        let mut rules: Vec<String> = (0..RULES)
            .map(|i| {
                let (lo, hi) = band(i);
                let mut cond = format!("{lo} < emp.sal and emp.sal <= {hi}");
                if let Some(j) = &self.join {
                    cond.push_str(&format!(
                        " and emp.dno = dept.dno and dept.floor = {} \
                         and emp.jno = job.jno and job.grade = {}",
                        j.rule_floor[i], j.rule_grade[i]
                    ));
                }
                format!(
                    "define rule band_{i} if {cond} \
                     then append to bench_log (eno = emp.eno, rule = {i})"
                )
            })
            .collect();
        if self.join.is_none() {
            rules.push(format!(
                "define rule cascade if bench_log.rule = {CASCADE_RULE} \
                 then append to cascade_log (eno = bench_log.eno)"
            ));
        }
        rules
    }

    /// Digest of the rows [`EmpShape::preload`] loads.
    pub fn expected(&self, into: &mut Expected) {
        let mut job = RelDigest::default();
        if let Some(j) = &self.join {
            for (jno, grade) in j.job_grade.iter().enumerate() {
                job.add(&[jno as i64, *grade]);
            }
        }
        merge_into(into, "job", &job);
    }
}

#[derive(Debug, Clone, Copy)]
struct Emp {
    eno: i64,
    sal: i64,
    dno: i64,
    jno: i64,
}

pub struct EmpGen {
    rng: Rng,
    shape: Arc<EmpShape>,
    next_eno: i64,
    /// First `dno` this client owns; its emps reference only its own depts.
    dept_base: i64,
    /// Current `floor` of each owned dept.
    floors: Vec<i64>,
    /// Live emps, oldest first; deletes take the oldest.
    live: VecDeque<Emp>,
    cycle: u64,
    emp: RelDigest,
    dept: RelDigest,
    log: RelDigest,
    cascade: RelDigest,
}

impl EmpGen {
    /// The generator for `client` plus the commands that preload its rows.
    /// Every instantiation the preloaded rows form is expected in
    /// `bench_log`: the rules are activated over them and fired in set-up.
    pub fn new(seed: u64, client: u64, shape: Arc<EmpShape>) -> (EmpGen, Vec<String>) {
        let mut rng = Rng::stream(seed, client);
        let dept_base = client as i64 * DEPTS_PER_CLIENT;
        let floors: Vec<i64> = (0..DEPTS_PER_CLIENT)
            .map(|_| rng.below(SELECT_VALUES) as i64)
            .collect();
        let mut g = EmpGen {
            rng,
            shape,
            next_eno: client as i64 * 1_000_000_000,
            dept_base,
            floors,
            live: VecDeque::with_capacity(EMP_PRELOAD + 8),
            cycle: 0,
            emp: RelDigest::default(),
            dept: RelDigest::default(),
            log: RelDigest::default(),
            cascade: RelDigest::default(),
        };
        let mut preload = Vec::with_capacity(EMP_PRELOAD + DEPTS_PER_CLIENT as usize);
        if g.shape.join.is_some() {
            for (i, floor) in g.floors.iter().enumerate() {
                let dno = dept_base + i as i64;
                g.dept.add(&[dno, *floor]);
                preload.push(format!("append dept (dno = {dno}, floor = {floor})"));
            }
        }
        preload.extend((0..EMP_PRELOAD).map(|_| g.append().0));
        (g, preload)
    }

    /// Account for the rule actions `e` triggers with its dept on `floor`.
    fn log_firings(&mut self, e: &Emp, floor: i64) {
        for i in 0..RULES {
            let (lo, hi) = band(i);
            let joins = match &self.shape.join {
                Some(j) => {
                    j.rule_floor[i] == floor && j.rule_grade[i] == j.job_grade[e.jno as usize]
                }
                None => true,
            };
            if lo < e.sal && e.sal <= hi && joins {
                self.log.add(&[e.eno, i as i64]);
                if self.shape.join.is_none() && i as i64 == CASCADE_RULE {
                    self.cascade.add(&[e.eno]);
                }
            }
        }
    }

    fn append(&mut self) -> (String, i64) {
        let e = Emp {
            eno: self.next_eno,
            sal: self.rng.range(BAND_WIDTH, RULES as i64 * BAND_STEP),
            dno: self.dept_base + self.rng.below(DEPTS_PER_CLIENT as u64) as i64,
            jno: self.rng.below(JOBS as u64) as i64,
        };
        self.next_eno += 1;
        self.live.push_back(e);
        self.emp.add(&[e.eno, e.sal, e.dno, e.jno]);
        self.log_firings(&e, self.floors[(e.dno - self.dept_base) as usize]);
        (
            format!(
                "append emp (eno = {}, sal = {}, dno = {}, jno = {})",
                e.eno, e.sal, e.dno, e.jno
            ),
            e.sal,
        )
    }

    fn delete(&mut self) -> (String, i64) {
        let e = self
            .live
            .pop_front()
            .expect("preloaded rows outnumber a cycle");
        self.emp.remove(&[e.eno, e.sal, e.dno, e.jno]);
        (format!("delete emp where emp.eno = {}", e.eno), e.sal)
    }

    /// Move one owned dept to a fresh floor. Every live emp of that dept
    /// then forms new instantiations with the replaced tuple — the token
    /// joins *into* the emp memories.
    fn replace_dept(&mut self) -> String {
        let i = self.rng.below(DEPTS_PER_CLIENT as u64) as usize;
        let (dno, old) = (self.dept_base + i as i64, self.floors[i]);
        let floor = self.rng.below(SELECT_VALUES) as i64;
        self.floors[i] = floor;
        self.dept.remove(&[dno, old]);
        self.dept.add(&[dno, floor]);
        let moved: Vec<Emp> = self.live.iter().filter(|e| e.dno == dno).copied().collect();
        for e in &moved {
            self.log_firings(e, floor);
        }
        format!("replace dept (floor = {floor}) where dept.dno = {dno}")
    }

    fn request(cmds: Vec<String>, probes: Vec<i64>) -> Request {
        let changes = cmds.len() as u32;
        let text = if cmds.len() == 1 {
            cmds.into_iter().next().expect("one command")
        } else {
            format!("do {} end", cmds.join(" "))
        };
        Request {
            text,
            changes,
            cell: None,
            probes,
        }
    }
}

impl Generator for EmpGen {
    /// One request of appends, then one of deletes. On the join shape every
    /// second append request (every fourth request) leads with a `replace
    /// dept`, before the appends so that all matches of the transition are
    /// additive, and never beside deletes, which would retract them.
    fn next_cycle(&mut self, out: &mut Vec<Request>) {
        let group = self.shape.group;
        let (mut cmds, mut probes) = (Vec::with_capacity(group + 1), Vec::with_capacity(group));
        if self.shape.join.is_some() && self.cycle % 2 == 1 {
            cmds.push(self.replace_dept());
        }
        for _ in 0..group {
            let (text, sal) = self.append();
            cmds.push(text);
            probes.push(sal);
        }
        out.push(Self::request(cmds, probes));
        let (cmds, probes) = (0..group).map(|_| self.delete()).unzip();
        out.push(Self::request(cmds, probes));
        self.cycle += 1;
    }

    fn expected(&self, into: &mut Expected) {
        merge_into(into, "emp", &self.emp);
        merge_into(into, "dept", &self.dept);
        merge_into(into, "bench_log", &self.log);
        merge_into(into, "cascade_log", &self.cascade);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(g: &mut dyn Generator, cycles: usize) -> Vec<Request> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            g.next_cycle(&mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_requests_and_clients_differ() {
        let shape = Arc::new(EmpShape::join_churn(5));
        let (mut a, pa) = EmpGen::new(5, 0, shape.clone());
        let (mut b, pb) = EmpGen::new(5, 0, shape.clone());
        let (mut c, _) = EmpGen::new(5, 1, shape);
        assert_eq!(pa, pb);
        let ra = texts(&mut a, 50);
        assert_eq!(ra, texts(&mut b, 50));
        assert_ne!(ra, texts(&mut c, 50));

        let (mut a, pa) = KvGen::new(5, 0);
        let (mut b, pb) = KvGen::new(5, 0);
        let (mut c, _) = KvGen::new(6, 0);
        assert_eq!(pa, pb);
        let ra = texts(&mut a, 50);
        assert_eq!(ra, texts(&mut b, 50));
        assert_ne!(ra, texts(&mut c, 50));
    }

    #[test]
    fn live_rows_are_constant_over_a_cycle() {
        let (mut kv, _) = KvGen::new(3, 1);
        let (mut fan, _) = EmpGen::new(3, 1, Arc::new(EmpShape::fanout()));
        let (mut join, _) = EmpGen::new(3, 1, Arc::new(EmpShape::join_churn(3)));
        let gens: [(&mut dyn Generator, usize); 3] = [
            (&mut kv, KV_PRELOAD),
            (&mut fan, EMP_PRELOAD),
            (&mut join, EMP_PRELOAD),
        ];
        for (g, preload) in gens {
            let churned = if preload == KV_PRELOAD { "kv" } else { "emp" };
            for _ in 0..300 {
                g.next_cycle(&mut Vec::new());
                let mut e = Expected::new();
                g.expected(&mut e);
                assert_eq!(e[churned].rows, preload as u64);
            }
        }
    }

    #[test]
    fn every_salary_lies_in_exactly_ten_bands() {
        let (mut fan, _) = EmpGen::new(9, 0, Arc::new(EmpShape::fanout()));
        let before = fan.log.rows;
        let mut out = Vec::new();
        for _ in 0..500 {
            fan.next_cycle(&mut out);
        }
        assert_eq!(fan.log.rows - before, 500 * (BAND_WIDTH / BAND_STEP) as u64);
        for sal in [BAND_WIDTH, RULES as i64 * BAND_STEP] {
            let hits = (0..RULES).filter(|&i| band(i).0 < sal && sal <= band(i).1);
            assert_eq!(hits.count(), 10);
        }
    }

    #[test]
    fn digest_is_order_independent_and_add_remove_cancel() {
        let mut a = RelDigest::default();
        let mut b = RelDigest::default();
        a.add(&[1, 2]);
        a.add(&[3, 4]);
        b.add(&[3, 4]);
        b.add(&[9, 9]);
        b.add(&[1, 2]);
        b.remove(&[9, 9]);
        assert_eq!(a, b);
        b.add(&[2, 1]);
        b.remove(&[1, 2]);
        assert_ne!(a, b);
    }
}
