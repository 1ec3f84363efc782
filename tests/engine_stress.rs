//! Engine-level stress: long deterministic pseudo-random workloads mixing
//! DDL, rule lifecycle and DML must never panic, never corrupt state, and
//! keep engine invariants (catalog/network consistency, monotone stats).

use ariel::network::VirtualPolicy;
use ariel::{Ariel, EngineOptions};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn stress(seed: u64, steps: usize, policy: VirtualPolicy) {
    let mut db = Ariel::with_options(EngineOptions {
        virtual_policy: policy,
        max_firings: 200,
        ..Default::default()
    });
    db.execute(
        "create a (x = int, y = int); create b (y = int, z = int); \
         create log (x = int)",
    )
    .unwrap();
    let mut rng = Rng(seed | 1);
    let mut rules = 0usize;
    for step in 0..steps {
        let r = rng.below(100);
        let result = match r {
            // DML (most common)
            0..=39 => db.execute(&format!(
                "append a (x = {}, y = {})",
                rng.below(50),
                rng.below(8)
            )),
            40..=54 => db.execute(&format!(
                "append b (y = {}, z = {})",
                rng.below(8),
                rng.below(50)
            )),
            55..=69 => db.execute(&format!(
                "replace a (x = {}) where a.y = {}",
                rng.below(50),
                rng.below(8)
            )),
            70..=79 => db.execute(&format!("delete a where a.x = {}", rng.below(50))),
            // blocks
            80..=84 => db.execute(&format!(
                "do append a (x = {}, y = {}) \
                    replace a (x = a.x + 1) where a.y = {} \
                 end",
                rng.below(50),
                rng.below(8),
                rng.below(8)
            )),
            // rule lifecycle
            85..=92 => {
                rules += 1;
                let name = format!("r{rules}");
                let kind = rng.below(4);
                let src = match kind {
                    0 => format!(
                        "define rule {name} if a.x > {} then append to log(x = a.x)",
                        20 + rng.below(30)
                    ),
                    1 => format!(
                        "define rule {name} on append a if a.y = b.y and b.z < {} \
                         then append to log(x = a.x)",
                        rng.below(50)
                    ),
                    2 => format!(
                        "define rule {name} if a.x > 2 * previous a.x \
                         then append to log(x = a.x)"
                    ),
                    _ => format!("define rule {name} on delete a then notify gone (x = a.x)"),
                };
                db.execute(&src)
            }
            93..=95 => {
                if rules == 0 {
                    continue;
                }
                let pick = 1 + rng.below(rules as u64);
                db.execute(&format!("deactivate rule r{pick}"))
            }
            96..=97 => {
                if rules == 0 {
                    continue;
                }
                let pick = 1 + rng.below(rules as u64);
                db.execute(&format!("activate rule r{pick}"))
            }
            _ => {
                if rules == 0 {
                    continue;
                }
                let pick = 1 + rng.below(rules as u64);
                db.execute(&format!("destroy rule r{pick}"))
            }
        };
        // lifecycle races (already active / unknown rule) are expected;
        // anything must be an Err, never a panic
        let _ = result;
        if step % 25 == 0 {
            // invariants: queries still work, stats are sane
            let out = db.query("retrieve (a.all)").unwrap();
            let live = db.catalog().get("a").unwrap().len();
            assert_eq!(out.rows.len(), live, "query/catalog divergence at {step}");
            let n = db.network_stats();
            assert!(n.rules <= db.rules().len());
        }
    }
    // final sanity: engine still fully operational
    db.execute("append a (x = 999, y = 0)").unwrap();
    let out = db.query("retrieve (a.x) where a.x = 999").unwrap();
    assert_eq!(out.rows.len(), 1);
    db.drain_notifications();
}

#[test]
fn stress_all_stored() {
    stress(0xA11CE, 400, VirtualPolicy::AllStored);
}

#[test]
fn stress_all_virtual() {
    stress(0xB0B, 400, VirtualPolicy::AllVirtual);
}

#[test]
fn stress_threshold() {
    stress(0xC0FFEE, 400, VirtualPolicy::SelectivityThreshold(0.5));
}

#[test]
fn stress_with_plan_cache() {
    let mut db = Ariel::with_options(EngineOptions {
        max_firings: 200,
        ..Default::default()
    });
    db.execute("create a (x = int, y = int); create log (x = int)")
        .unwrap();
    db.execute("define rule r on append a then append to log(x = a.x)")
        .unwrap();
    let mut rng = Rng(0xDEED);
    let mut reactivations = 0;
    for _ in 0..200 {
        db.execute(&format!("append a (x = {}, y = 0)", rng.below(100)))
            .unwrap();
        if rng.below(10) == 0 {
            // deactivate/reactivate drops the prepared action
            db.execute("deactivate rule r").unwrap();
            db.execute("activate rule r").unwrap();
            reactivations += 1;
        }
    }
    let logged = db.query("retrieve (log.all)").unwrap().rows.len();
    assert_eq!(logged, 200);
    // one preparation per activation that fired, never a re-plan: the
    // action reads only the P-node
    let s = db.stats();
    assert!(s.action_prepares <= 1 + reactivations, "{s:?}");
    assert!(s.action_prepares > 1, "{s:?}");
    assert_eq!(s.action_replans, 0, "{s:?}");
}
