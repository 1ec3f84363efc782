//! The rule catalog: persistent home of installed rule definitions (§3).

use crate::error::{ArielError, ArielResult};
use crate::rule::Rule;
use ariel_network::RuleId;
use ariel_query::RuleDef;
use std::collections::{BTreeMap, HashMap};

/// Named collection of installed rules.
#[derive(Debug, Default)]
pub struct RuleCatalog {
    rules: BTreeMap<String, Rule>,
    /// Network id → rule name, kept by `install` / `restore` / `remove`.
    names_by_id: HashMap<u64, String>,
    next_id: u64,
}

impl RuleCatalog {
    /// New empty catalog.
    pub fn new() -> Self {
        RuleCatalog::default()
    }

    /// Install a rule definition (store its syntax tree). Errors on a
    /// duplicate name.
    pub fn install(&mut self, def: RuleDef) -> ArielResult<RuleId> {
        if self.rules.contains_key(&def.name) {
            return Err(ArielError::DuplicateRule(def.name));
        }
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.insert(Rule::new(id, def));
        Ok(id)
    }

    fn insert(&mut self, rule: Rule) {
        self.names_by_id.insert(rule.id.0, rule.name.clone());
        self.rules.insert(rule.name.clone(), rule);
    }

    /// Re-install a rule under its snapshotted id (the crash-recovery
    /// path). Errors on a duplicate name or a duplicate id; bumps the id
    /// counter past `id` so later installs never collide with restored
    /// rules (dropped rules leave gaps in the id space, which a snapshot
    /// preserves).
    pub fn restore(&mut self, def: RuleDef, id: RuleId) -> ArielResult<()> {
        if self.rules.contains_key(&def.name) {
            return Err(ArielError::DuplicateRule(def.name));
        }
        if self.names_by_id.contains_key(&id.0) {
            return Err(ArielError::Persist(format!(
                "duplicate rule id {} in snapshot",
                id.0
            )));
        }
        self.insert(Rule::new(id, def));
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(())
    }

    /// The id the next [`RuleCatalog::install`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Raise the id counter to at least `next_id` (snapshot restore; never
    /// lowers it).
    pub fn set_next_id(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Remove a rule by name, returning it.
    pub fn remove(&mut self, name: &str) -> ArielResult<Rule> {
        let rule = self
            .rules
            .remove(name)
            .ok_or_else(|| ArielError::UnknownRule(name.to_string()))?;
        self.names_by_id.remove(&rule.id.0);
        Ok(rule)
    }

    /// Look up a rule by name.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.rules.get(name)
    }

    /// Mutable lookup by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Rule> {
        self.rules.get_mut(name)
    }

    /// Lookup by name, or a typed error.
    pub fn require(&self, name: &str) -> ArielResult<&Rule> {
        self.get(name)
            .ok_or_else(|| ArielError::UnknownRule(name.to_string()))
    }

    /// Find the rule carrying a network id.
    pub fn by_id(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(self.names_by_id.get(&id.0)?)
    }

    /// All rules, ordered by name.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values()
    }

    /// Rules in a ruleset, ordered by name.
    pub fn in_ruleset<'a>(&'a self, ruleset: &'a str) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules.values().filter(move |r| r.ruleset == ruleset)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariel_query::{parse_command, Command};

    fn def(name: &str, ruleset: Option<&str>) -> RuleDef {
        let rs = ruleset.map(|r| format!("in {r} ")).unwrap_or_default();
        match parse_command(&format!("define rule {name} {rs}if emp.x > 1 then halt")).unwrap() {
            Command::DefineRule(d) => d,
            _ => unreachable!(),
        }
    }

    #[test]
    fn install_assigns_unique_ids() {
        let mut c = RuleCatalog::new();
        let a = c.install(def("a", None)).unwrap();
        let b = c.install(def("b", None)).unwrap();
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.by_id(a).unwrap().name, "a");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = RuleCatalog::new();
        c.install(def("a", None)).unwrap();
        assert!(matches!(
            c.install(def("a", None)),
            Err(ArielError::DuplicateRule(_))
        ));
    }

    #[test]
    fn remove_and_missing() {
        let mut c = RuleCatalog::new();
        c.install(def("a", None)).unwrap();
        assert!(c.remove("a").is_ok());
        assert!(matches!(c.remove("a"), Err(ArielError::UnknownRule(_))));
        assert!(c.require("a").is_err());
    }

    #[test]
    fn id_index_survives_install_remove_restore_with_gaps() {
        let mut c = RuleCatalog::new();
        let a = c.install(def("a", None)).unwrap();
        let b = c.install(def("b", None)).unwrap();
        let gone = c.remove("a").unwrap();
        assert_eq!(gone.id, a);
        assert!(c.by_id(a).is_none(), "removed id no longer resolves");
        assert_eq!(c.by_id(b).unwrap().name, "b");
        // a snapshot restores rules under their old ids, gaps included
        c.restore(def("far", None), RuleId(40)).unwrap();
        c.restore(def("a", None), a).unwrap();
        assert_eq!(c.by_id(RuleId(40)).unwrap().name, "far");
        assert_eq!(c.by_id(a).unwrap().name, "a");
        assert!(c.by_id(RuleId(7)).is_none(), "gap ids stay unresolved");
        assert!(matches!(
            c.restore(def("dup", None), RuleId(40)),
            Err(ArielError::Persist(_))
        ));
        assert!(c.by_id(RuleId(40)).is_some_and(|r| r.name == "far"));
        let next = c.install(def("next", None)).unwrap();
        assert_eq!(next, RuleId(41), "installs continue past restored ids");
        assert_eq!(c.by_id(next).unwrap().name, "next");
    }

    #[test]
    fn ruleset_filtering() {
        let mut c = RuleCatalog::new();
        c.install(def("a", Some("payroll"))).unwrap();
        c.install(def("b", None)).unwrap();
        c.install(def("c", Some("payroll"))).unwrap();
        let names: Vec<_> = c.in_ruleset("payroll").map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
        let names: Vec<_> = c
            .in_ruleset(crate::rule::DEFAULT_RULESET)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(names, vec!["b"]);
    }
}
