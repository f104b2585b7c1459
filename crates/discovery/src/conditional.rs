//! Condition mining shared by the conditional extensions (CDDs, CMDs):
//! frequent categorical constants select the subsets conditional rules
//! bind to, and a rule is *interesting* only when its unconditioned form
//! fails globally.

use deptree_core::{Cdd, Cmd, Condition, Dependency, Md};
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation, StrippedPartition, Value, ValueType};

/// Frequent `(attribute, constant)` conditions over categorical/text
/// attributes, with at least `min_support` matching rows.
pub fn frequent_conditions(r: &Relation, min_support: usize) -> Vec<(AttrId, Value)> {
    let mut out = Vec::new();
    for (id, attr) in r.schema().iter() {
        if attr.ty == ValueType::Numeric {
            continue;
        }
        for rows in StrippedPartition::from_column(r, id).into_groups() {
            if rows.len() >= min_support {
                out.push((id, r.value(rows[0], id).clone()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

/// Configuration for the conditional discoveries.
#[derive(Debug, Clone)]
pub struct ConditionalConfig {
    /// Minimum rows a condition must cover.
    pub min_support: usize,
    /// Candidate distance thresholds per attribute.
    pub thresholds_per_attr: usize,
}

impl Default for ConditionalConfig {
    fn default() -> Self {
        ConditionalConfig {
            min_support: 2,
            thresholds_per_attr: 3,
        }
    }
}

/// CDD discovery (Kwashie et al., §3.3.5): for each frequent condition,
/// find single-atom DDs that hold *within* the conditioned subset but not
/// globally, and bind them to the condition.
pub fn discover_cdds(r: &Relation, cfg: &ConditionalConfig) -> Vec<Cdd> {
    let mut out = Vec::new();
    for (cond_attr, value) in frequent_conditions(r, cfg.min_support) {
        let condition = Condition::always().and(cond_attr, value);
        let subset_rows: Vec<usize> = (0..r.n_rows())
            .filter(|&row| condition.matches(r, row))
            .collect();
        if subset_rows.len() < cfg.min_support || subset_rows.len() == r.n_rows() {
            continue;
        }
        let subset = r.select_rows(&subset_rows);
        let dd_cfg = crate::dd::DdConfig {
            thresholds_per_attr: cfg.thresholds_per_attr,
            min_support: 1,
            max_lhs: 1,
        };
        for dd in crate::dd::discover(&subset, &dd_cfg) {
            // Interesting only when the DD fails on the full relation
            // (otherwise the unconditioned DD suffices), and the condition
            // attribute itself appears on neither side (rules *about* the
            // condition column are vacuous inside its scope).
            if dd.holds(r)
                || dd.lhs().iter().any(|a| a.attr == cond_attr)
                || dd.rhs().iter().any(|a| a.attr == cond_attr)
            {
                continue;
            }
            let cdd = Cdd::new(r.schema(), condition.clone(), dd);
            debug_assert!(cdd.holds(r), "{cdd}");
            out.push(cdd);
        }
    }
    out
}

/// CMD discovery (Wang et al., §3.7.5): conditions under which a matching
/// rule reaches full confidence that it lacks globally.
pub fn discover_cmds(r: &Relation, rhs: AttrSet, cfg: &ConditionalConfig) -> Vec<Cmd> {
    let schema = r.schema();
    let mut out = Vec::new();
    for (cond_attr, value) in frequent_conditions(r, cfg.min_support) {
        if rhs.contains(cond_attr) {
            continue;
        }
        let condition = Condition::always().and(cond_attr, value);
        let rows: Vec<usize> = (0..r.n_rows())
            .filter(|&row| condition.matches(r, row))
            .collect();
        if rows.len() < cfg.min_support || rows.len() == r.n_rows() {
            continue;
        }
        for lhs_attr in schema.ids() {
            if lhs_attr == cond_attr || rhs.contains(lhs_attr) {
                continue;
            }
            let metric = Metric::default_for(schema.ty(lhs_attr));
            for t in crate::dd::candidate_thresholds(r, lhs_attr, &metric, cfg.thresholds_per_attr)
            {
                let md = Md::new(schema, vec![(lhs_attr, metric.clone(), t)], rhs);
                if md.holds(r) {
                    continue; // unconditioned MD suffices
                }
                let cmd = Cmd::new(schema, condition.clone(), md);
                if cmd.holds(r) {
                    out.push(cmd);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_metrics::DistRange;
    use deptree_relation::examples::hotels_r6;

    #[test]
    fn frequent_conditions_respect_support() {
        let r = hotels_r6();
        let s = r.schema();
        let conds = frequent_conditions(&r, 2);
        // source s1 (3 rows), source s2 (3 rows), name NC (3), street
        // "12th St." (2), region "San Jose" (3), zip 95102 (3), New York ×2…
        assert!(conds.contains(&(s.id("source"), Value::str("s1"))));
        assert!(conds.contains(&(s.id("region"), Value::str("San Jose"))));
        // Singleton values excluded.
        assert!(!conds.contains(&(s.id("name"), Value::str("WD"))));
    }

    #[test]
    fn discovered_cdds_hold_and_add_value() {
        let r = hotels_r6();
        let found = discover_cdds(&r, &ConditionalConfig::default());
        for cdd in &found {
            assert!(cdd.holds(&r), "{cdd}");
            // The embedded DD must fail globally (value-add criterion).
            assert!(!cdd.dd().holds(&r), "{cdd} adds nothing");
            assert!(!cdd.condition().is_always());
        }
    }

    #[test]
    fn discovered_cmds_recover_the_source_condition() {
        // name≈0 → zip fails globally on r6 (NC spans two regions) but
        // holds within source s2: a CMD with that condition must surface.
        let r = hotels_r6();
        let s = r.schema();
        let found = discover_cmds(
            &r,
            AttrSet::single(s.id("zip")),
            &ConditionalConfig::default(),
        );
        for cmd in &found {
            assert!(cmd.holds(&r), "{cmd}");
            assert!(!cmd.md().holds(&r), "{cmd} adds nothing");
        }
        assert!(
            found.iter().any(|cmd| {
                cmd.condition().atoms() == [(s.id("source"), Value::str("s2"))]
                    && cmd.md().lhs().iter().any(|(a, _, _)| *a == s.id("name"))
            }),
            "{:?}",
            found.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cdd_respects_distrange_semantics() {
        // Smoke: the returned CDDs carry ≤-ranges produced by DD discovery.
        let r = hotels_r6();
        for cdd in discover_cdds(&r, &ConditionalConfig::default())
            .iter()
            .take(5)
        {
            for atom in cdd.dd().lhs() {
                assert!(atom.range.implies(&DistRange::any()));
            }
        }
    }
}
