//! Dataset placement: every dataset lives whole on a digest home worker.
//!
//! Each `--data` dataset gets one *home* worker (plus `replicas`
//! successors), picked by an FNV-1a digest of the dataset name so
//! placement is stable across restarts and independent of the order
//! `--data` flags appear in. The gateway never parses a dataset itself:
//! workers load the CSVs, and the gateway only records who holds what.
//!
//! Every worker must end up with at least one `--data` spec (the worker
//! binary refuses to start empty), so workers the digest left bare are
//! topped up with every dataset, which makes them spare holders.

use deptree_core::DeptreeError;
use std::collections::BTreeMap;

/// One `--data` entry as the gateway CLI parsed it.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name exposed to clients.
    pub name: String,
    /// CSV path on disk.
    pub path: String,
    /// Optional `c,t,n` column-type spec (default: all categorical).
    pub types: Option<String>,
}

/// The computed placement: who holds what.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Dataset → ordered holders (home first, then replicas, then
    /// topped-up spares).
    pub homes: BTreeMap<String, Vec<usize>>,
    /// Per-worker `name=path[:types]` specs for the worker command line.
    pub worker_specs: Vec<Vec<String>>,
}

/// 64-bit FNV-1a over the dataset name: a stable, dependency-free digest
/// for home assignment.
pub(crate) fn fnv1a64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn render_spec(spec: &DatasetSpec) -> String {
    match &spec.types {
        Some(t) => format!("{}={}:{t}", spec.name, spec.path),
        None => format!("{}={}", spec.name, spec.path),
    }
}

/// Compute the placement.
pub(crate) fn build_plan(
    datasets: &[DatasetSpec],
    workers: usize,
    replicas: usize,
) -> Result<Plan, DeptreeError> {
    if datasets.is_empty() {
        return Err(DeptreeError::InvalidConfig(
            "gateway needs at least one --data name=path[:types]".into(),
        ));
    }
    let workers = workers.max(1);
    let mut plan = Plan {
        homes: BTreeMap::new(),
        worker_specs: vec![Vec::new(); workers],
    };
    for spec in datasets {
        if plan.homes.contains_key(&spec.name) {
            return Err(DeptreeError::InvalidConfig(format!(
                "duplicate dataset name `{}`",
                spec.name
            )));
        }
        let home = (fnv1a64(&spec.name) % workers as u64) as usize;
        let mut holders = Vec::new();
        for k in 0..=replicas.min(workers - 1) {
            let w = (home + k) % workers;
            holders.push(w);
            plan.worker_specs[w].push(render_spec(spec));
        }
        plan.homes.insert(spec.name.clone(), holders);
    }
    // Top up workers the digest left bare: the worker binary refuses to
    // start with zero --data specs.
    for w in 0..workers {
        if !plan.worker_specs[w].is_empty() {
            continue;
        }
        for spec in datasets {
            plan.worker_specs[w].push(render_spec(spec));
            if let Some(holders) = plan.homes.get_mut(&spec.name) {
                holders.push(w);
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> DatasetSpec {
        DatasetSpec {
            name: name.into(),
            path: format!("{name}.csv"),
            types: None,
        }
    }

    #[test]
    fn digest_is_stable_and_spreads() {
        assert_eq!(fnv1a64("hotels"), fnv1a64("hotels"));
        assert_ne!(fnv1a64("hotels"), fnv1a64("flights"));
    }

    #[test]
    fn datasets_live_whole_on_home_replicas_and_topped_up_spares() {
        let plan = build_plan(&[spec("small")], 3, 1).unwrap();
        let holders = &plan.homes["small"];
        let home = (fnv1a64("small") % 3) as usize;
        // Home first, then its successor replica, then the bare worker
        // topped up as a spare: every worker holds the whole dataset.
        assert_eq!(&holders[..2], &[home, (home + 1) % 3]);
        assert_eq!(holders.len(), 3);
        for w in holders {
            assert_eq!(plan.worker_specs[*w], vec!["small=small.csv".to_owned()]);
        }
        // Replica counts never exceed the worker pool.
        let plan = build_plan(&[spec("small")], 2, 5).unwrap();
        assert_eq!(plan.homes["small"].len(), 2, "capped at the worker count");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err = build_plan(&[spec("x"), spec("x")], 2, 0).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }
}
