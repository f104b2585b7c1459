//! Duplicated entity records with representation variety — the workload
//! for matching-dependency deduplication experiments (§3.7, Table 3).

use crate::noise;
use crate::rng::Rng;
use deptree_relation::{Relation, RelationBuilder, Value, ValueType};

/// Configuration for [`generate`].
#[derive(Debug, Clone)]
pub struct EntitiesConfig {
    /// Number of distinct real-world entities.
    pub n_entities: usize,
    /// Maximum records per entity (each entity gets 1..=max, uniform).
    pub max_duplicates: usize,
    /// Probability that a duplicate's name/address/region is reformatted.
    pub variety: f64,
    /// Probability that a duplicate's numeric field is wrong (an error, not
    /// mere variety).
    pub error_rate: f64,
    /// RNG seed (pass to [`crate::rng()`]).
    pub seed: u64,
}

impl Default for EntitiesConfig {
    fn default() -> Self {
        EntitiesConfig {
            n_entities: 100,
            max_duplicates: 3,
            variety: 0.5,
            error_rate: 0.0,
            seed: 11,
        }
    }
}

/// Generated entity data with ground truth.
#[derive(Debug, Clone)]
pub struct EntityData {
    /// Schema: `name, address, region, zip, price` (Text/Text/Text/
    /// Categorical/Numeric).
    pub relation: Relation,
    /// `cluster[row]` = entity id the row truly denotes.
    pub cluster: Vec<usize>,
    /// Rows whose price was corrupted.
    pub dirty_rows: Vec<usize>,
}

const REGION_POOL: [&str; 8] = [
    "New York", "Boston", "Chicago", "San Jose", "El Paso", "Seattle", "Austin", "Denver",
];

const STREET_POOL: [&str; 6] = [
    "Central Park",
    "West Lake Road",
    "Fifth Avenue",
    "Jackson Street",
    "Gateway Boulevard",
    "Lombard Street",
];

/// Generate hotel-like entity records. Each entity has a canonical record;
/// duplicates re-render its text fields with [`noise::vary`].
pub fn generate(cfg: &EntitiesConfig, rng: &mut Rng) -> EntityData {
    let mut builder = RelationBuilder::new()
        .attr("name", ValueType::Text)
        .attr("address", ValueType::Text)
        .attr("region", ValueType::Text)
        .attr("zip", ValueType::Categorical)
        .attr("price", ValueType::Numeric);
    let mut cluster = Vec::new();
    let mut dirty_rows = Vec::new();
    let mut row = 0usize;
    for e in 0..cfg.n_entities {
        let name = format!("Hotel {} {}", REGION_POOL[e % REGION_POOL.len()], e);
        let address = format!("No.{}, {}", 1 + e % 97, STREET_POOL[e % STREET_POOL.len()]);
        let region = REGION_POOL[(e / REGION_POOL.len()) % REGION_POOL.len()];
        let zip = format!("{:05}", 10_000 + e * 13 % 89_999);
        let price = 100 + (e % 40) as i64 * 10;
        let copies = 1 + rng.random_range(0..cfg.max_duplicates);
        for c in 0..copies {
            let (mut n, mut a, mut g) = (name.clone(), address.clone(), region.to_owned());
            if c > 0 && rng.random::<f64>() < cfg.variety {
                n = noise::vary(&n, rng);
            }
            if c > 0 && rng.random::<f64>() < cfg.variety {
                a = noise::vary(&a, rng);
            }
            if c > 0 && rng.random::<f64>() < cfg.variety {
                g = noise::vary(&g, rng);
            }
            let mut p = price;
            if rng.random::<f64>() < cfg.error_rate {
                p += 500 + rng.random_range(0..500i64);
                dirty_rows.push(row);
            }
            builder = builder.row(vec![
                Value::str(n),
                Value::str(a),
                Value::str(g),
                Value::str(zip.clone()),
                Value::int(p),
            ]);
            cluster.push(e);
            row += 1;
        }
    }
    EntityData {
        relation: match builder.build() {
            Ok(r) => r,
            Err(e) => unreachable!("generator rows share one arity: {e}"),
        },
        cluster,
        dirty_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_metrics::string::levenshtein;

    #[test]
    fn clusters_cover_all_rows() {
        let cfg = EntitiesConfig::default();
        let data = generate(&cfg, &mut crate::rng(cfg.seed));
        assert_eq!(data.cluster.len(), data.relation.n_rows());
        let max = *data.cluster.iter().max().expect("non-empty");
        assert!(max < cfg.n_entities);
    }

    #[test]
    fn duplicates_stay_textually_close() {
        let cfg = EntitiesConfig {
            n_entities: 30,
            max_duplicates: 3,
            variety: 1.0,
            ..Default::default()
        };
        let data = generate(&cfg, &mut crate::rng(5));
        let name = data.relation.schema().id("name");
        // Within a cluster, names stay within small edit distance of each
        // other (variety, not different entities).
        for i in 0..data.relation.n_rows() {
            for j in (i + 1)..data.relation.n_rows() {
                if data.cluster[i] == data.cluster[j] {
                    let d = levenshtein(
                        &data.relation.value(i, name).render(),
                        &data.relation.value(j, name).render(),
                    );
                    assert!(d <= 14, "cluster variants too far apart: {d}");
                }
            }
        }
    }

    #[test]
    fn zips_identify_entities() {
        // Ground truth for MD street/region → zip style rules: rows of the
        // same cluster share a zip.
        let cfg = EntitiesConfig::default();
        let data = generate(&cfg, &mut crate::rng(cfg.seed));
        let zip = data.relation.schema().id("zip");
        for i in 0..data.relation.n_rows() {
            for j in (i + 1)..data.relation.n_rows() {
                if data.cluster[i] == data.cluster[j] {
                    assert_eq!(data.relation.value(i, zip), data.relation.value(j, zip));
                }
            }
        }
    }

    #[test]
    fn error_rate_marks_dirty_rows() {
        let cfg = EntitiesConfig {
            error_rate: 0.2,
            ..Default::default()
        };
        let data = generate(&cfg, &mut crate::rng(9));
        assert!(!data.dirty_rows.is_empty());
    }
}
