//! FASTDC (Chu et al.): denial-constraint discovery via predicate spaces,
//! evidence sets and minimal set covers (§4.3.4), plus the approximate
//! variant A-FASTDC.

use crate::cover::{minimal_hitting_sets, minimal_hitting_sets_bounded};
use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::{CmpOp, Dc, Operand, Predicate};
use deptree_relation::{AttrId, Relation, Value, ValueType};
use std::collections::HashMap;

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct DcConfig {
    /// Maximum number of predicates per DC (small DCs are the useful
    /// ones; the space is exponential in this).
    pub max_predicates: usize,
    /// A-FASTDC: fraction of tuple pairs a DC may violate and still be
    /// reported (0 = exact FASTDC).
    pub approx_epsilon: f64,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            max_predicates: 3,
            approx_epsilon: 0.0,
        }
    }
}

/// Build the two-tuple predicate space of FASTDC: for every attribute,
/// `tα.A op tβ.A` with `op ∈ {=, ≠}` for categorical/text attributes and
/// the full operator set for numeric ones.
pub fn predicate_space(r: &Relation) -> Vec<Predicate> {
    let mut preds = Vec::new();
    for (id, attr) in r.schema().iter() {
        let ops: &[CmpOp] = match attr.ty {
            ValueType::Numeric => &CmpOp::ALL,
            _ => &CmpOp::EQUALITY,
        };
        for &op in ops {
            preds.push(Predicate::across(id, op, id));
        }
    }
    preds
}

/// Statistics from a run.
#[derive(Debug, Clone, Default)]
pub struct FastDcStats {
    /// Size of the predicate space.
    pub n_predicates: usize,
    /// Distinct evidence sets.
    pub n_evidence_sets: usize,
    /// Ordered tuple pairs evaluated.
    pub pairs_evaluated: usize,
}

/// Outcomes of comparing one attribute across a tuple pair, as indexes
/// into [`AttrBits::table`].
const LT: usize = 0;
const EQ: usize = 1;
const GT: usize = 2;
const BOTH_NULL: usize = 3;
const ONE_NULL: usize = 4;
/// The outcome of the pair read in the other orientation.
const MIRROR: [usize; 5] = [GT, EQ, LT, BOTH_NULL, ONE_NULL];
/// The rank that marks the null code.
const NULL_RANK: u32 = u32::MAX;

/// The pair-evidence kernel: a predicate list compiled once per run, so
/// that a tuple pair's evidence bits cost one rank comparison and one OR
/// per attribute instead of one [`Predicate::eval`] per predicate.
///
/// Predicates `tα.A op tβ.A` are grouped by attribute. [`CmpOp::eval`]
/// compares with [`Value::numeric_cmp`] and treats nulls specially, so
/// its verdict is a function of one of five outcomes — `<`, `=`, `>`,
/// both null, one null — and the outcome is read off per-code ranks:
/// [`deptree_relation::ColumnIndex::num_rank`], which ties `Int(2)` with
/// `Float(2.0)` and orders `-0.0` and `NaN` as `total_cmp` does, with the
/// null code marked. Predicates of any other shape (constants,
/// cross-attribute) are evaluated with [`Predicate::eval`].
struct PairKernel<'a> {
    r: &'a Relation,
    attrs: Vec<AttrBits<'a>>,
    other: Vec<(u64, &'a Predicate)>,
}

/// One attribute's share of a [`PairKernel`].
struct AttrBits<'a> {
    codes: &'a [u32],
    /// Per dictionary code: its numeric rank, or [`NULL_RANK`].
    ranks: Vec<u32>,
    /// Per outcome of `tα.A` against `tβ.A`: the predicate bits it sets.
    table: [u64; 5],
}

impl<'a> PairKernel<'a> {
    fn new(r: &'a Relation, preds: &'a [Predicate]) -> Self {
        assert!(preds.len() <= 64, "predicate space capped at 64 bits");
        // One representative value pair per outcome; the table is
        // `CmpOp::eval` on it, so it cannot drift from the operator.
        let (lo, hi) = (Value::Int(0), Value::Int(1));
        let samples = [
            (&lo, &hi),
            (&lo, &lo),
            (&hi, &lo),
            (&Value::Null, &Value::Null),
            (&Value::Null, &lo),
        ];
        let mut attrs: Vec<AttrBits<'a>> = Vec::new();
        let mut slot: HashMap<AttrId, usize> = HashMap::new();
        let mut other = Vec::new();
        for (k, p) in preds.iter().enumerate() {
            let (Operand::First(a), Operand::Second(b)) = (&p.left, &p.right) else {
                other.push((1u64 << k, p));
                continue;
            };
            if a != b {
                other.push((1u64 << k, p));
                continue;
            }
            let at = *slot.entry(*a).or_insert_with(|| {
                let col = r.col(*a);
                let index = col.index();
                let ranks = (0..col.dict().len() as u32)
                    .map(|code| {
                        if col.dict_value(code).is_null() {
                            NULL_RANK
                        } else {
                            index.num_rank(code)
                        }
                    })
                    .collect();
                attrs.push(AttrBits {
                    codes: col.codes(),
                    ranks,
                    table: [0; 5],
                });
                attrs.len() - 1
            });
            for (o, (x, y)) in samples.iter().enumerate() {
                if p.op.eval(x, y) {
                    attrs[at].table[o] |= 1 << k;
                }
            }
        }
        PairKernel { r, attrs, other }
    }

    /// The evidence bits of `(ti, tj)` and of `(tj, ti)`.
    #[inline]
    fn pair(&self, i: usize, j: usize) -> (u64, u64) {
        let (mut ij, mut ji) = (0u64, 0u64);
        for at in &self.attrs {
            let a = at.ranks[at.codes[i] as usize];
            let b = at.ranks[at.codes[j] as usize];
            let o = match (a == NULL_RANK, b == NULL_RANK) {
                // LT, EQ or GT, without a branch.
                (false, false) => usize::from(a >= b) + usize::from(a > b),
                (true, true) => BOTH_NULL,
                _ => ONE_NULL,
            };
            ij |= at.table[o];
            ji |= at.table[MIRROR[o]];
        }
        for &(bit, p) in &self.other {
            if p.eval(self.r, i, j) {
                ij |= bit;
            }
            if p.eval(self.r, j, i) {
                ji |= bit;
            }
        }
        (ij, ji)
    }

    /// The evidence bits of `(ti, tj)`.
    #[inline]
    fn bits(&self, i: usize, j: usize) -> u64 {
        self.pair(i, j).0
    }
}

/// Compute the *evidence sets*: for each ordered tuple pair, the bitset of
/// predicates it satisfies, as distinct evidence sets with their
/// multiplicities.
///
/// Blocked construction: group rows into distinct-tuple classes first,
/// evaluate predicates once per ordered class pair, and account each
/// result with the class-product multiplicity. An evidence bitset is a
/// pure function of the two tuples' values, so rows within a class are
/// interchangeable and the multiset equals a per-pair scan's exactly — in
/// `O(d²·|P|)` for `d` distinct tuples instead of `O(n²·|P|)`. Each class
/// pair is one call of the compiled pair-evidence kernel, which yields
/// both orientations at once. This is the evidence path of
/// [`discover_bounded`].
///
/// Budgeted: every *represented* ordered pair costs one engine row tick
/// (`Σ = n(n−1)` when complete, matching a per-pair scan). Ticks are charged block-by-block — one block per left
/// class, granted as a serial prefix so the grant is identical at any
/// thread count — then blocks are evaluated in parallel and merged in
/// class order. An incomplete multiset under-constrains covers, so
/// callers must validate candidate DCs before emitting them.
pub fn evidence_sets_blocked(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
    exec: &Exec,
) -> (HashMap<u64, usize>, bool) {
    let kernel = PairKernel::new(r, preds);
    let mut span = exec.span("dc.evidence");
    let mut classes: Vec<Vec<usize>> = r.group_by(r.all_attrs()).into_values().collect();
    for c in &mut classes {
        c.sort_unstable();
    }
    classes.sort_unstable();
    // Serial prefix grant: block b covers the intra pairs of class b plus
    // both orientations against every later class.
    let mut granted = 0usize;
    let mut complete = true;
    for (b, c1) in classes.iter().enumerate() {
        let s1 = c1.len();
        let later: usize = classes[b + 1..].iter().map(Vec::len).sum();
        let cost = s1 * (s1 - 1) + 2 * s1 * later;
        if !exec.tick_rows(cost as u64) {
            complete = false;
            break;
        }
        granted = b + 1;
    }
    let blocks: Vec<usize> = (0..granted).collect();
    let results = pool::map(exec.threads(), &blocks, |_, &b| {
        if exec.interrupted() {
            return None;
        }
        let c1 = &classes[b];
        let rep1 = c1[0];
        let s1 = c1.len();
        let mut out: Vec<(u64, usize)> = Vec::new();
        if s1 > 1 {
            // All intra-class ordered pairs relate identical tuples and
            // share one evidence set.
            out.push((kernel.bits(rep1, c1[1]), s1 * (s1 - 1)));
        }
        for c2 in &classes[b + 1..] {
            let mult = s1 * c2.len();
            let (fwd, rev) = kernel.pair(rep1, c2[0]);
            out.push((fwd, mult));
            out.push((rev, mult));
        }
        Some(out)
    });
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    for block in results {
        let Some(entries) = block else {
            // Deadline/cancel hit mid-batch; everything merged so far came
            // from fully evaluated blocks, so it stays.
            complete = false;
            break;
        };
        for (bits, mult) in entries {
            stats.pairs_evaluated += mult;
            *evidence.entry(bits).or_default() += mult;
        }
    }
    stats.n_evidence_sets = evidence.len();
    span.attr("blocks", granted as u64);
    span.attr("evidence_sets", evidence.len() as u64);
    (evidence, complete)
}

/// The result of a FASTDC run.
#[derive(Debug)]
pub struct FastDcResult {
    /// Minimal valid DCs.
    pub dcs: Vec<Dc>,
    /// Run statistics.
    pub stats: FastDcStats,
}

/// Run FASTDC: a predicate set `P` forms a valid DC `¬(⋀ P)` iff no
/// evidence set contains all of `P` — equivalently, `P` hits the
/// *complement* of every evidence set. Minimal valid DCs are therefore
/// minimal hitting sets of the complemented evidence sets.
///
/// With `approx_epsilon > 0` (A-FASTDC), evidence sets whose total
/// multiplicity is within an `ε` fraction of all pairs may be left uncovered.
pub fn discover(r: &Relation, cfg: &DcConfig) -> FastDcResult {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Run FASTDC under `exec`'s budget.
///
/// Anytime contract: when the evidence scan was cut short, candidate DCs
/// are validated pair-by-pair (itself budgeted) before being emitted, so
/// a partial result contains only DCs that hold exactly on `r`; the
/// A-FASTDC approximate mode degrades to exact validation in that case.
/// Completeness and minimality are forfeit on exhaustion.
pub fn discover_bounded(r: &Relation, cfg: &DcConfig, exec: &Exec) -> Outcome<FastDcResult> {
    let preds = predicate_space(r);
    let mut stats = FastDcStats {
        n_predicates: preds.len(),
        ..Default::default()
    };
    let (evidence, evidence_complete) = evidence_sets_blocked(r, &preds, &mut stats, exec);
    let full: u64 = if preds.len() == 64 {
        u64::MAX
    } else {
        (1u64 << preds.len()) - 1
    };

    // A-FASTDC: drop the least-frequent evidence sets up to the ε budget.
    let total_pairs: usize = evidence.values().sum();
    let budget = (cfg.approx_epsilon * total_pairs as f64).floor() as usize;
    let mut sets: Vec<(u64, usize)> = evidence.into_iter().collect();
    // Tie-break equal counts by bits: the ε-drop filter below keeps a
    // prefix of this order, so hash-order ties would make A-FASTDC drop
    // a different evidence set on every run.
    sets.sort_by_key(|&(bits, count)| (count, bits));
    let mut dropped = 0usize;
    let complements: Vec<u64> = sets
        .iter()
        .filter(|&&(_, count)| {
            if dropped + count <= budget {
                dropped += count;
                false
            } else {
                true
            }
        })
        .map(|&(bits, _)| full & !bits)
        .collect();

    let (covers, _) = minimal_hitting_sets_bounded(&complements, preds.len(), exec);
    let mut dcs = Vec::new();
    for cover in covers {
        if cover.count_ones() as usize > cfg.max_predicates || cover == 0 {
            continue;
        }
        let chosen: Vec<Predicate> = (0..preds.len())
            .filter(|&k| cover & (1 << k) != 0)
            .map(|k| preds[k].clone())
            .collect();
        // Skip trivially unsatisfiable conjunctions (e.g. tα.A = tβ.A ∧
        // tα.A ≠ tβ.A): they are valid DCs but vacuous.
        if is_contradictory(&chosen) {
            continue;
        }
        // With a truncated evidence scan the cover is only a candidate:
        // validate before emitting so partial results stay sound.
        if !evidence_complete && !matches!(validate_bounded(r, &preds, cover, exec), Some(true)) {
            continue;
        }
        dcs.push(Dc::new(r.schema(), chosen));
    }
    exec.finish(FastDcResult { dcs, stats })
}

/// Does `¬(⋀ cover)` hold on every ordered tuple pair, `cover` being a
/// bitset over `preds`? `None` when the budget died before the scan
/// finished.
fn validate_bounded(r: &Relation, preds: &[Predicate], cover: u64, exec: &Exec) -> Option<bool> {
    let kernel = PairKernel::new(r, preds);
    for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            if !exec.tick_rows(1) {
                return None;
            }
            if kernel.bits(i, j) & cover == cover {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// Hydra-style discovery (Bleifuß et al., §4.3.4): avoid building the
/// complete evidence multiset up front. Phase 1 computes evidence only for
/// a deterministic sample of tuple pairs and derives *preliminary* DCs;
/// phase 2 scans for pairs violating any preliminary DC, feeds their
/// evidence back, and repeats until no candidate is violated.
///
/// At the fixpoint the output equals exact FASTDC's (tested): a candidate
/// surviving validation hits every evidence-set complement, and any
/// globally-minimal DC must be minimal for the collected subfamily too.
/// The win is that the expensive minimal-cover search runs on far fewer
/// distinct evidence sets when the data is regular.
pub fn discover_hydra(r: &Relation, cfg: &DcConfig, sample_stride: usize) -> FastDcResult {
    assert!(sample_stride >= 1, "stride must be positive");
    let preds = predicate_space(r);
    let mut stats = FastDcStats {
        n_predicates: preds.len(),
        ..Default::default()
    };
    let full: u64 = if preds.len() == 64 {
        u64::MAX
    } else {
        (1u64 << preds.len()) - 1
    };
    let kernel = PairKernel::new(r, &preds);
    let pair_bits = |i: usize, j: usize, stats: &mut FastDcStats| -> u64 {
        stats.pairs_evaluated += 1;
        kernel.bits(i, j)
    };

    // Phase 1: sampled evidence.
    let mut family: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut counter = 0usize;
    for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            counter += 1;
            if counter.is_multiple_of(sample_stride) {
                family.insert(pair_bits(i, j, &mut stats));
            }
        }
    }

    // Phase 2: iterate candidate generation + validation.
    let mut covers: Vec<u64>;
    loop {
        let complements: Vec<u64> = family.iter().map(|&bits| full & !bits).collect();
        covers = minimal_hitting_sets(&complements, preds.len());
        // Validate every candidate against every pair; collect evidence of
        // violating pairs.
        let mut grew = false;
        for i in 0..r.n_rows() {
            for j in 0..r.n_rows() {
                if i == j {
                    continue;
                }
                // Cheap pre-check: compute bits lazily only if some cover
                // might be violated — here we always need the bits.
                let bits = pair_bits(i, j, &mut stats);
                if covers.iter().any(|&c| c & !bits == 0) && family.insert(bits) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    stats.n_evidence_sets = family.len();

    let mut dcs = Vec::new();
    for cover in covers {
        if cover == 0 || cover.count_ones() as usize > cfg.max_predicates {
            continue;
        }
        let chosen: Vec<Predicate> = (0..preds.len())
            .filter(|&k| cover & (1 << k) != 0)
            .map(|k| preds[k].clone())
            .collect();
        if is_contradictory(&chosen) {
            continue;
        }
        dcs.push(Dc::new(r.schema(), chosen));
    }
    FastDcResult { dcs, stats }
}

/// Is the conjunction unsatisfiable for symmetric same-attribute
/// predicates (the only kind [`predicate_space`] builds)?
fn is_contradictory(preds: &[Predicate]) -> bool {
    use deptree_core::Operand;
    let mut by_attr: HashMap<AttrId, Vec<CmpOp>> = HashMap::new();
    for p in preds {
        if let (Operand::First(a), Operand::Second(b)) = (&p.left, &p.right) {
            if a == b {
                by_attr.entry(*a).or_default().push(p.op);
            }
        }
    }
    for ops in by_attr.values() {
        // A pair's comparison outcome on one attribute is <, = or >.
        // The conjunction is satisfiable iff some outcome satisfies all ops.
        let satisfiable = ["lt", "eq", "gt"].iter().any(|&o| {
            ops.iter().all(|op| {
                matches!(
                    (o, op),
                    ("lt", CmpOp::Lt | CmpOp::Leq | CmpOp::Neq)
                        | ("eq", CmpOp::Eq | CmpOp::Leq | CmpOp::Geq)
                        | ("gt", CmpOp::Gt | CmpOp::Geq | CmpOp::Neq)
                )
            })
        });
        if !satisfiable {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::hotels_r7;
    use deptree_relation::{RelationBuilder, ValueType};

    #[test]
    fn predicate_space_shape() {
        let r = hotels_r7();
        let preds = predicate_space(&r);
        // 4 numeric attributes × 6 operators.
        assert_eq!(preds.len(), 24);
    }

    #[test]
    fn all_discovered_dcs_hold() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        assert!(!result.dcs.is_empty());
        for dc in &result.dcs {
            assert!(dc.holds(&r), "{dc}");
        }
    }

    #[test]
    fn finds_the_papers_dc1_shape() {
        // dc1: ¬(tα.subtotal < tβ.subtotal ∧ tα.taxes > tβ.taxes) holds on
        // r7 and involves 2 predicates: FASTDC must find it (or a DC
        // implying it, but with max_predicates 2 the exact one appears).
        let r = hotels_r7();
        let s = r.schema();
        let result = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.0,
            },
        );
        let target = Dc::new(
            s,
            vec![
                Predicate::across(s.id("subtotal"), CmpOp::Lt, s.id("subtotal")),
                Predicate::across(s.id("taxes"), CmpOp::Gt, s.id("taxes")),
            ],
        );
        assert!(
            result
                .dcs
                .iter()
                .any(|dc| dc.to_string() == target.to_string()),
            "{:?}",
            result.dcs.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimality_no_dc_contains_another() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        for a in &result.dcs {
            for b in &result.dcs {
                if a.to_string() == b.to_string() {
                    continue;
                }
                let a_in_b = a
                    .predicates()
                    .iter()
                    .all(|p| b.predicates().iter().any(|q| q == p));
                assert!(!a_in_b, "{a} subsumes {b}");
            }
        }
    }

    #[test]
    fn approximate_mode_tolerates_outliers() {
        // A relation satisfying "a < b ⇒ c < d" except for one outlier
        // pair; exact FASTDC loses the 2-predicate DC, A-FASTDC keeps it.
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("y", ValueType::Numeric);
        for i in 0..20 {
            b = b.row(vec![i.into(), (i * 10).into()]);
        }
        b = b.row(vec![100.into(), 0.into()]); // outlier breaks monotonicity
        let r = b.build().unwrap();
        let s = r.schema();
        let target = Dc::new(
            s,
            vec![
                Predicate::across(s.id("x"), CmpOp::Lt, s.id("x")),
                Predicate::across(s.id("y"), CmpOp::Geq, s.id("y")),
            ],
        );
        assert!(!target.holds(&r));
        let exact = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.0,
            },
        );
        assert!(!exact
            .dcs
            .iter()
            .any(|dc| dc.to_string() == target.to_string()));
        let approx = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.15,
            },
        );
        assert!(
            approx
                .dcs
                .iter()
                .any(|dc| dc.to_string() == target.to_string()),
            "{:?}",
            approx.dcs.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contradiction_filter() {
        let r = hotels_r7();
        let s = r.schema();
        let contradictory = vec![
            Predicate::across(s.id("taxes"), CmpOp::Eq, s.id("taxes")),
            Predicate::across(s.id("taxes"), CmpOp::Neq, s.id("taxes")),
        ];
        assert!(is_contradictory(&contradictory));
        let fine = vec![
            Predicate::across(s.id("taxes"), CmpOp::Leq, s.id("taxes")),
            Predicate::across(s.id("taxes"), CmpOp::Neq, s.id("taxes")),
        ];
        assert!(!is_contradictory(&fine));
    }

    #[test]
    fn hydra_matches_exact_fastdc() {
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("y", ValueType::Numeric);
        for i in 0..15 {
            b = b.row(vec![i.into(), ((i * 7) % 11).into()]);
        }
        let r = b.build().unwrap();
        let cfg = DcConfig {
            max_predicates: 2,
            approx_epsilon: 0.0,
        };
        let exact = discover(&r, &cfg);
        for stride in [1usize, 3, 10, 50] {
            let hydra = discover_hydra(&r, &cfg, stride);
            let e: std::collections::BTreeSet<String> =
                exact.dcs.iter().map(|d| d.to_string()).collect();
            let h: std::collections::BTreeSet<String> =
                hydra.dcs.iter().map(|d| d.to_string()).collect();
            assert_eq!(e, h, "stride {stride}");
        }
        // And on the paper instance.
        let r7 = hotels_r7();
        let exact7 = discover(&r7, &cfg);
        let hydra7 = discover_hydra(&r7, &cfg, 4);
        let e: std::collections::BTreeSet<String> =
            exact7.dcs.iter().map(|d| d.to_string()).collect();
        let h: std::collections::BTreeSet<String> =
            hydra7.dcs.iter().map(|d| d.to_string()).collect();
        assert_eq!(e, h);
    }

    #[test]
    fn stats_populated() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        assert_eq!(result.stats.n_predicates, 24);
        assert_eq!(result.stats.pairs_evaluated, 12); // 4×3 ordered pairs
        assert!(result.stats.n_evidence_sets >= 1);
    }
}
