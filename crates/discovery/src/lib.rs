//! Discovery algorithms for the dependency family (survey aspect (c)).
//!
//! One module per algorithm family, mirroring Table 2's discovery column:
//!
//! | Module | Algorithm(s) | Paper refs |
//! |---|---|---|
//! | [`tane`] | TANE: level-wise lattice + stripped partitions; exact FDs and AFDs | \[53, 54\] |
//! | [`fastfd`] | FastFD: difference sets + DFS minimal covers | \[112\] |
//! | [`cover`] | the minimal-hitting-set DFS FastFD and FASTDC share, on per-element hit bitsets | \[112, 19\] |
//! | [`cords`] | CORDS: sampling, strength, chi-square correlation | \[55\] |
//! | [`pfd`] | per-value counting, single-table and multi-source merge | \[104\] |
//! | [`cfd`] | CFDMiner (constant CFDs), CTANE-lite (general CFDs), greedy near-optimal tableau | \[35, 36, 49\] |
//! | [`mvd`] | level-wise MVD search with augmentation pruning | \[82\] |
//! | [`mfd`] | per-group diameter verification, exact O(n²) + pivot approximation | \[64\] |
//! | [`dd`] | distance-distribution thresholds + interval-lattice DD search | \[86, 88, 89\] |
//! | [`md`] | similarity predicate space, support/confidence MDs, relative candidate keys | \[85, 87, 90\] |
//! | [`od`] | FASTOD-lite: sorted-partition OD validation over direction combinations | \[67, 99\] |
//! | [`dc`] | FASTDC: predicate space, evidence sets, minimal covers; A-FASTDC | \[19, 78\] |
//! | [`sd`] | SD confidence + the exact quadratic CSD tableau DP (the Fig. 3 polynomial case) | \[48\] |
//! | [`ned`] | RHS-given beam search for neighborhood predicates | \[4\] |
//! | [`ffd`] | small-to-large FFD mining with pairwise μ_EQ checks | \[109\] |
//! | [`nud`] | minimal-weight NUD fitting | \[22, 50\] |
//! | [`ecfd`] | built-in-predicate condition mining | \[114\] |
//! | [`conditional`] | CDD and CMD discovery over frequent conditions | \[66, 110\] |
//! | [`cd`] | pay-as-you-go incremental CD discovery | \[92\] |
//! | [`pacman`] | PAC template instantiation + monitoring | \[63\] |
//! | [`schemes`] | FHD hierarchies, AMVD approximate schemes, OFD validation | \[27, 52, 59, 75\] |
//!
//! Every algorithm returns dependencies that *hold* (soundness is tested
//! per module); minimality is enforced where the original algorithm
//! guarantees it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cd;
pub mod cfd;
pub mod conditional;
pub mod cords;
pub mod cover;
pub mod dc;
pub mod dd;
pub mod ecfd;
pub mod fastfd;
pub mod ffd;
pub mod md;
pub mod mfd;
pub mod mvd;
pub mod ned;
pub mod nud;
pub mod od;
pub mod pacman;
pub mod pfd;
pub mod schemes;
pub mod sd;
pub mod tane;

pub(crate) use mvd::subsets_up_to as mvd_subsets;
