//! Dependencies over numerical data (survey §4): order-based notations.

mod dc;
mod interval;
mod od;
mod ofd;
mod sd;

pub use dc::{Dc, Operand, Predicate};
pub use interval::Interval;
pub use od::{Direction, Od, SingleAtomVerdicts};
pub use ofd::Ofd;
pub use sd::{Csd, CsdRow, Sd};
