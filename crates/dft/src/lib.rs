//! # dft — dynamic fault tree modelling
//!
//! This crate provides the *syntactic* side of dynamic fault trees (DFTs) as used
//! by Boudali, Crouzen & Stoelinga (DSN 2007): basic events with dormancy factors,
//! static gates (AND, OR, voting), dynamic gates (PAND, SPARE, FDEP, SEQ), the
//! inhibition extension of Section 7.1 and the repair extension of Section 7.2.
//! The semantic translation to I/O-IMCs and the analysis live in the `dft-core`
//! crate.
//!
//! A DFT is a directed acyclic graph whose leaves are basic events and whose
//! internal vertices are gates; one element is designated the *top event* (system
//! failure).  The crate offers:
//!
//! * a typed builder API ([`DftBuilder`]),
//! * wellformedness validation ([`validate`]),
//! * a parser and printer for the Galileo textual format ([`galileo`]) used by the
//!   original DIFTree/Galileo tool and by the paper's case studies,
//! * detection of independent modules and the static/dynamic hybrid
//!   decomposition ([`modules`]), the structural notion behind the paper's
//!   modularity discussion,
//! * a hash-consed BDD engine ([`bdd`]) that solves static (sub)trees
//!   combinatorially.
//!
//! # Example
//!
//! The pump unit of the cardiac assist system (Section 5.1): two primary pumps
//! sharing one cold spare; the unit fails when all three pumps have failed.
//!
//! ```
//! use dft::{DftBuilder, Dormancy};
//!
//! # fn main() -> Result<(), dft::Error> {
//! let mut b = DftBuilder::new();
//! let pa = b.basic_event("PA", 1.0, Dormancy::Hot)?;
//! let pb = b.basic_event("PB", 1.0, Dormancy::Hot)?;
//! let ps = b.basic_event("PS", 1.0, Dormancy::Cold)?;
//! let pump_a = b.spare_gate("Pump_A", &[pa, ps])?;
//! let pump_b = b.spare_gate("Pump_B", &[pb, ps])?;
//! let unit = b.and_gate("Pump_unit", &[pump_a, pump_b])?;
//! let dft = b.build(unit)?;
//! assert_eq!(dft.num_elements(), 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bdd;
pub mod builder;
pub mod element;
pub mod galileo;
pub mod json;
pub mod json_format;
pub mod modules;
mod read;
pub mod tree;
pub mod validate;

pub use builder::DftBuilder;
pub use element::{BasicEvent, Dormancy, Element, ElementId, Gate, GateKind};
pub use tree::Dft;

use std::fmt;

/// Errors produced while building, parsing or validating a DFT.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An element name was used twice.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A referenced element does not exist.
    UnknownElement {
        /// The missing name or id description.
        name: String,
    },
    /// A basic event parameter is out of range.
    InvalidParameter {
        /// Element name.
        name: String,
        /// Description of the violated constraint.
        message: String,
    },
    /// A gate has an invalid number or kind of inputs.
    InvalidGate {
        /// Gate name.
        name: String,
        /// Description of the violated constraint.
        message: String,
    },
    /// The DFT contains a cycle.
    Cyclic {
        /// Name of an element on the cycle.
        name: String,
    },
    /// The element graph is valid but violates a DFT restriction (e.g. a spare
    /// input is not an independent subtree).
    Wellformedness {
        /// Description of the violation.
        message: String,
    },
    /// The Galileo input could not be parsed.
    Parse {
        /// Line number (1-based).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The JSON interchange document could not be decoded.
    Json {
        /// Description of the problem, naming the offending node where known.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateName { name } => write!(f, "duplicate element name '{name}'"),
            Error::UnknownElement { name } => write!(f, "unknown element '{name}'"),
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter for '{name}': {message}")
            }
            Error::InvalidGate { name, message } => write!(f, "invalid gate '{name}': {message}"),
            Error::Cyclic { name } => write!(f, "cycle through element '{name}'"),
            Error::Wellformedness { message } => write!(f, "ill-formed DFT: {message}"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::Json { message } => write!(f, "invalid JSON fault tree: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
