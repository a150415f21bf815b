//! # dftmc — compositional Dynamic Fault Tree analysis with I/O-IMCs
//!
//! Facade crate re-exporting the workspace crates. See the README for a tour.

pub use dft;
pub use dft_core;
pub use dftmc_serve;
pub use ioimc;
pub use markov;
