//! Signature-based partition refinement.
//!
//! [`refine`] computes an equivalence on the states of an I/O-IMC and [`quotient`]
//! builds the corresponding reduced model.  Two modes are supported:
//!
//! * **strong** — two states are equivalent only if they agree on atomic
//!   propositions, have the same interactive moves into the same blocks, and the
//!   same cumulative Markovian rate into every block (ordinary lumpability).
//! * **weak** (branching-style) — internal transitions that stay inside the current
//!   block are treated as invisible: a state may take any number of such *inert*
//!   steps before exhibiting a visible move, and the Markovian rate condition is
//!   evaluated at the non-urgent states reachable by inert steps (maximal
//!   progress: urgent states never let time pass).
//!
//! The weak mode computes a refinement of weak bisimilarity for I/O-IMCs, so
//! merging the states of one block never changes any property expressible over the
//! visible actions, the Markovian timing and the atomic propositions — in
//! particular the failure-time distribution of a DFT.
//!
//! # Flat signatures
//!
//! Each refinement round signs the states of the blocks that can still split
//! (see [`refine`] for which blocks a round skips, and why that gives the same
//! partition) and renumbers the blocks by signature, in state order, until the
//! block count stops growing or every state is its own block.  A signature is
//! a run of `u64` words in one arena that is reused across rounds:
//!
//! ```text
//! old block, #moves, move…, #rate maps, (#entries, entry…)…
//! ```
//!
//! * a **move** packs (label, target block) into one word: the label's
//!   kind (input, output, internal) in the top two bits, its action id in
//!   the next 30 and the block in the low half.  The packing is one-to-one
//!   (action ids must stay below 2^30), and only the equality of
//!   signatures matters, so no per-call ranking of the labels is needed;
//! * a **rate map** lists a state's cumulative Markovian rate into each
//!   target block, two words per block: the block, then the sum's key.  For
//!   numeric rates the key is the sum's bit pattern itself
//!   ([`Rate::key_word`]); for [`RateForm`](crate::rate::RateForm) rates it
//!   is the canonical coefficient vector, interned to a number in the order
//!   the sums are first seen, so two states are lumped only when their
//!   cumulative rate *forms* coincide — an equality of linear forms that
//!   holds under **every** valuation of the parameters, which is what makes
//!   parametric aggregation sound for a whole rate sweep at once.
//!
//! Moves are sorted and deduplicated, and so are the rate maps (as word
//! strings, one per non-urgent state of the inert reach in weak mode, exactly
//! one in strong mode).  With the length prefixes, two states have equal
//! signature slices exactly when they agree on old block, move set and
//! rate-map set, and a map from signature slice to block id hands out the new
//! ids.  That map, the interned `RateForm` keys and the proposition blocks
//! hash with the crate's seeded fast hasher, and ids come from a counter in
//! state or first-seen order, never from the maps' iteration order, so the
//! seed never shows.
//! A block that is not signed keeps its members together under one new id,
//! drawn from the same counter when its smallest member comes up, so blocks
//! are numbered by their smallest member state.

use crate::hash::FastMap;
use crate::model::{InteractiveTransition, IoImcOf, Label, MarkovianTransitionOf, StateId};
use crate::rate::Rate;

/// A partition of the states of a model into equivalence blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of[s]` is the block index of state `s`.
    pub block_of: Vec<u32>,
    /// Number of blocks.
    pub num_blocks: u32,
}

impl Partition {
    /// The block of `state`.
    pub fn block(&self, state: StateId) -> u32 {
        self.block_of[state.index()]
    }

    /// Returns the states of each block.
    pub fn blocks(&self) -> Vec<Vec<StateId>> {
        let mut out = vec![Vec::new(); self.num_blocks as usize];
        for (i, &b) in self.block_of.iter().enumerate() {
            out[b as usize].push(StateId::new(i as u32));
        }
        out
    }
}

/// Per-block cumulative Markovian rates of `state` under `block_of`, in block
/// order, written to `sums`.
///
/// The transitions are stably ordered by target block (`order` holds the
/// `(block, transition index)` pairs), and each block's rates are added onto
/// [`Rate::zero`] in transition order, so a sum is the same value bit for bit
/// wherever it is computed: [`refine`] lumps on the keys of these sums and
/// [`quotient`] writes the sums themselves.
fn block_rates<R: Rate>(
    model: &IoImcOf<R>,
    state: StateId,
    block_of: &[u32],
    order: &mut Vec<(u32, u32)>,
    sums: &mut Vec<(u32, R)>,
) {
    let transitions = model.markovian_from(state);
    order.clear();
    order.extend(
        transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (block_of[t.to.index()], i as u32)),
    );
    // The pairs are distinct, so an unstable sort orders them like a stable
    // sort by block would.
    order.sort_unstable();
    sums.clear();
    for &(block, i) in order.iter() {
        let rate = &transitions[i as usize].rate;
        match sums.last_mut() {
            Some((last, sum)) if *last == block => sum.add_assign(rate),
            _ => {
                let mut sum = R::zero();
                sum.add_assign(rate);
                sums.push((block, sum));
            }
        }
    }
}

/// The reused buffers of one [`refine`] call: the per-call tables (urgency,
/// interned rate keys) and the per-round arenas of rate maps and signatures
/// laid out as the [module documentation](self) describes.
struct Signer<R: Rate> {
    /// Weak (inert internal steps abstracted) or strong bisimulation.
    weak: bool,
    /// Whether each state's Markovian rates count: every state's in strong
    /// mode, only the non-urgent states' in weak mode (maximal progress).
    timed: Vec<bool>,
    /// Interned cumulative rate keys, for rates without a
    /// [`key_word`](Rate::key_word).
    rate_keys: FastMap<R::Key, u64>,
    /// Every state's rate map under the current partition, back to back;
    /// state `s` owns `rate_words[rate_start[s]..rate_start[s + 1]]`.
    rate_words: Vec<u64>,
    rate_start: Vec<usize>,
    /// Every state's signature, back to back, laid out like the rate maps.
    sig: Vec<u64>,
    sig_start: Vec<usize>,
    /// `reached[u] == s` while the inert reach of `s` is being collected.
    reached: Vec<u32>,
    stack: Vec<StateId>,
    moves: Vec<u64>,
    maps: Vec<(usize, usize)>,
    order: Vec<(u32, u32)>,
    sums: Vec<(u32, R)>,
}

/// The move word of a `label` move into `block`: the label's kind in the
/// top two bits, its action id in the next 30, the block in the low 32.
fn move_word(label: Label, block: u32) -> u64 {
    let (kind, action) = match label {
        Label::Input(a) => (0, a),
        Label::Output(a) => (1, a),
        Label::Internal(a) => (2, a),
    };
    let id = u64::from(action.id());
    assert!(id < 1 << 30, "more than 2^30 actions");
    (kind << 62) | (id << 32) | u64::from(block)
}

impl<R: Rate> Signer<R> {
    fn new(model: &IoImcOf<R>, weak: bool) -> Signer<R> {
        let n = model.num_states();
        Signer {
            weak,
            timed: model
                .states()
                .map(|s| !weak || !model.is_urgent(s))
                .collect(),
            rate_keys: FastMap::default(),
            rate_words: Vec::new(),
            rate_start: Vec::with_capacity(n + 1),
            sig: Vec::new(),
            sig_start: Vec::with_capacity(n + 1),
            reached: vec![u32::MAX; if weak { n } else { 0 }],
            stack: Vec::new(),
            moves: Vec::new(),
            maps: Vec::new(),
            order: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Encodes the rate map of every timed state of the blocks marked in
    /// `signed`; the others' stay empty and unused.
    fn rate_maps(&mut self, model: &IoImcOf<R>, block_of: &[u32], signed: &[bool]) {
        self.rate_words.clear();
        self.rate_start.clear();
        for s in model.states() {
            self.rate_start.push(self.rate_words.len());
            if !self.timed[s.index()] || !signed[block_of[s.index()] as usize] {
                continue;
            }
            block_rates(model, s, block_of, &mut self.order, &mut self.sums);
            for (block, sum) in &self.sums {
                let word = sum.key_word().unwrap_or_else(|| {
                    let next = self.rate_keys.len() as u64;
                    *self.rate_keys.entry(sum.key()).or_insert(next)
                });
                self.rate_words.push(u64::from(*block));
                self.rate_words.push(word);
            }
        }
        self.rate_start.push(self.rate_words.len());
    }

    /// Appends the signature of `state` to `sig`.
    ///
    /// In weak mode the moves and rate maps are collected over the inert
    /// reach of `state`: the states reachable through internal moves that
    /// stay in its block, `state` included.  Inert moves are followed, not
    /// recorded.
    fn sign(&mut self, model: &IoImcOf<R>, state: StateId, block_of: &[u32]) {
        let weak = self.weak;
        let own_block = block_of[state.index()];
        self.moves.clear();
        self.maps.clear();
        if weak {
            self.reached[state.index()] = state.raw();
        }
        self.stack.push(state);
        while let Some(u) = self.stack.pop() {
            for t in model.interactive_from(u) {
                let target_block = block_of[t.to.index()];
                if weak && t.label.is_internal() && target_block == own_block {
                    if self.reached[t.to.index()] != state.raw() {
                        self.reached[t.to.index()] = state.raw();
                        self.stack.push(t.to);
                    }
                } else {
                    self.moves.push(move_word(t.label, target_block));
                }
            }
            if self.timed[u.index()] {
                self.maps
                    .push((self.rate_start[u.index()], self.rate_start[u.index() + 1]));
            }
        }
        self.moves.sort_unstable();
        self.moves.dedup();
        let words = &self.rate_words;
        self.maps
            .sort_unstable_by(|a, b| words[a.0..a.1].cmp(&words[b.0..b.1]));
        self.maps
            .dedup_by(|a, b| words[a.0..a.1] == words[b.0..b.1]);

        self.sig.push(u64::from(own_block));
        self.sig.push(self.moves.len() as u64);
        self.sig.extend_from_slice(&self.moves);
        self.sig.push(self.maps.len() as u64);
        for &(lo, hi) in &self.maps {
            self.sig.push((hi - lo) as u64);
            self.sig.extend_from_slice(&words[lo..hi]);
        }
    }

    /// Signs the states of the blocks marked in `signed`, in state order.
    /// An inert reach never leaves its block, so every rate map it reads
    /// belongs to a signed state.
    fn sign_blocks(&mut self, model: &IoImcOf<R>, block_of: &[u32], signed: &[bool]) {
        self.rate_maps(model, block_of, signed);
        if self.weak {
            self.reached.fill(u32::MAX);
        }
        self.sig.clear();
        self.sig_start.clear();
        for s in model.states() {
            if signed[block_of[s.index()] as usize] {
                self.sig_start.push(self.sig.len());
                self.sign(model, s, block_of);
            }
        }
        self.sig_start.push(self.sig.len());
    }

    /// Number of states signed by the last [`sign_blocks`](Self::sign_blocks).
    fn num_signed(&self) -> usize {
        self.sig_start.len() - 1
    }

    /// The signatures of the signed states, in state order.
    fn signatures(&self) -> impl Iterator<Item = &[u64]> {
        self.sig_start.windows(2).map(|w| &self.sig[w[0]..w[1]])
    }
}

/// Computes the coarsest signature-stable partition of `model`.
///
/// The initial partition separates states by their atomic-proposition labelling, so
/// proposition-labelled states (e.g. the "system down" marker used for
/// unavailability analysis) are never merged with unlabelled ones.  Blocks are
/// numbered in order of their smallest member state.  Refinement stops as soon
/// as the partition is discrete (one block per state), which it then stays.
///
/// A round signs only the blocks that can still split.  The first round signs
/// every block of two or more members.  After it, a block is *settled*, and
/// keeps its members together without being signed, when it has one member,
/// or when it came through the last round whole and no member has a
/// transition (interactive or Markovian) into a block that split.  The
/// members of such a block had equal signatures under the previous
/// partition, and every block they reach, their own included, was only
/// renumbered since, so their signatures are still equal; in weak mode their
/// inert reach cannot leave the unchanged block.  Signing every state would
/// therefore give the same partition, round by round, with the same
/// numbering.
pub fn refine<R: Rate>(model: &IoImcOf<R>, weak: bool) -> Partition {
    let n = model.num_states();
    let (mut block_of, mut num_blocks) = proposition_partition(model);
    let mut signer = Signer::new(model, weak);
    let mut next_block_of: Vec<u32> = vec![0; n];
    // `split[b]`: block `b` is a proper part of a block of the previous
    // round; the proposition blocks count as split.
    let mut split = vec![true; num_blocks as usize];
    let mut size = block_sizes(&block_of, num_blocks);
    // `signed[b]`: block `b` is signed this round.
    let mut signed: Vec<bool> = Vec::new();
    // `settled[b]`: the next round's id of block `b` when it is not signed.
    let mut settled: Vec<u32> = Vec::new();
    // `parent[b]`: the block that next-round block `b` came from;
    // `children[b]`: how many next-round blocks came from block `b`.
    let mut parent: Vec<u32> = Vec::new();
    let mut children: Vec<u32> = Vec::new();
    // A discrete partition is stable: every signature starts with the state's
    // own block, and blocks are numbered by first-seen state, so another
    // round would only give `block_of[s] = s` again.
    while (num_blocks as usize) < n {
        signed.clear();
        signed.extend(
            size.iter()
                .zip(&split)
                .map(|(&size, &split)| size > 1 && split),
        );
        for s in model.states() {
            let b = block_of[s.index()] as usize;
            if signed[b] || size[b] < 2 {
                continue;
            }
            let into_split = |to: StateId| split[block_of[to.index()] as usize];
            signed[b] = model.interactive_from(s).iter().any(|t| into_split(t.to))
                || model.markovian_from(s).iter().any(|t| into_split(t.to));
        }
        signer.sign_blocks(model, &block_of, &signed);

        let mut sig_blocks: FastMap<&[u64], u32> =
            FastMap::with_capacity_and_hasher(signer.num_signed(), Default::default());
        settled.clear();
        settled.resize(num_blocks as usize, u32::MAX);
        parent.clear();
        let mut signatures = signer.signatures();
        for (next, &b) in next_block_of.iter_mut().zip(&block_of) {
            let fresh = parent.len() as u32;
            let id = if signed[b as usize] {
                let signature = signatures.next().expect("every signed state was signed");
                *sig_blocks.entry(signature).or_insert(fresh)
            } else {
                let id = &mut settled[b as usize];
                if *id == u32::MAX {
                    *id = fresh;
                }
                *id
            };
            if id == fresh {
                parent.push(b);
            }
            *next = id;
        }
        let stable = parent.len() as u32 == num_blocks;
        num_blocks = parent.len() as u32;
        std::mem::swap(&mut block_of, &mut next_block_of);
        if stable {
            break;
        }
        children.clear();
        children.resize(size.len(), 0);
        for &p in &parent {
            children[p as usize] += 1;
        }
        split.clear();
        split.extend(parent.iter().map(|&p| children[p as usize] > 1));
        size = block_sizes(&block_of, num_blocks);
    }

    Partition {
        block_of,
        num_blocks,
    }
}

/// The number of states in each block.
fn block_sizes(block_of: &[u32], num_blocks: u32) -> Vec<u32> {
    let mut size = vec![0; num_blocks as usize];
    for &b in block_of {
        size[b as usize] += 1;
    }
    size
}

/// The initial partition of [`refine`]: states grouped by proposition mask,
/// blocks numbered by first-seen state.  Returns `block_of` and the block
/// count.
fn proposition_partition<R: Rate>(model: &IoImcOf<R>) -> (Vec<u32>, u32) {
    let mut block_of: Vec<u32> = vec![0; model.num_states()];
    let mut prop_blocks: FastMap<u64, u32> = FastMap::default();
    for s in model.states() {
        let next = prop_blocks.len() as u32;
        block_of[s.index()] = *prop_blocks.entry(model.prop_mask(s)).or_insert(next);
    }
    (block_of, prop_blocks.len() as u32)
}

/// Builds the quotient model of `model` under `partition`.
///
/// In weak mode, internal transitions between states of the same block are dropped
/// (they are unobservable), and the Markovian behaviour of a block is taken from
/// its non-urgent members (which, by construction of the refinement, all carry the
/// same cumulative rates).  The result is restricted to its reachable blocks.
pub fn quotient<R: Rate>(model: &IoImcOf<R>, partition: &Partition, weak: bool) -> IoImcOf<R> {
    quotient_on_blocks(model, partition, weak).into_reachable()
}

/// [`quotient`] with one state per block, reachable or not.
///
/// When every state of `model` is reachable and no urgent state has a
/// Markovian transition, as in every model [`minimize`](super::minimize)
/// quotients, the weak quotient under a weak refinement is all reachable:
/// every transition of a path into a block has a counterpart in the
/// quotient.  An internal move within a block is not needed, an
/// interactive move is kept, and a Markovian move leaves a non-urgent
/// state, whose rate map into blocks the block's representative shares.
pub(crate) fn quotient_on_blocks<R: Rate>(
    model: &IoImcOf<R>,
    partition: &Partition,
    weak: bool,
) -> IoImcOf<R> {
    let nb = partition.num_blocks as usize;
    let block_of = &partition.block_of;

    let mut props = vec![0u64; nb];
    for s in model.states() {
        props[block_of[s.index()] as usize] |= model.prop_mask(s);
    }

    let mut interactive: Vec<InteractiveTransition> = Vec::new();
    for t in model.interactive() {
        let from = block_of[t.from.index()];
        let to = block_of[t.to.index()];
        if weak && t.label.is_internal() && from == to {
            continue;
        }
        interactive.push(InteractiveTransition {
            from: StateId::new(from),
            label: t.label,
            to: StateId::new(to),
        });
    }

    let mut markovian: Vec<MarkovianTransitionOf<R>> = Vec::new();
    // For each block take the cumulative rates of one representative state.  In
    // strong mode every member agrees; in weak mode every *non-urgent* member
    // agrees and urgent members contribute nothing (maximal progress).
    let mut representative: Vec<Option<StateId>> = vec![None; nb];
    for s in model.states() {
        let b = block_of[s.index()] as usize;
        let eligible = if weak { !model.is_urgent(s) } else { true };
        if eligible && representative[b].is_none() {
            representative[b] = Some(s);
        }
    }
    let (mut order, mut sums) = (Vec::new(), Vec::new());
    for (b, rep) in representative.iter().enumerate() {
        if let Some(rep) = rep {
            block_rates(model, *rep, block_of, &mut order, &mut sums);
            for (to, rate) in sums.drain(..) {
                if !rate.is_zero() {
                    markovian.push(MarkovianTransitionOf {
                        from: StateId::new(b as u32),
                        rate,
                        to: StateId::new(to),
                    });
                }
            }
        }
    }

    IoImcOf::from_parts(
        model.name().to_owned(),
        model.signature().clone(),
        nb as u32,
        StateId::new(block_of[model.initial().index()]),
        interactive,
        markovian,
        model.prop_names.clone(),
        props,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::bisim::tests::{large_random_model, lift, random_model};
    use crate::builder::IoImcBuilder;
    use crate::model::IoImc;
    use std::collections::HashMap;

    fn act(n: &str) -> Action {
        Action::new(n)
    }

    #[test]
    fn strong_refinement_lumps_symmetric_states() {
        // Classic lumping: two intermediate states with identical rates to the same
        // absorbing state.
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(4);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[2]);
        b.markovian(s[1], 5.0, s[3]);
        b.markovian(s[2], 5.0, s[3]);
        let m = b.build().unwrap();
        let p = refine(&m, false);
        assert_eq!(p.num_blocks, 3);
        assert_eq!(p.block(s[1]), p.block(s[2]));
        let q = quotient(&m, &p, false);
        assert_eq!(q.num_states(), 3);
        // Initial state's lumped rate must be 2.0.
        let total: f64 = q.markovian_from(q.initial()).iter().map(|t| t.rate).sum();
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn strong_refinement_distinguishes_different_rates() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(4);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[2]);
        b.markovian(s[1], 5.0, s[3]);
        b.markovian(s[2], 7.0, s[3]);
        let m = b.build().unwrap();
        let p = refine(&m, false);
        assert_ne!(p.block(s[1]), p.block(s[2]));
    }

    #[test]
    fn weak_refinement_absorbs_inert_internal_steps() {
        let tau = act("part_tau");
        let f = act("part_f");
        // s1 --tau--> s2 --f!--> s3   versus   s4 --f!--> s3: s1, s2, s4 all
        // weakly offer f! and nothing else.
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[4]);
        b.internal(s[1], tau, s[2]);
        b.output(s[2], f, s[3]);
        b.output(s[4], f, s[3]);
        let m = b.build().unwrap();
        let p = refine(&m, true);
        assert_eq!(p.block(s[1]), p.block(s[2]));
        assert_eq!(p.block(s[1]), p.block(s[4]));
        let q = quotient(&m, &p, true);
        assert_eq!(q.num_states(), 3);
    }

    #[test]
    fn weak_refinement_respects_markovian_timing() {
        let tau = act("part_tau2");
        // s1 --tau--> s2 --(rate 5)--> s3   vs   s4 --(rate 9)--> s3:
        // s1 and s4 must not be merged (different timing).
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(5);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[4]);
        b.internal(s[1], tau, s[2]);
        b.markovian(s[2], 5.0, s[3]);
        b.markovian(s[4], 9.0, s[3]);
        let m = b.build().unwrap();
        let p = refine(&m, true);
        assert_ne!(p.block(s[1]), p.block(s[4]));
        // But s1 and s2 are equivalent: the inert step costs no time.
        assert_eq!(p.block(s[1]), p.block(s[2]));
    }

    #[test]
    fn propositions_split_the_initial_partition() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(2);
        b.initial(s[0]);
        let down = b.prop("down");
        b.set_prop(s[1], down);
        let m = b.build().unwrap();
        let p = refine(&m, true);
        assert_eq!(p.num_blocks, 2);
    }

    #[test]
    fn quotient_preserves_visible_outputs() {
        let f = act("part_f_preserved");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 2.0, s[1]);
        b.output(s[1], f, s[2]);
        let m = b.build().unwrap();
        let p = refine(&m, true);
        let q = quotient(&m, &p, true);
        assert!(q.interactive().iter().any(|t| t.label == Label::Output(f)));
        assert_eq!(q.num_states(), 3);
    }

    #[test]
    fn blocks_are_numbered_by_smallest_member() {
        // s0 and s3 fire f and stop, s1 and s4 lumped by rate, s2 absorbing:
        // block ids follow the first state of each block in state order.
        let f = act("part_f_numbering");
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(6);
        b.initial(s[5]);
        for &from in &[s[0], s[3]] {
            b.output(from, f, s[2]);
        }
        b.markovian(s[1], 2.0, s[0]);
        b.markovian(s[4], 2.0, s[3]);
        b.markovian(s[5], 1.0, s[1]);
        b.markovian(s[5], 1.0, s[4]);
        let m = b.build().unwrap();
        for weak in [false, true] {
            let p = refine(&m, weak);
            assert_eq!(p.block_of, vec![0, 1, 2, 0, 1, 3]);
            assert_eq!(p.num_blocks, 4);
        }
    }

    /// The refinement loop that signs every state in every round and has no
    /// discrete-partition stop: it always runs until a round adds no block.
    fn refine_reference<R: Rate>(model: &IoImcOf<R>, weak: bool) -> Partition {
        let (mut block_of, mut num_blocks) = proposition_partition(model);
        let mut signer = Signer::new(model, weak);
        let mut next_block_of: Vec<u32> = vec![0; model.num_states()];
        loop {
            signer.sign_blocks(model, &block_of, &vec![true; num_blocks as usize]);
            let mut sig_blocks: HashMap<&[u64], u32> = HashMap::new();
            for (next, signature) in next_block_of.iter_mut().zip(signer.signatures()) {
                let fresh = sig_blocks.len() as u32;
                *next = *sig_blocks.entry(signature).or_insert(fresh);
            }
            let stable = sig_blocks.len() as u32 == num_blocks;
            num_blocks = sig_blocks.len() as u32;
            std::mem::swap(&mut block_of, &mut next_block_of);
            if stable {
                return Partition {
                    block_of,
                    num_blocks,
                };
            }
        }
    }

    /// Asserts that [`refine`] agrees with [`refine_reference`] on `model`
    /// and on its parametric lift, in strong and weak mode.
    fn assert_matches_reference(model: &IoImc, what: &str) {
        let lifted = lift(model);
        for weak in [false, true] {
            assert_eq!(
                refine(model, weak),
                refine_reference(model, weak),
                "{what}, weak {weak}"
            );
            assert_eq!(
                refine(&lifted, weak),
                refine_reference(&lifted, weak),
                "{what}, weak {weak}, parametric"
            );
        }
    }

    #[test]
    fn refine_matches_the_reference_loop() {
        for seed in 0..256 {
            assert_matches_reference(&random_model(seed), &format!("seed {seed}"));
        }
        for seed in 0..16 {
            let model = large_random_model(seed);
            assert!((100..=400).contains(&model.num_states()));
            assert_matches_reference(&model, &format!("large seed {seed}"));
        }
    }

    #[test]
    fn splits_travel_down_a_long_chain() {
        // An equal-rate chain c0 → … → c(len-1) whose last state is `down`,
        // beside an equal-rate unlabelled cycle of the same length: the
        // chain's split travels back one state per round, while the cycle
        // stays one block.  The watchers x1 → c0 and x2 → y0 share a g?
        // move, so they form their own block in the first round and then
        // come through every round whole until c0 parts from the cycle;
        // only their Markovian transitions into the block that keeps
        // splitting get them re-signed.
        let len = 200;
        let g = act("part_chain_g");
        let mut b = IoImcBuilder::new("chain");
        let chain = b.add_states(len);
        let cycle = b.add_states(len);
        let [x1, x2, z] = [b.add_state(), b.add_state(), b.add_state()];
        b.initial(x1);
        for i in 1..len {
            b.markovian(chain[i - 1], 1.0, chain[i]);
            b.markovian(cycle[i - 1], 1.0, cycle[i]);
        }
        b.markovian(cycle[len - 1], 1.0, cycle[0]);
        let down = b.prop("down");
        b.set_prop(chain[len - 1], down);
        for (x, to) in [(x1, chain[0]), (x2, cycle[0])] {
            b.markovian(x, 1.0, to);
            b.input(x, g, z);
        }
        let model = b.build().unwrap();
        assert_matches_reference(&model, "chain");
        for weak in [false, true] {
            let p = refine(&model, weak);
            for (i, &c) in chain.iter().enumerate() {
                assert_eq!(p.block(c), i as u32);
            }
            assert!(cycle.iter().all(|&y| p.block(y) == p.block(cycle[0])));
            assert_ne!(p.block(x1), p.block(x2));
            assert_eq!(p.num_blocks as usize, len + 4);
        }
    }

    #[test]
    fn a_split_reaches_a_block_through_its_inert_steps() {
        // u --τ--> v --f!--> w1 and u' --τ--> v' --f!--> w2, where w1 starts
        // a chain to a `down` state and w2 an unlabelled cycle of the same
        // length: w1 and w2 part only after the chain's split has travelled
        // back to w1.  Then v and v' part, and u and u' with them, although
        // u and u' have no transition into the block that split: they reach
        // it only through their inert τ-steps.
        let len = 12;
        let tau = act("part_inert_tau");
        let f = act("part_inert_f");
        let mut b = IoImcBuilder::new("inert");
        let [u, v, u2, v2] = [b.add_state(), b.add_state(), b.add_state(), b.add_state()];
        let chain = b.add_states(len);
        let cycle = b.add_states(len);
        b.initial(u);
        b.internal(u, tau, v);
        b.output(v, f, chain[0]);
        b.internal(u2, tau, v2);
        b.output(v2, f, cycle[0]);
        for i in 1..len {
            b.markovian(chain[i - 1], 1.0, chain[i]);
            b.markovian(cycle[i - 1], 1.0, cycle[i]);
        }
        b.markovian(cycle[len - 1], 1.0, cycle[0]);
        let down = b.prop("down");
        b.set_prop(chain[len - 1], down);
        let model = b.build().unwrap();
        assert_matches_reference(&model, "inert steps");
        let p = refine(&model, true);
        assert_eq!(p.block(u), p.block(v));
        assert_eq!(p.block(u2), p.block(v2));
        assert_ne!(p.block(u), p.block(u2));
    }

    #[test]
    fn a_discrete_proposition_partition_is_returned_as_is() {
        // Three states with three different labellings: the initial partition
        // is already discrete, so it is the answer, whatever the transitions.
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[2]);
        b.internal(s[1], act("part_tau_discrete"), s[2]);
        let down = b.prop("down");
        let up = b.prop("up");
        b.set_prop(s[1], down);
        b.set_prop(s[2], up);
        let m = b.build().unwrap();
        for weak in [false, true] {
            let p = refine(&m, weak);
            assert_eq!(p.block_of, vec![0, 1, 2]);
            assert_eq!(p.num_blocks, 3);
        }
    }

    #[test]
    fn partition_blocks_enumeration_is_consistent() {
        let mut b = IoImcBuilder::new("m");
        let s = b.add_states(3);
        b.initial(s[0]);
        b.markovian(s[0], 1.0, s[1]);
        b.markovian(s[0], 1.0, s[2]);
        let m = b.build().unwrap();
        let p = refine(&m, false);
        let blocks = p.blocks();
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, m.num_states());
        for (bi, states) in blocks.iter().enumerate() {
            for &st in states {
                assert_eq!(p.block(st), bi as u32);
            }
        }
    }
}
