//! No aggregated model depends on hash order.
//!
//! `compose` indexes product states, and `refine` hands out block ids,
//! through maps whose hasher is seeded afresh for every map, so two runs of
//! the same pipeline in one process hash every key differently.  This suite
//! runs compose → hide → minimise twice and asserts equal
//! `ioimc::codec` bytes, for
//!
//! * every corpus tree, numeric and parametric: the whole aggregation
//!   (`aggregate`, which minimises, composes, hides and minimises again);
//! * the golden suite's 64 seeded random I/O-IMCs and their `RateForm` lifts:
//!   each minimised alone, and composed with a random listener on its
//!   outputs, those outputs hidden, and the product minimised.
//!
//! The codec writes actions in interning order, which is process-wide, so
//! this is one `#[test]`, like the golden suite.

use dftmc::dft::galileo::parse;
use dftmc::dft::Dft;
use dftmc::dft_core::aggregate::{aggregate, AggregationOptions};
use dftmc::dft_core::convert::{convert, convert_parametric, CommunityOf};
use dftmc::dft_core::rng::SplitMix64;
use dftmc::ioimc::bisim::minimize;
use dftmc::ioimc::codec::{encode_model, RateCodec, Writer};
use dftmc::ioimc::compose::compose;
use dftmc::ioimc::hide::hide;
use dftmc::ioimc::stats::ModelStats;
use dftmc::ioimc::{Action, IoImc, IoImcOf, RateForm};

mod common;
use common::random_model;

fn bytes_of<R: RateCodec>(model: &IoImcOf<R>) -> Vec<u8> {
    let mut w = Writer::new();
    encode_model(model, &mut w);
    w.into_bytes()
}

/// The codec bytes of the aggregated community, and the sizes before and
/// after every step.
fn aggregated<R: RateCodec>(community: &CommunityOf<R>) -> (Vec<u8>, Vec<[ModelStats; 2]>) {
    let options = AggregationOptions {
        keep: std::iter::once(community.top_failure)
            .chain(community.top_repair)
            .collect(),
    };
    let (model, stats) = aggregate(&community.models, &options).expect("community aggregates");
    let sizes = stats
        .steps
        .iter()
        .map(|step| [step.before_aggregation, step.after_aggregation])
        .collect();
    (bytes_of(&model), sizes)
}

fn assert_tree_is_hash_order_free(name: &str, dft: &Dft) {
    let community = convert(dft).expect("tree converts");
    assert!(
        aggregated(&community) == aggregated(&community),
        "{name}: aggregation depends on hash order"
    );
    let (community, _) = convert_parametric(dft).expect("tree converts parametrically");
    assert!(
        aggregated(&community) == aggregated(&community),
        "{name}: parametric aggregation depends on hash order"
    );
}

/// `model` minimised, and `model ∥ listener` with the model's `outputs`
/// hidden, minimised: codec bytes of both.
fn pipeline<R: RateCodec>(
    model: &IoImcOf<R>,
    listener: &IoImcOf<R>,
    outputs: &[Action],
) -> [Vec<u8>; 2] {
    let product = compose(model, listener).expect("pools never clash");
    let hidden: Vec<Action> = product
        .signature()
        .outputs()
        .filter(|a| outputs.contains(a))
        .collect();
    let product = hide(&product, &hidden).expect("hidden actions are outputs");
    [bytes_of(&minimize(model)), bytes_of(&minimize(&product))]
}

#[test]
fn aggregation_never_depends_on_hash_order() {
    let mut corpus: Vec<_> = std::fs::read_dir("tests/fixtures/corpus")
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dft"))
        .collect();
    corpus.sort();
    assert!(!corpus.is_empty());
    for path in &corpus {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let dft = parse(&text).expect("corpus tree parses");
        assert_tree_is_hash_order_free(&path.display().to_string(), &dft);
    }

    let named = |prefix: &str, k: usize| -> Vec<Action> {
        (0..k)
            .map(|i| Action::new(&format!("golden_{prefix}{i}")))
            .collect()
    };
    let (inputs, outputs, taus) = (named("in", 3), named("out", 3), named("tau", 2));
    // The listener hears the model's outputs and speaks its own pools.
    let (heard, spoken, quiet) = (outputs.clone(), named("echo", 3), named("hush", 2));
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0x601d_0000 + seed);
        let model = random_model(&mut rng, &inputs, &outputs, &taus);
        let mut rng = SplitMix64::new(0x4a54_0000 + seed);
        let listener: IoImc = random_model(&mut rng, &heard, &spoken, &quiet);
        assert!(
            pipeline(&model, &listener, &outputs) == pipeline(&model, &listener, &outputs),
            "random model {seed} depends on hash order"
        );
        let lift = |m: &IoImc| m.map_rates(|&r| RateForm::scaled_var((r * 2.0) as u32 % 3, r));
        let (model, listener) = (lift(&model), lift(&listener));
        assert!(
            pipeline(&model, &listener, &outputs) == pipeline(&model, &listener, &outputs),
            "random model {seed} (parametric) depends on hash order"
        );
    }
}
