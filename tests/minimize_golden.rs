//! Golden fingerprints of weak-bisimulation minimisation.
//!
//! Every downstream bit of an analysis follows from the models
//! `ioimc::bisim::minimize` returns, so this suite pins them byte for byte:
//! it hashes the `ioimc::codec::encode_model` bytes of the minimised model for
//!
//! * every member of the converted community and the closed model of each
//!   corpus tree, numeric and parametric;
//! * the same for the paper's two case studies (CAS and CPS);
//! * 64 seeded random I/O-IMCs (and their parametric lifts) with internal
//!   cycles, propositions, inputs, urgent Markovian races and equal-rate
//!   branches.
//!
//! A change to the refinement or the quotient that alters block numbering,
//! transition order or the order in which rates are summed changes a
//! fingerprint.
//!
//! Every fingerprinted model is also checked to be a fixpoint: minimising it
//! again gives the same bytes (up to the model name).
//!
//! The codec writes actions in interning order, which is process-wide, so the
//! suite is deliberately a single `#[test]`: its binary interns every action
//! in the same order on every run.

use dftmc::dft::galileo::parse;
use dftmc::dft::Dft;
use dftmc::dft_core::casestudies::{cas, cps};
use dftmc::dft_core::convert::{convert, convert_parametric};
use dftmc::dft_core::rng::SplitMix64;
use dftmc::dft_core::{AnalysisOptions, Analyzer, ParametricAnalyzer};
use dftmc::ioimc::bisim::minimize;
use dftmc::ioimc::codec::{encode_model, RateCodec, Writer};
use dftmc::ioimc::{Action, IoImc, IoImcOf, RateForm};

mod common;
use common::random_model;

/// FNV-1a over a byte string: small, stable across platforms and releases.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the codec bytes of each model into one fingerprint.
fn fingerprint<'a, R: RateCodec + 'a>(models: impl IntoIterator<Item = &'a IoImcOf<R>>) -> u64 {
    let mut hash = FNV_OFFSET;
    for model in models {
        let mut w = Writer::new();
        encode_model(model, &mut w);
        let bytes = w.into_bytes();
        fnv1a(&mut hash, &(bytes.len() as u64).to_le_bytes());
        fnv1a(&mut hash, &bytes);
    }
    hash
}

/// The codec bytes of `model` under a fixed name.
fn bytes_of<R: RateCodec>(model: &IoImcOf<R>) -> Vec<u8> {
    let mut model = model.clone();
    model.set_name("m");
    let mut w = Writer::new();
    encode_model(&model, &mut w);
    w.into_bytes()
}

/// Panics unless minimising each of `minimised` again gives the same bytes.
fn assert_fixpoints<'a, R: RateCodec + 'a>(
    case: &str,
    minimised: impl IntoIterator<Item = &'a IoImcOf<R>>,
) {
    for (i, model) in minimised.into_iter().enumerate() {
        assert!(
            bytes_of(&minimize(model)) == bytes_of(model),
            "{case}: model {i} changes when minimised again"
        );
    }
}

/// The four fingerprints of one tree: minimised community members and closed
/// model, numeric then parametric.
fn tree_fingerprints(name: &str, dft: &Dft, out: &mut Vec<(String, u64)>) {
    let community = convert(dft).expect("tree converts");
    let members: Vec<IoImc> = community.models.iter().map(minimize).collect();
    assert_fixpoints(name, &members);
    out.push((format!("{name}/community"), fingerprint(&members)));

    let (community, _) = convert_parametric(dft).expect("tree converts parametrically");
    let members: Vec<IoImcOf<RateForm>> = community.models.iter().map(minimize).collect();
    assert_fixpoints(name, &members);
    out.push((
        format!("{name}/community_parametric"),
        fingerprint(&members),
    ));

    let session = Analyzer::new(dft, AnalysisOptions::default()).expect("tree builds");
    let closed = session.final_model().expect("compositional session");
    assert_fixpoints(name, [closed]);
    out.push((format!("{name}/closed"), fingerprint([closed])));

    let session = ParametricAnalyzer::new(dft, AnalysisOptions::default())
        .expect("tree builds parametrically");
    let closed = session.final_model().expect("compositional session");
    assert_fixpoints(name, [closed]);
    out.push((format!("{name}/closed_parametric"), fingerprint([closed])));
}

fn random_fingerprints(out: &mut Vec<(String, u64)>) {
    let named = |prefix: &str, k: usize| -> Vec<Action> {
        (0..k)
            .map(|i| Action::new(&format!("golden_{prefix}{i}")))
            .collect()
    };
    let inputs = named("in", 3);
    let outputs = named("out", 3);
    let taus = named("tau", 2);
    let mut numeric = Vec::new();
    let mut parametric = Vec::new();
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0x601d_0000 + seed);
        let model = random_model(&mut rng, &inputs, &outputs, &taus);
        // Lift rate r to the form r·λ_k, with the slot chosen by the rate so
        // equal numeric rates stay equal forms.
        let lifted = model.map_rates(|&r| RateForm::scaled_var((r * 2.0) as u32 % 3, r));
        numeric.push(minimize(&model));
        parametric.push(minimize(&lifted));
    }
    assert_fixpoints("random", &numeric);
    assert_fixpoints("random/parametric", &parametric);
    for (chunk, (num, par)) in numeric.chunks(16).zip(parametric.chunks(16)).enumerate() {
        out.push((format!("random/{chunk}"), fingerprint(num)));
        out.push((format!("random/{chunk}/parametric"), fingerprint(par)));
    }
}

/// The committed fingerprints.  Regenerate only for an intended change of
/// the minimised models, with the reason on record.
const GOLDEN: &[(&str, u64)] = &[
    ("cas_lite/community", 0x0abf0efdb22a5e1e),
    ("cas_lite/community_parametric", 0x43dcde70c7cff9a1),
    ("cas_lite/closed", 0x9d49001697e00cd6),
    ("cas_lite/closed_parametric", 0xf68b69a1df4e0121),
    ("cps_lite/community", 0xbc92d0aea3bf1296),
    ("cps_lite/community_parametric", 0x3c94031ebcfb2fae),
    ("cps_lite/closed", 0x31548fd38e1ff7dc),
    ("cps_lite/closed_parametric", 0xfe0d530acd34fc63),
    ("ftpp/community", 0xd1617481e15acc4c),
    ("ftpp/community_parametric", 0xf679c7a7ac931021),
    ("ftpp/closed", 0x13ae24f0c3e5d8c7),
    ("ftpp/closed_parametric", 0x5264532d527b9d4c),
    ("hcps_repair/community", 0xdd057713b19fdbf7),
    ("hcps_repair/community_parametric", 0x25d041c94c6ab667),
    ("hcps_repair/closed", 0xbedda6c4f5a57273),
    ("hcps_repair/closed_parametric", 0xf2d398b2393c4779),
    ("hecs/community", 0xe38bb93e506e9432),
    ("hecs/community_parametric", 0x95f916d5b8f8c399),
    ("hecs/closed", 0x2e0a65e25fdc3772),
    ("hecs/closed_parametric", 0x261efa2ff35855ca),
    ("mdcs/community", 0x6c2227a9fe9f2ee0),
    ("mdcs/community_parametric", 0x6a242e5fc9d53168),
    ("mdcs/closed", 0xee77cfabf1dcc27b),
    ("mdcs/closed_parametric", 0xc3f5d3e9dfcadbba),
    ("pand_chain/community", 0x7a3e22b41d40ce70),
    ("pand_chain/community_parametric", 0x860b07ad1f29da12),
    ("pand_chain/closed", 0x3a69bfa7a3d00b6e),
    ("pand_chain/closed_parametric", 0x1fbd5a2c03e7e839),
    ("rc_gate/community", 0xdd191d004f88885d),
    ("rc_gate/community_parametric", 0x5aa31b3fe589a053),
    ("rc_gate/closed", 0xf95ba51181389ff8),
    ("rc_gate/closed_parametric", 0x6032d8baaac1e79f),
    ("safety_interlock/community", 0xefe110192296dd08),
    ("safety_interlock/community_parametric", 0xfd3dee9963a3190a),
    ("safety_interlock/closed", 0xa3ac8c9d09162480),
    ("safety_interlock/closed_parametric", 0x2149a0ca5b3839ec),
    ("sap/community", 0x4ae0820abdf5ec45),
    ("sap/community_parametric", 0xe2ad7785405a770b),
    ("sap/closed", 0xb973f3beea7bbefd),
    ("sap/closed_parametric", 0x4e20d30f43133788),
    ("static_crown/community", 0xe7c5f11562e5f4fa),
    ("static_crown/community_parametric", 0x5bdc6a8154f95e7a),
    ("static_crown/closed", 0x2d1bad32eda42090),
    ("static_crown/closed_parametric", 0x4c4a3aa890d32613),
    ("cas/community", 0x3ccff1125e84e616),
    ("cas/community_parametric", 0xe69fcfd08798eed4),
    ("cas/closed", 0x91b12dc172e87805),
    ("cas/closed_parametric", 0x8cff77bdbe534c94),
    ("cps/community", 0xc26327af83ad2bc0),
    ("cps/community_parametric", 0x29f64992461e84bc),
    ("cps/closed", 0x6e4279baef4f3604),
    ("cps/closed_parametric", 0x99c6598e51da3d59),
    ("random/0", 0xa1c4a833bec7d861),
    ("random/0/parametric", 0x7f87af35c4a9a668),
    ("random/1", 0x6dc9dfc711e215ab),
    ("random/1/parametric", 0xe6df4d3679b91b63),
    ("random/2", 0x69d6fd7ee2a6da0a),
    ("random/2/parametric", 0x41dba5b8f96a8381),
    ("random/3", 0x0aef7a02a5e3eac6),
    ("random/3/parametric", 0xdecb81a284c84057),
];

#[test]
fn minimised_models_match_their_golden_fingerprints() {
    let mut actual: Vec<(String, u64)> = Vec::new();

    let mut corpus: Vec<_> = std::fs::read_dir("tests/fixtures/corpus")
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dft"))
        .collect();
    corpus.sort();
    for path in &corpus {
        let name = path.file_stem().expect("file name").to_string_lossy();
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let dft = parse(&text).expect("corpus tree parses");
        tree_fingerprints(&name, &dft, &mut actual);
    }
    tree_fingerprints("cas", &cas(), &mut actual);
    tree_fingerprints("cps", &cps(), &mut actual);
    random_fingerprints(&mut actual);

    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", 0x{hash:016x}),"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, h)| (n.to_owned(), h)).collect();
    let changed: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a.0.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && changed.is_empty(),
        "minimised-model fingerprints changed ({} of {} cases: {changed:?}); current table:\n{}",
        changed.len() + actual.len().abs_diff(expected.len()),
        actual.len(),
        rendered.join("\n")
    );
}
