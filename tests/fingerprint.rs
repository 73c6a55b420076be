//! A bit-exact fingerprint of the f32 system, end to end.
//!
//! The identity suites each claim that one part of the stack gives the
//! same bits by two routes. This test pins the whole chain once, against
//! committed constants: the generated dataset, every mean-loss bit of a
//! short resident training, the F1 bits of a resident and of a stored
//! evaluation (a spilled full store that carries `Â·X`) of every split,
//! and the probability bits `NodeClassifier` answers for 64 nodes on a mem
//! store and on an mmap store. Two more parts read stores in the `natural`
//! placement order: the losses of a training from a natural spill behind a
//! 4 KiB shard cache, and the answers on a natural temp spill without
//! `Â·X`, whose layer 1 cuts level-0 tiles through the placement map. The
//! parts are hashed separately, dataset first, so a mismatch names the
//! first layer that moved.
//!
//! A change that reorders an accumulation on purpose updates the
//! constants and states the old and new values in its change log; a
//! refactor that claims bit-identity must leave them alone.

use gsgcn::core::trainer::EvalSplit;
use gsgcn::core::{GsGcnTrainer, TrainerConfig};
use gsgcn::data::{presets, Dataset, StoreDataset};
use gsgcn::graph::{GraphStore, StoreBackend, StoreOrder};
use gsgcn::nn::model::GcnModel;
use gsgcn::serve::NodeClassifier;
use gsgcn::tensor::{DMatrix, Precision};
use std::sync::Arc;

/// `(part, FNV-1a 64 of its bits)`, in the order the parts are built.
const FINGERPRINT: [(&str, u64); 7] = [
    ("dataset", 0xbfa9c0411499f988),
    ("training losses", 0x74f71395c60064c9),
    ("resident F1", 0xdccaf58190f07031),
    ("stored F1", 0xdccaf58190f07031),
    ("serving probabilities", 0x9eaa13b02a89490d),
    ("natural store training losses", 0x74f71395c60064c9),
    ("natural store serving probabilities", 0xe8b64e5d76f33188),
];

/// FNV-1a over 32-bit words, so no hasher's version can move it.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u32>) {
        for w in ws {
            self.word(w);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.words(xs.iter().map(|x| x.to_bits()));
    }

    fn f64(&mut self, x: f64) {
        let bits = x.to_bits();
        self.words([bits as u32, (bits >> 32) as u32]);
    }

    fn matrix(&mut self, m: &DMatrix) {
        self.words([m.rows() as u32, m.cols() as u32]);
        self.f32s(m.data());
    }
}

fn dataset_hash(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.words(d.graph.offsets().iter().map(|&o| o as u32));
    h.words(d.graph.adjacency().iter().copied());
    h.matrix(&d.features);
    h.matrix(&d.labels);
    for ids in [&d.split.train, &d.split.val, &d.split.test] {
        h.word(ids.len() as u32);
        h.words(ids.iter().copied());
    }
    h.0
}

const SPLITS: [EvalSplit; 3] = [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test];

fn config() -> TrainerConfig {
    let mut cfg = TrainerConfig::quick_test();
    cfg.hidden_dims = vec![32, 32];
    cfg.sampler.budget = 120;
    cfg.sampler.frontier_size = 20;
    cfg
}

/// A fresh model carrying `trainer`'s weights, for serving.
fn serving_model(trainer: &GsGcnTrainer<'_>) -> Arc<GcnModel> {
    let mut model = GcnModel::new(trainer.model().config().clone(), 0);
    model.set_precision(Precision::F32);
    model
        .import_weights(&trainer.model().export_weights())
        .unwrap();
    Arc::new(model)
}

fn hash_answers(h: &mut Fnv, classifier: &NodeClassifier, nodes: &[u32]) {
    for p in classifier.classify(nodes).unwrap() {
        h.word(p.node);
        h.f32s(&p.probs);
    }
}

#[test]
fn the_f32_system_fingerprint_holds() {
    // Reddit-shaped: single-label, and features wide enough that the
    // resident evaluation keeps only some rows of `Â·X`.
    let d = presets::scale_spec(&presets::reddit_spec(), 400).generate(2026);
    let dir = std::env::temp_dir().join(format!("gsgcn-fingerprint-{}", std::process::id()));
    d.spill_to_dir_ordered(&dir, 4, StoreOrder::Bfs).unwrap();
    let sd = StoreDataset::open_with(&dir, StoreBackend::Mmap, 1 << 20).unwrap();
    assert!(sd.full.has_agg(), "an f32 spill carries Â·X");

    let mut got = Vec::new();
    got.push(dataset_hash(&d));

    let mut t = GsGcnTrainer::new(&d, config())
        .unwrap()
        .with_precision(Precision::F32);
    let mut losses = Fnv::new();
    for _ in 0..3 {
        losses.f32s(&[t.train_epoch().unwrap().mean_loss]);
    }
    got.push(losses.0);

    let mut resident = Fnv::new();
    for split in SPLITS {
        resident.f64(t.try_evaluate(split).unwrap());
    }
    got.push(resident.0);

    let mut stored_trainer = GsGcnTrainer::from_store(&sd, config())
        .unwrap()
        .with_precision(Precision::F32);
    stored_trainer
        .import_weights(&t.model().export_weights())
        .unwrap();
    let mut stored = Fnv::new();
    for split in SPLITS {
        stored.f64(stored_trainer.try_evaluate(split).unwrap());
    }
    got.push(stored.0);

    let model = serving_model(&t);
    let n = d.graph.num_vertices() as u32;
    let nodes: Vec<u32> = (0..64u32).map(|i| (i * 37 + 5) % n).collect();
    let mem = NodeClassifier::new(
        Arc::clone(&model),
        Arc::new(d.graph.clone()),
        Arc::new(d.features.clone()),
    )
    .unwrap();
    let mmap = NodeClassifier::from_store(Arc::clone(&model), Arc::clone(&sd.full)).unwrap();
    let mut serving = Fnv::new();
    hash_answers(&mut serving, &mem, &nodes);
    hash_answers(&mut serving, &mmap, &nodes);
    got.push(serving.0);

    drop(stored_trainer);
    drop(mmap);
    drop(sd);
    std::fs::remove_dir_all(&dir).ok();

    let natural_dir = dir.with_extension("natural");
    d.spill_to_dir_ordered(&natural_dir, 4, StoreOrder::Natural)
        .unwrap();
    let natural = StoreDataset::open_with(&natural_dir, StoreBackend::Mmap, 4 << 10).unwrap();
    let mut natural_trainer = GsGcnTrainer::from_store(&natural, config())
        .unwrap()
        .with_precision(Precision::F32);
    let mut natural_losses = Fnv::new();
    for _ in 0..3 {
        natural_losses.f32s(&[natural_trainer.train_epoch().unwrap().mean_loss]);
    }
    got.push(natural_losses.0);
    drop(natural_trainer);
    drop(natural);
    std::fs::remove_dir_all(&natural_dir).ok();

    let store = GraphStore::spill_to_temp(
        &d.graph,
        Some(&d.features),
        None,
        StoreOrder::Natural,
        4 << 10,
    )
    .unwrap();
    assert!(!store.has_agg());
    let natural_mmap = NodeClassifier::from_store(Arc::clone(&model), Arc::new(store)).unwrap();
    let mut natural_serving = Fnv::new();
    hash_answers(&mut natural_serving, &natural_mmap, &nodes);
    got.push(natural_serving.0);
    let now: Vec<String> = FINGERPRINT
        .iter()
        .zip(&got)
        .map(|(&(part, _), h)| format!("(\"{part}\", 0x{h:016x})"))
        .collect();
    for (&(part, want), &h) in FINGERPRINT.iter().zip(&got) {
        assert_eq!(
            h,
            want,
            "{part} moved; the fingerprint now reads [{}]",
            now.join(", ")
        );
    }
}
