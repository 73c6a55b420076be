//! The process-wide precision pinned by `force_global` is the initial
//! precision of every model built afterwards, the trainer's included. The
//! `e2e` benchmark harness names its workloads' precision only through
//! it: were the pin lost, `train_bf16` would quietly train in f32.
//!
//! The pin latches for the whole process, so this file holds one test.

use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::presets;
use gsgcn_nn::model::{GcnConfig, GcnModel};
use gsgcn_tensor::precision::{force_global, pinned};
use gsgcn_tensor::Precision;

#[test]
fn pinned_precision_is_the_initial_precision_of_new_models() {
    assert_eq!(pinned(), Precision::F32, "nothing pinned yet");
    assert_eq!(force_global(Precision::Bf16), Precision::Bf16);
    assert_eq!(
        force_global(Precision::F32),
        Precision::Bf16,
        "first pin wins"
    );

    let cfg = GcnConfig {
        in_dim: 4,
        ..GcnConfig::default()
    };
    let model = GcnModel::new(cfg, 1);
    assert_eq!(model.precision(), Precision::Bf16);
    assert_eq!(model.input_precision(), Precision::Bf16);

    let d = presets::scale_spec(&presets::ppi_spec(), 100).generate(3);
    let mut t = GsGcnTrainer::new(&d, TrainerConfig::quick_test()).unwrap();
    assert_eq!(t.model().input_precision(), Precision::Bf16);
    t.train_epoch().unwrap();
    assert_eq!(t.model().precision(), Precision::Bf16);
    let t = t.with_precision(Precision::F32);
    assert_eq!(t.model().input_precision(), Precision::F32);
}
