//! # apa-nn
//!
//! A from-scratch dense-layer neural-network training substrate with
//! pluggable matrix-multiplication backends — the reproduction of the
//! paper's TensorFlow-with-custom-operators setup (§4–5):
//!
//! * [`backend`] — the [`MatmulBackend`](backend::MatmulBackend) trait plus
//!   classical and APA implementations;
//! * [`layer`] / [`loss`] / [`net`] — dense layers, softmax cross-entropy
//!   and the batched-SGD [`Mlp`](net::Mlp);
//! * [`data`] — batching/shuffling, the IDX (real MNIST) loader and the
//!   synthetic-MNIST generator (documented substitution, DESIGN.md §2);
//! * [`mnist_mlp`] — the paper's accuracy (784-300-300-10) and ParaDnn
//!   performance networks;
//! * [`vgg`] — the VGG-19 fully connected head, timed per batch;
//! * [`optimizer`] — momentum SGD + weight decay;
//! * [`checkpoint`] — versioned, checksummed, atomically written training
//!   checkpoints and the crash-safe [`CheckpointedTrainer`] resume loop;
//! * [`tensor`] — small dense helpers (bias, reductions, the ReLU mask).

pub mod backend;
pub mod checkpoint;
pub mod data;
pub mod layer;
pub mod loss;
pub mod mnist_mlp;
pub mod net;
pub mod optimizer;
pub mod tensor;
pub mod vgg;

pub use backend::{
    apa, classical, guarded, planned, planned_guarded, ApaBackend, Backend, GuardedBackend,
    MatmulBackend, PlannedBackend,
};
pub use checkpoint::{
    CheckpointError, CheckpointManager, CheckpointedTrainer, EpochProgress, LayerState, TrainState,
    TrainerConfig,
};
pub use data::{
    load_mnist_idx, synthetic_mnist, synthetic_mnist_split, try_load_mnist_idx, DataError, Dataset,
    IdxKind,
};
pub use layer::{Activation, Dense};
pub use loss::{accuracy, softmax_cross_entropy, softmax_rows};
pub use mnist_mlp::{accuracy_network, performance_network, ACCURACY_BATCH};
pub use net::{EpochStats, InferenceScratch, Mlp};
pub use optimizer::{Optimizer, SgdConfig};
pub use vgg::{Vgg19Fc, VGG_FC_WIDTHS};
