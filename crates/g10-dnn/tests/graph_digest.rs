//! Every built-in model's graph is pinned by a digest.
//!
//! The digest covers, in order, each tensor's kind, byte size and name, then
//! each kernel's name, class, cost bits, inputs and outputs.  A change to how
//! graphs are stored or built must leave every digest unchanged; a change
//! that means to alter a graph updates the pinned value here on purpose.

use g10_dnn::graph::DnnGraph;
use g10_dnn::models::{build_model, ModelKind};

const ALL_MODELS: [ModelKind; 8] = [
    ModelKind::Bert,
    ModelKind::Vit,
    ModelKind::InceptionV3,
    ModelKind::ResNet152,
    ModelKind::SENet154,
    ModelKind::TinyCnn,
    ModelKind::TinyTransformer,
    ModelKind::StressGpt,
];

/// FNV-1a over bytes; words and lengths are fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }
}

fn digest(graph: &DnnGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(graph.num_tensors() as u64);
    for t in graph.tensors() {
        h.word(t.kind() as u64);
        h.word(t.bytes());
        h.text(&graph.tensor_name(t.id()).to_string());
    }
    h.word(graph.num_kernels() as u64);
    for k in graph.kernels() {
        h.text(&graph.kernel_name(k.id()).to_string());
        h.word(k.class() as u64);
        h.word(k.cost().flops.to_bits());
        h.word(k.cost().bytes.to_bits());
        for operands in [graph.inputs(k.id()), graph.outputs(k.id())] {
            h.word(operands.len() as u64);
            for t in operands {
                h.word(t.index() as u64);
            }
        }
    }
    h.0
}

/// `(model, batch, digest)`: every built-in model at its evaluation batch
/// and at the smallest batch of its sweep.
const PINNED: [(ModelKind, u64, u64); 16] = [
    (ModelKind::Bert, 256, 0xf0d75c18ef6bd219),
    (ModelKind::Bert, 128, 0x3a9295a6db9c7b02),
    (ModelKind::Vit, 1280, 0x79b0785cac3c03d8),
    (ModelKind::Vit, 256, 0x2eceffaeaa607a28),
    (ModelKind::InceptionV3, 1536, 0xe7826dd60f993571),
    (ModelKind::InceptionV3, 512, 0xea0dafcb17b7d034),
    (ModelKind::ResNet152, 1280, 0x264918e641c1f808),
    (ModelKind::ResNet152, 256, 0x6b780d5e2f70e815),
    (ModelKind::SENet154, 1024, 0x56fb3c1e03c5293f),
    (ModelKind::SENet154, 256, 0xfaea9ef6fc392a37),
    (ModelKind::TinyCnn, 32, 0x6b3bfe2f1b4a9ab7),
    (ModelKind::TinyCnn, 8, 0xf8f0a0abacd5ed91),
    (ModelKind::TinyTransformer, 32, 0xe9f504087580c1ec),
    (ModelKind::TinyTransformer, 8, 0x5c9b67ea6b897bca),
    (ModelKind::StressGpt, 8, 0xc73c7a84905a9818),
    (ModelKind::StressGpt, 4, 0x56baaa292b0a8a0c),
];

#[test]
fn every_built_in_graph_matches_its_pinned_digest() {
    let mut cells = Vec::new();
    for model in ALL_MODELS {
        for batch in [model.eval_batch(), model.batch_sweep()[0]] {
            cells.push((model, batch));
        }
    }
    let pinned: Vec<(ModelKind, u64)> = PINNED.iter().map(|&(m, b, _)| (m, b)).collect();
    assert_eq!(
        cells, pinned,
        "every built-in model at both batches is pinned"
    );
    for (model, batch, expected) in PINNED {
        let actual = digest(&build_model(model, batch));
        assert_eq!(
            actual, expected,
            "{model} at batch {batch}: digest 0x{actual:016x}, pinned 0x{expected:016x}"
        );
    }
}
