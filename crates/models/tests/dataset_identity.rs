//! The SynthVision stream is pinned. Every cached `.cldw` file and every
//! measured Ω depends on it, so the default dataset must keep its bits,
//! and `SynthVision::render`, which renders only the samples asked for,
//! must give bit for bit the samples `SynthVision::generate` makes.

use clado_models::{sample_indices, DataSplit, Split, SynthVision, SynthVisionConfig};

/// FNV-1a over 64-bit words, continuing from `h`.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// [`fnv`] over a split's image bits, then its labels.
fn split_hash(h: u64, split: &DataSplit) -> u64 {
    let (images, labels) = split.full_batch();
    let h = fnv(h, images.data().iter().map(|x| u64::from(x.to_bits())));
    fnv(h, labels.iter().map(|&l| l as u64))
}

fn assert_bitwise_equal(a: &DataSplit, b: &DataSplit, what: &str) {
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    if a.is_empty() {
        return;
    }
    let (ia, _) = a.full_batch();
    let (ib, _) = b.full_batch();
    let bits = |t: &clado_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(bits(&ia) == bits(&ib), "{what}: image bits differ");
}

/// Captured from the default dataset before sets were rendered per
/// sample; a change that moves it changes every trained model.
#[test]
fn the_default_dataset_keeps_its_bits() {
    let d = SynthVision::generate(SynthVisionConfig::default());
    let h = split_hash(split_hash(0xcbf2_9ce4_8422_2325, &d.train), &d.val);
    assert_eq!(h, 0x34a9_f207_55b7_4bb8);
}

#[test]
fn rendered_samples_equal_the_generated_ones() {
    let configs = [
        SynthVisionConfig::default(),
        SynthVisionConfig {
            label_noise: 0.0,
            ..Default::default()
        },
    ];
    for cfg in configs {
        let data = SynthVision::generate(cfg);
        let n = cfg.train;
        for (size, seed) in [(0, 0), (1, 0), (8, 3), (64, 1), (128, 5), (n, 2)] {
            let what = format!("label_noise {} set {size}/{seed}", cfg.label_noise);
            let set = SynthVision::render(cfg, Split::Train, &sample_indices(n, size, seed));
            assert_bitwise_equal(&set, &data.train.sample_subset(size, seed), &what);
        }
        // The last sample alone, out of order and repeated.
        for indices in [vec![n - 1], vec![n - 1, 0, 7, n - 1, 3]] {
            let set = SynthVision::render(cfg, Split::Train, &indices);
            assert_bitwise_equal(&set, &data.train.subset(&indices), &format!("{indices:?}"));
        }
        let all: Vec<usize> = (0..cfg.val).collect();
        let val = SynthVision::render(cfg, Split::Val, &all);
        assert_bitwise_equal(&val, &data.val, "val split");
        let tail = [cfg.val - 2, cfg.val - 1];
        let last = SynthVision::render(cfg, Split::Val, &tail);
        assert_bitwise_equal(&last, &data.val.subset(&tail), "val tail");
    }
}

/// `render` remembers each stream's sample starts up to the largest index
/// it has rendered. A later render with indices below, at and past that
/// maximum must still give the generated samples, and so must a render
/// after the stream's memo was forgotten.
#[test]
fn a_render_past_an_earlier_maximum_equals_the_generated_samples() {
    // A config no other test renders, so the first render starts cold.
    let cfg = SynthVisionConfig {
        seed: 0x5EED_0036,
        train: 300,
        val: 40,
        ..Default::default()
    };
    let data = SynthVision::generate(cfg);
    let first = [17, 120, 64];
    let set = SynthVision::render(cfg, Split::Train, &first);
    assert_bitwise_equal(&set, &data.train.subset(&first), "first render");
    let second = [250, 3, 120, 119, 121, 299, 64];
    let set = SynthVision::render(cfg, Split::Train, &second);
    assert_bitwise_equal(&set, &data.train.subset(&second), "second render");
    // Renders of four other streams push this one out of the memo.
    for split in [Split::Train, Split::Val] {
        for seed in [1, 2] {
            let other = SynthVisionConfig { seed, ..cfg };
            SynthVision::render(other, split, &[5]);
        }
    }
    let set = SynthVision::render(cfg, Split::Train, &second);
    assert_bitwise_equal(&set, &data.train.subset(&second), "render after eviction");
    let val = [39, 0];
    let set = SynthVision::render(cfg, Split::Val, &val);
    assert_bitwise_equal(&set, &data.val.subset(&val), "val render");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn rendering_past_the_split_panics() {
    let cfg = SynthVisionConfig::default();
    SynthVision::render(cfg, Split::Val, &[cfg.val]);
}
