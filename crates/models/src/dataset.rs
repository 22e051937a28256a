//! `SynthVision`: a seeded, procedurally generated image-classification
//! dataset.
//!
//! This stands in for ImageNet (see DESIGN.md §2). Each class is defined by
//! a smooth multi-sinusoid template; samples are cyclically shifted, gain-
//! jittered, noisy renderings of their class template. The task is easy
//! enough for tiny CNNs/ViTs to learn to high accuracy yet rich enough that
//! low-bit quantization causes the graded accuracy loss the paper studies.

use clado_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// Configuration of a [`SynthVision`] dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthVisionConfig {
    /// Number of classes.
    pub classes: usize,
    /// Image side length (images are `3 × img × img`).
    pub img: usize,
    /// Training-set size.
    pub train: usize,
    /// Validation-set size.
    pub val: usize,
    /// Master seed; fixes templates and both splits.
    pub seed: u64,
    /// Additive noise standard deviation.
    pub noise: f32,
    /// Fraction of training/validation labels replaced by a uniformly
    /// random class. Keeps converged models off the zero-loss plateau so
    /// the second-order Taylor machinery operates in a realistic regime
    /// (mirrors ImageNet's irreducible error).
    pub label_noise: f32,
}

impl Default for SynthVisionConfig {
    fn default() -> Self {
        Self {
            classes: 10,
            img: 16,
            train: 1536,
            val: 512,
            seed: 0xC1AD0,
            noise: 0.45,
            label_noise: 0.08,
        }
    }
}

/// Number of image channels (RGB-like).
pub const CHANNELS: usize = 3;
/// Sinusoids per channel in each class template.
const WAVES: usize = 3;
/// Maximum cyclic shift applied to a sample, in pixels.
const MAX_SHIFT: i32 = 1;

/// A labelled split of images stored contiguously in NCHW order.
#[derive(Debug, Clone)]
pub struct DataSplit {
    images: Vec<f32>,
    labels: Vec<usize>,
    img: usize,
}

impl DataSplit {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image side length.
    pub fn img(&self) -> usize {
        self.img
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Returns samples `[start, start+len)` as a batch tensor plus labels.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn batch(&self, start: usize, len: usize) -> (Tensor, Vec<usize>) {
        assert!(start + len <= self.len(), "batch range out of bounds");
        let stride = CHANNELS * self.img * self.img;
        let images = self.images[start * stride..(start + len) * stride].to_vec();
        let t = Tensor::from_vec([len, CHANNELS, self.img, self.img], images)
            .expect("stride arithmetic");
        (t, self.labels[start..start + len].to_vec())
    }

    /// The whole split as one batch.
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        self.batch(0, self.len())
    }

    /// A new split containing the given sample indices (sensitivity sets).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> DataSplit {
        let stride = CHANNELS * self.img * self.img;
        let mut images = Vec::with_capacity(indices.len() * stride);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "subset index {i} out of bounds");
            images.extend_from_slice(&self.images[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        DataSplit {
            images,
            labels,
            img: self.img,
        }
    }

    /// A random subset of `size` samples drawn without replacement — the
    /// paper's *sensitivity set* construction ([`sample_indices`]).
    ///
    /// # Panics
    ///
    /// Panics if `size > self.len()`.
    pub fn sample_subset(&self, size: usize, seed: u64) -> DataSplit {
        self.subset(&sample_indices(self.len(), size, seed))
    }

    /// Iterates over `(batch, labels)` chunks of at most `batch_size`.
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = (Tensor, Vec<usize>)> + '_ {
        let n = self.len();
        (0..n.div_ceil(batch_size)).map(move |b| {
            let start = b * batch_size;
            let len = batch_size.min(n - start);
            self.batch(start, len)
        })
    }
}

/// The first `size` positions of a partial Fisher–Yates shuffle of
/// `0..len` seeded with `seed`: the sample indices of a sensitivity set,
/// for [`DataSplit::sample_subset`] and [`SynthVision::render`] alike.
///
/// # Panics
///
/// Panics if `size > len`.
pub fn sample_indices(len: usize, size: usize, seed: u64) -> Vec<usize> {
    assert!(size <= len, "subset size {size} exceeds split size {len}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..size {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx.truncate(size);
    idx
}

/// One of the two splits of a [`SynthVision`] dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// The training split; sensitivity sets are drawn from it.
    Train,
    /// The validation split.
    Val,
}

/// The full dataset: train and validation splits plus the class templates.
#[derive(Debug, Clone)]
pub struct SynthVision {
    /// Training split.
    pub train: DataSplit,
    /// Validation split.
    pub val: DataSplit,
    config: SynthVisionConfig,
}

impl SynthVision {
    /// Generates the dataset deterministically from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` or `img` is zero.
    pub fn generate(config: SynthVisionConfig) -> Self {
        assert!(
            config.classes > 0 && config.img > 0,
            "degenerate dataset config"
        );
        let templates = class_templates(&config);
        let [train, val] = [Split::Train, Split::Val].map(|split| {
            let count = split_len(&config, split);
            let mut rng = StdRng::seed_from_u64(stream_seed(&config, split));
            let mut images = Vec::with_capacity(count * CHANNELS * config.img * config.img);
            let labels = (0..count)
                .map(|_| draw_sample(&templates, &config, &mut rng, Some(&mut images)))
                .collect();
            DataSplit {
                images,
                labels,
                img: config.img,
            }
        });
        Self { train, val, config }
    }

    /// Samples `indices` of `split`, in that order, bitwise the samples
    /// [`generate`](Self::generate) puts at those positions, without
    /// rendering the rest of the split. A sensitivity set is
    /// `render(config, Split::Train, &sample_indices(config.train, size, seed))`.
    ///
    /// The process remembers, per (config, split), the class templates
    /// and the random-stream state at the start of every sample up to the
    /// largest index rendered so far. The first render walks the stream
    /// to its largest index (a sample not asked for consumes its random
    /// draws but computes no pixels); a later render walks only past the
    /// largest index seen before, and starts each sample from its
    /// remembered state.
    ///
    /// # Panics
    ///
    /// Panics if `classes` or `img` is zero, or if an index is out of
    /// bounds.
    pub fn render(config: SynthVisionConfig, split: Split, indices: &[usize]) -> DataSplit {
        assert!(
            config.classes > 0 && config.img > 0,
            "degenerate dataset config"
        );
        let count = split_len(&config, split);
        for &i in indices {
            assert!(
                i < count,
                "sample index {i} out of bounds ({count} samples)"
            );
        }
        let mut memos = STREAMS.lock().unwrap_or_else(|p| p.into_inner());
        let at = match memos
            .iter()
            .position(|m| m.config == config && m.split == split)
        {
            Some(at) => at,
            None => {
                if memos.len() == STREAM_MEMOS {
                    memos.remove(0);
                }
                memos.push(StreamMemo::new(config, split));
                memos.len() - 1
            }
        };
        let memo = &mut memos[at];
        memo.walk_to(indices.iter().max().map_or(0, |&i| i + 1));
        let mut images = Vec::with_capacity(indices.len() * CHANNELS * config.img * config.img);
        let labels = indices
            .iter()
            .map(|&i| {
                let mut rng = memo.starts[i].clone();
                draw_sample(&memo.templates, &config, &mut rng, Some(&mut images))
            })
            .collect();
        DataSplit {
            images,
            labels,
            img: config.img,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &SynthVisionConfig {
        &self.config
    }
}

/// Number of samples in `split`.
fn split_len(config: &SynthVisionConfig, split: Split) -> usize {
    match split {
        Split::Train => config.train,
        Split::Val => config.val,
    }
}

/// The seed of `split`'s sample stream.
fn stream_seed(config: &SynthVisionConfig, split: Split) -> u64 {
    match split {
        Split::Train => config.seed.wrapping_add(1),
        Split::Val => config.seed.wrapping_add(2),
    }
}

/// One smooth template per class: a sum of `WAVES` sinusoids per channel.
fn class_templates(config: &SynthVisionConfig) -> Vec<Vec<f32>> {
    let s = config.img;
    (0..config.classes)
        .map(|k| {
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (0x9E3779B9u64.wrapping_mul(k as u64 + 1)));
            let mut t = vec![0.0f32; CHANNELS * s * s];
            for c in 0..CHANNELS {
                for _ in 0..WAVES {
                    let fx: f32 = rng.gen_range(0.5..1.5);
                    let fy: f32 = rng.gen_range(0.5..1.5);
                    let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                    let amp: f32 = rng.gen_range(0.3..0.7);
                    for y in 0..s {
                        for x in 0..s {
                            let arg = std::f32::consts::TAU * (fx * x as f32 + fy * y as f32)
                                / s as f32
                                + phase;
                            t[(c * s + y) * s + x] += amp * arg.sin();
                        }
                    }
                }
            }
            t
        })
        .collect()
}

/// (config, split) streams [`SynthVision::render`] remembers; the least
/// recently created is forgotten first.
const STREAM_MEMOS: usize = 4;

static STREAMS: Mutex<Vec<StreamMemo>> = Mutex::new(Vec::new());

/// What [`SynthVision::render`] remembers of one split's sample stream.
struct StreamMemo {
    config: SynthVisionConfig,
    split: Split,
    templates: Vec<Vec<f32>>,
    /// `starts[i]`: the stream's state at the start of sample `i`.
    starts: Vec<StdRng>,
}

impl StreamMemo {
    fn new(config: SynthVisionConfig, split: Split) -> Self {
        Self {
            config,
            split,
            templates: class_templates(&config),
            starts: vec![StdRng::seed_from_u64(stream_seed(&config, split))],
        }
    }

    /// Skips through the stream until the starts of samples `0..end` are
    /// known.
    fn walk_to(&mut self, end: usize) {
        let mut rng = self.starts.last().expect("stream start").clone();
        while self.starts.len() < end {
            draw_sample(&self.templates, &self.config, &mut rng, None);
            self.starts.push(rng.clone());
        }
    }
}

/// Draws the next sample of a split's stream and returns its label. With
/// `images`, its pixels are rendered onto the end of `images`. Without,
/// the sample is skipped: it consumes exactly the draws rendering would,
/// two per pixel, but runs no Box–Muller transform. This relies on every
/// `gen_range` of the vendored `rand` taking one `next_u64`.
fn draw_sample(
    templates: &[Vec<f32>],
    config: &SynthVisionConfig,
    rng: &mut StdRng,
    images: Option<&mut Vec<f32>>,
) -> usize {
    let s = config.img;
    let k = rng.gen_range(0..config.classes);
    let dx = rng.gen_range(-MAX_SHIFT..=MAX_SHIFT);
    let dy = rng.gen_range(-MAX_SHIFT..=MAX_SHIFT);
    let gain: f32 = rng.gen_range(0.8..1.2);
    match images {
        Some(images) => {
            let t = &templates[k];
            let start = images.len();
            images.resize(start + CHANNELS * s * s, 0.0);
            // One row per (channel, y), in NCHW order.
            for (r, row) in images[start..].chunks_exact_mut(s).enumerate() {
                let (c, y) = (r / s, r % s);
                let sy = (y as i32 + dy).rem_euclid(s as i32) as usize;
                for (x, px) in row.iter_mut().enumerate() {
                    let sx = (x as i32 + dx).rem_euclid(s as i32) as usize;
                    let noise: f32 = {
                        // Box–Muller on two uniforms.
                        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
                    };
                    *px = gain * t[(c * s + sy) * s + sx] + config.noise * noise;
                }
            }
        }
        None => {
            for _ in 0..2 * CHANNELS * s * s {
                rng.next_u64();
            }
        }
    }
    // Label noise: replace with a uniformly random class.
    if config.label_noise > 0.0 && rng.gen_range(0.0..1.0f32) < config.label_noise {
        rng.gen_range(0..config.classes)
    } else {
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SynthVisionConfig {
        SynthVisionConfig {
            classes: 4,
            img: 16,
            train: 64,
            val: 32,
            seed: 7,
            noise: 0.2,
            label_noise: 0.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthVision::generate(tiny_config());
        let b = SynthVision::generate(tiny_config());
        assert_eq!(a.train.labels(), b.train.labels());
        let (ia, _) = a.train.batch(0, 4);
        let (ib, _) = b.train.batch(0, 4);
        assert_eq!(ia.data(), ib.data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthVision::generate(tiny_config());
        let b = SynthVision::generate(SynthVisionConfig {
            seed: 8,
            ..tiny_config()
        });
        let (ia, _) = a.train.batch(0, 4);
        let (ib, _) = b.train.batch(0, 4);
        assert_ne!(ia.data(), ib.data());
    }

    #[test]
    fn splits_have_requested_sizes_and_valid_labels() {
        let d = SynthVision::generate(tiny_config());
        assert_eq!(d.train.len(), 64);
        assert_eq!(d.val.len(), 32);
        assert!(d.train.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn batch_shapes() {
        let d = SynthVision::generate(tiny_config());
        let (t, l) = d.train.batch(0, 8);
        assert_eq!(t.shape().dims(), &[8, 3, 16, 16]);
        assert_eq!(l.len(), 8);
        let (full, _) = d.val.full_batch();
        assert_eq!(full.shape().dims(), &[32, 3, 16, 16]);
    }

    #[test]
    fn subset_and_sample_subset() {
        let d = SynthVision::generate(tiny_config());
        let sub = d.train.subset(&[0, 5, 9]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.labels()[1], d.train.labels()[5]);
        let s1 = d.train.sample_subset(16, 42);
        let s2 = d.train.sample_subset(16, 42);
        assert_eq!(s1.labels(), s2.labels());
        let s3 = d.train.sample_subset(16, 43);
        assert_ne!(s1.labels(), s3.labels()); // overwhelmingly likely
    }

    #[test]
    fn batches_cover_everything() {
        let d = SynthVision::generate(tiny_config());
        let mut total = 0;
        for (t, l) in d.train.batches(10) {
            assert_eq!(t.shape().dim(0), l.len());
            total += l.len();
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn classes_are_separable_by_template_distance() {
        // A nearest-template classifier should beat chance by a wide margin,
        // confirming the labels carry signal.
        let cfg = tiny_config();
        let d = SynthVision::generate(cfg);
        let templates = class_templates(&cfg);
        let (images, labels) = d.val.full_batch();
        let stride = CHANNELS * cfg.img * cfg.img;
        let mut correct = 0;
        for (i, &label) in labels.iter().enumerate() {
            let img = &images.data()[i * stride..(i + 1) * stride];
            let best = (0..cfg.classes)
                .min_by(|&a, &b| {
                    let da: f32 = img
                        .iter()
                        .zip(&templates[a])
                        .map(|(x, t)| (x - t).powi(2))
                        .sum();
                    let db: f32 = img
                        .iter()
                        .zip(&templates[b])
                        .map(|(x, t)| (x - t).powi(2))
                        .sum();
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("classes > 0");
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / labels.len() as f64;
        assert!(acc > 0.5, "nearest-template accuracy only {acc}");
    }
}
