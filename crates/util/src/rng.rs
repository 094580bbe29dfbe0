//! Deterministic, partition-independent random number streams.
//!
//! Graph generation must not change when the thread count changes, or the
//! scaling experiments would compare runs on *different* graphs. Each unit of
//! work (an edge index, a vertex index) derives its own ChaCha8 stream from
//! `(seed, index)`, so any parallel schedule produces identical output.
//!
//! [`ChaCha8Rng`] and its samplers reproduce `rand_chacha` 0.3 and `rand`
//! 0.8.5 word for word — the ChaCha block function, `rand_core`'s PCG32
//! seed expansion and block-buffer walk, and each sampler's consumption of
//! `next_u32` versus `next_u64` — so every seeded generator yields the same
//! graphs as those crates did, bit for bit (`tests/golden.rs` pins one).

/// Derives an independent RNG for work item `index` under `seed`.
///
/// ChaCha8 is a counter-mode cipher: distinct `(seed, stream)` pairs give
/// statistically independent streams, and construction is O(1).
#[inline]
pub fn stream(seed: u64, index: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(index);
    rng
}

/// A small, fast, non-cryptographic mixer for hashing indices (SplitMix64
/// finalizer). Used where full RNG quality is unnecessary, e.g. picking a
/// deterministic "random" tie-break order.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const BLOCK_WORDS: usize = 16;
const BUF_BLOCKS: u64 = 4;
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS as usize;

/// ChaCha with 8 rounds over a 256-bit key, with selectable 64-bit
/// streams: a 64-bit block counter sits in words 12–13 and the stream id in
/// words 14–15, and four blocks at a time fill a 64-word buffer.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block position of the next buffer refill.
    block: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` when it is used up.
    index: usize,
}

impl ChaCha8Rng {
    /// A generator keyed by 32 little-endian seed bytes, at stream 0.
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaCha8Rng {
            key,
            block: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// A generator keyed by `state` expanded to 32 bytes with PCG32, as
    /// `rand_core` 0.6's `seed_from_u64` does.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    /// Selects stream `stream`, keeping the position within the stream.
    fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        if self.index != BUF_WORDS {
            // Words already buffered belong to the old stream: regenerate
            // the buffer from the same position.
            let block = self.block.wrapping_sub(BUF_BLOCKS);
            self.block = block.wrapping_add((self.index / BLOCK_WORDS) as u64);
            let offset = self.index % BLOCK_WORDS;
            self.refill();
            self.index = offset;
        }
    }

    fn refill(&mut self) {
        for b in 0..BUF_BLOCKS as usize {
            let counter = self.block.wrapping_add(b as u64);
            let out = &mut self.buf[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS];
            chacha8_block(&self.key, counter, self.stream, out);
        }
        self.block = self.block.wrapping_add(BUF_BLOCKS);
        self.index = 0;
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let x = self.buf[self.index];
        self.index += 1;
        x
    }

    /// Two consecutive words, low first; a pair split across a refill takes
    /// its low word from the old buffer, as `rand_core`'s `BlockRng` does.
    pub fn next_u64(&mut self) -> u64 {
        if self.index < BUF_WORDS - 1 {
            let (lo, hi) = (self.buf[self.index], self.buf[self.index + 1]);
            self.index += 2;
            u64::from(hi) << 32 | u64::from(lo)
        } else if self.index >= BUF_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = self.buf[BUF_WORDS - 1];
            self.refill();
            self.index = 1;
            u64::from(self.buf[0]) << 32 | u64::from(lo)
        }
    }

    /// A value of `T`'s standard distribution (`rand`'s `Rng::gen`).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range` (`rand`'s `Rng::gen_range`); panics if
    /// the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }
}

fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

fn chacha8_block(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32]) {
    let mut init = [0u32; 16];
    // "expand 32-byte k"
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    init[14] = stream as u32;
    init[15] = (stream >> 32) as u32;
    let mut x = init;
    for _ in 0..4 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (o, (a, b)) in out.iter_mut().zip(x.iter().zip(init.iter())) {
        *o = a.wrapping_add(*b);
    }
}

/// Types [`ChaCha8Rng::gen`] can draw (`rand`'s `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut ChaCha8Rng) -> Self;
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample(rng: &mut ChaCha8Rng) -> f64 {
        let scale = 1.0 / (1u64 << 53) as f64;
        scale * (rng.next_u64() >> 11) as f64
    }
}

impl Standard for bool {
    /// The sign bit of one 32-bit word.
    fn sample(rng: &mut ChaCha8Rng) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

macro_rules! standard_int {
    ($($ty:ty => $next:ident),*) => {$(
        impl Standard for $ty {
            fn sample(rng: &mut ChaCha8Rng) -> $ty {
                rng.$next() as $ty
            }
        }
    )*};
}

standard_int!(u32 => next_u32, u64 => next_u64, usize => next_u64);

/// Ranges [`ChaCha8Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single(self, rng: &mut ChaCha8Rng) -> T;
    /// True when the range holds no value.
    fn is_empty(&self) -> bool;
}

// rand 0.8.5's `UniformInt::sample_single_inclusive` for types of 32 bits
// or more: multiply a random word by the range width and keep the high
// half, rejecting low halves above a conservative zone so the result is
// unbiased.
macro_rules! uniform_int {
    ($($ty:ty, $large:ty, $wide:ty);*) => {$(
        impl SampleRange<$ty> for std::ops::RangeInclusive<$ty> {
            fn sample_single(self, rng: &mut ChaCha8Rng) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $large;
                if range == 0 {
                    return <$ty as Standard>::sample(rng);
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$large as Standard>::sample(rng);
                    let wide = v as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }

            fn is_empty(&self) -> bool {
                std::ops::RangeInclusive::is_empty(self)
            }
        }

        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample_single(self, rng: &mut ChaCha8Rng) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample_single(rng)
            }

            fn is_empty(&self) -> bool {
                self.start >= self.end
            }
        }
    )*};
}

uniform_int!(u32, u32, u64; u64, u64, u128; usize, u64, u128);

impl SampleRange<f64> for std::ops::Range<f64> {
    /// rand 0.8.5's `UniformFloat::sample_single`: 52 random bits under a
    /// zero exponent give `v` in `[1, 2)`, and the result is
    /// `(v − 1) · (high − low) + low`, redrawn in the rare case rounding
    /// lands on `high`.
    fn sample_single(self, rng: &mut ChaCha8Rng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let scale = self.end - self.start;
        assert!(scale.is_finite(), "range overflow");
        loop {
            let value1_2 = f64::from_bits(rng.next_u64() >> 12 | 1023 << 52);
            let x = (value1_2 - 1.0) * scale + self.start;
            if x < self.end {
                return x;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.start.is_nan() || self.end.is_nan() || self.start >= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream(42, 7);
        let mut b = stream(42, 7);
        let xa: [u64; 4] = [a.gen(), a.gen(), a.gen(), a.gen()];
        let xb: [u64; 4] = [b.gen(), b.gen(), b.gen(), b.gen()];
        assert_eq!(xa, xb);
    }

    #[test]
    fn streams_differ_by_index() {
        let mut a = stream(42, 0);
        let mut b = stream(42, 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn streams_differ_by_seed() {
        let mut a = stream(1, 0);
        let mut b = stream(2, 0);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Spot-check injectivity on a small sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    /// ECRYPT ChaCha8 vector: all-zero key and nonce, first 16 bytes.
    #[test]
    fn zero_key_block_matches_the_ecrypt_vector() {
        let mut out = [0u32; 16];
        chacha8_block(&[0; 8], 0, 0, &mut out);
        assert_eq!(
            out[..4],
            [0x2fef_003e, 0xd640_5f89, 0xe8b8_5b7f, 0xa1a5_091f]
        );
    }

    #[test]
    fn split_u64_reads_match_word_reads() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = a.clone();
        let words: Vec<u32> = (0..130).map(|_| a.next_u32()).collect();
        b.next_u32();
        let mut got = vec![words[0]];
        for _ in 0..64 {
            let x = b.next_u64();
            got.push(x as u32);
            got.push((x >> 32) as u32);
        }
        assert_eq!(got[..129], words[..129]);
    }

    #[test]
    fn set_stream_mid_buffer_keeps_the_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..21 {
            a.next_u32();
        }
        a.set_stream(5);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        b.set_stream(5);
        for _ in 0..21 {
            b.next_u32();
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = stream(3, 4);
        for _ in 0..1000 {
            assert!((5..9u32).contains(&r.gen_range(5..9u32)));
            assert!((0..=3usize).contains(&r.gen_range(0..=3usize)));
            assert!((1..4u64).contains(&r.gen_range(1..4u64)));
            let x = r.gen_range(0.5..2.0f64);
            assert!((0.5..2.0).contains(&x));
        }
        assert_eq!(r.gen_range(7..8u32), 7);
    }
}
