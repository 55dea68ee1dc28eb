//! The one random stream of the workspace.
//!
//! The datasets are seeded generator output, so this stream is part of the
//! input definition of every result and of every fingerprint under
//! `benchmark/expected/`: it may be replaced, never forked, and the
//! known-answer tests below pin it. The algorithms are those of rand 0.8's
//! `SmallRng` on 64-bit targets — xoshiro256++ seeded by four splitmix64
//! steps, 53-bit floats, widening-multiply ranges with a rejection zone —
//! which is what the fingerprints were made with.

/// The increment of the splitmix64 sequence.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64: one step of the sequence from state `x`, and on its own the
/// 64-bit avalanche mix every hash-based placement uses.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// xoshiro256++.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut s = [0u64; 4];
        let mut state = seed;
        for word in &mut s {
            *word = splitmix64(state);
            state = state.wrapping_add(GAMMA);
        }
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`, from the high 53 bits of one draw.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`, unbiased. Panics when `n` is 0.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below: empty range");
        let n = n as u64;
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = self.next_u64() as u128 * n as u128;
            if wide as u64 <= zone {
                return (wide >> 64) as usize;
            }
        }
    }

    /// [`Rng::below`] for a 32-bit bound: it consumes the high half of each
    /// draw, so it picks other values than `below(n as usize)` does.
    #[inline]
    pub fn below_u32(&mut self, n: u32) -> u32 {
        assert!(n > 0, "Rng::below_u32: empty range");
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = (self.next_u64() >> 32) * n as u64;
            if wide as u32 <= zone {
                return (wide >> 32) as u32;
            }
        }
    }

    /// Fisher–Yates, from the last position down.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs `case` once per seed in `0..cases`, each on `Rng::seed_from_u64(seed)`.
/// This is how the test suites state a property over generated inputs: when
/// a case panics, the seed that reproduces it is printed on the way out.
pub fn for_each_seed(cases: u64, mut case: impl FnMut(u64, &mut Rng)) {
    struct Running(u64);
    impl Drop for Running {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("for_each_seed: the failing case is seed {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _running = Running(seed);
        case(seed, &mut Rng::seed_from_u64(seed));
    }
}

/// Text for the never-panic test of a line or token grammar: a `valid`
/// document or nothing, then a few edits, each cutting some bytes (at times
/// everything up to the end) and putting in random bytes, a token the repo's
/// grammars are built from, or a slice of a valid document. Edits ignore
/// character boundaries; the result is made UTF-8 lossily. `valid` must not
/// be empty.
pub fn hostile_text(rng: &mut Rng, valid: &[&str]) -> String {
    #[rustfmt::skip]
    const TOKENS: [&str; 28] = [
        "0", "1", "42", "007", "4294967295", "4294967296", "18446744073709551615",
        "18446744073709551616", "-1", "1e5", "e", "nan", "inf", "#", ";", "@", ":", "-m", "+m",
        "m", "x", "-", " ", "  ", "\t", "\n", "\r\n", "\u{a0}",
    ];
    let doc = |rng: &mut Rng| valid[rng.below(valid.len())].as_bytes();
    let mut text = if rng.below(2) == 0 { doc(rng).to_vec() } else { Vec::new() };
    for _ in 0..rng.below(8) {
        let at = rng.below(text.len() + 1);
        let rest = text.len() - at;
        let cut = [0, 0, rest.min(1), rest.min(3), rest][rng.below(5)];
        let piece: Vec<u8> = match rng.below(4) {
            0 => Vec::new(),
            1 => (0..1 + rng.below(4)).map(|_| rng.next_u64() as u8).collect(),
            2 => {
                let doc = doc(rng);
                let from = rng.below(doc.len() + 1);
                doc[from..from + rng.below(doc.len() - from + 1)].to_vec()
            }
            _ => TOKENS[rng.below(TOKENS.len())].as_bytes().to_vec(),
        };
        text.splice(at..at + cut, piece);
    }
    String::from_utf8_lossy(&text).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's output from state `[1, 2, 3, 4]`: an
    /// anchor that does not pass through any copy of rand.
    #[test]
    fn xoshiro256_plus_plus_published_vector() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let want = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        assert_eq!(want.map(|_| rng.next_u64()), want);
    }

    /// What `benchmark/expected/*.seed42.txt` was generated with.
    #[test]
    fn seed_42_is_the_stream_the_fingerprints_were_made_with() {
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(42), 0xbdd732262feb6e95);

        let mut rng = Rng::seed_from_u64(42);
        let want =
            [0xd0764d4f4476689f_u64, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8];
        assert_eq!(want.map(|_| rng.next_u64()), want);

        let mut rng = Rng::seed_from_u64(42);
        let want = [0x3fea0ec9a9e88ecd_u64, 0x3fd467905d15dbcc, 0x3fef7c0f9f61849d];
        assert_eq!(want.map(|_| rng.f64().to_bits()), want);

        let mut rng = Rng::seed_from_u64(42);
        assert_eq!([(); 6].map(|_| rng.below_u32(10)), [8, 3, 7, 1, 6, 2]);
        let mut rng = Rng::seed_from_u64(42);
        assert_eq!([(); 6].map(|_| rng.below(10)), [8, 3, 7, 1, 6, 2]);

        let mut items: Vec<u32> = (0..8).collect();
        Rng::seed_from_u64(7).shuffle(&mut items);
        assert_eq!(items, [3, 5, 7, 6, 2, 4, 1, 0]);
    }

    #[test]
    fn below_one_is_zero() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!((rng.below(1), rng.below_u32(1)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "Rng::below: empty range")]
    fn below_zero_says_why() {
        Rng::seed_from_u64(1).below(0);
    }

    #[test]
    #[should_panic(expected = "Rng::below_u32: empty range")]
    fn below_u32_zero_says_why() {
        Rng::seed_from_u64(1).below_u32(0);
    }

    #[test]
    fn ranges_are_covered_and_respected() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.below(7)] = true;
            assert!(rng.below_u32(3) < 3);
            assert!((0.0..1.0).contains(&rng.f64()));
            // A bound above 2^63 leaves the largest rejection share.
            assert!(rng.below(usize::MAX / 2 + 2) <= usize::MAX / 2 + 1);
        }
        assert_eq!(seen, [true; 7]);
    }

    #[test]
    fn for_each_seed_hands_out_one_stream_per_seed() {
        let mut firsts = Vec::new();
        for_each_seed(4, |seed, rng| {
            assert_eq!(*rng, Rng::seed_from_u64(seed));
            firsts.push(rng.next_u64());
        });
        firsts.dedup();
        assert_eq!(firsts.len(), 4);
    }
}
