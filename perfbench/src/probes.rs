//! Layer micro-probes that compute their own rates from
//! `std::time::Instant` around the crates' public functions.

use std::hint::black_box;
use std::time::Instant;

use empi_aead::{CryptoLibrary, KeySize};
use empi_netsim::{Engine, VDur};
use empi_pool::BufferPool;

/// The three libraries the paper reports.
pub const AEAD_LIBS: [(CryptoLibrary, &str); 3] = [
    (CryptoLibrary::BoringSsl, "boringssl"),
    (CryptoLibrary::Libsodium, "libsodium"),
    (CryptoLibrary::CryptoPp, "cryptopp"),
];

/// Record sizes probed, with their metric labels.
pub const AEAD_SIZES: [(usize, &str); 3] = [(1 << 10, "1k"), (64 << 10, "64k"), (2 << 20, "2m")];

/// Seal and open cost of `lib` in ns per plaintext byte at `size`-byte
/// records, over about `budget` bytes each. Buffers are sealed and
/// opened in batches of at least 1 MB so the clock reads amortise.
pub fn aead_ns_per_byte(lib: CryptoLibrary, size: usize, budget: usize) -> (f64, f64) {
    let cipher = lib
        .instantiate(KeySize::Aes256, &[0x42; 32])
        .expect("every reported library supports AES-256");
    let n = ((1 << 20) / size).max(1);
    let mut bufs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; size]).collect();
    let nonces: Vec<[u8; 12]> = (0..n as u64)
        .map(|i| {
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&i.to_le_bytes());
            nonce
        })
        .collect();
    let mut tags = vec![[0u8; 16]; n];
    let rounds = (budget / (n * size)).max(1);
    let (mut seal_ns, mut open_ns) = (0u128, 0u128);
    // Round 0 warms the key schedule and caches and is not counted.
    for round in 0..=rounds {
        let t0 = Instant::now();
        for i in 0..n {
            tags[i] = cipher.seal_detached(&nonces[i], b"", black_box(&mut bufs[i]));
        }
        let t1 = Instant::now();
        for i in 0..n {
            cipher
                .open_detached(&nonces[i], b"", black_box(&mut bufs[i]), &tags[i])
                .expect("a freshly sealed buffer authenticates");
        }
        let t2 = Instant::now();
        if round > 0 {
            seal_ns += (t1 - t0).as_nanos();
            open_ns += (t2 - t1).as_nanos();
        }
    }
    let bytes = (rounds * n * size) as f64;
    (seal_ns as f64 / bytes, open_ns as f64 / bytes)
}

/// `BufferPool::take` and `BufferPool::reclaim` in ns per call, steady
/// state (every take after the first round is a pool hit).
pub fn pool_ns(rounds: usize) -> (f64, f64) {
    const BATCH: usize = 32;
    const LEN: usize = 4096;
    let pool = BufferPool::new();
    let (mut take_ns, mut reclaim_ns) = (0u128, 0u128);
    for round in 0..=rounds {
        let t0 = Instant::now();
        let bufs: Vec<_> = (0..BATCH).map(|_| pool.take(black_box(LEN))).collect();
        let t1 = Instant::now();
        let frozen: Vec<_> = bufs.into_iter().map(|b| b.freeze()).collect();
        let t2 = Instant::now();
        for b in frozen {
            black_box(pool.reclaim(b));
        }
        let t3 = Instant::now();
        if round > 0 {
            take_ns += (t1 - t0).as_nanos();
            reclaim_ns += (t3 - t2).as_nanos();
        }
    }
    let calls = (rounds * BATCH) as f64;
    (take_ns as f64 / calls, reclaim_ns as f64 / calls)
}

/// Host ns per scheduler yield of `Engine::run` with `ranks` ranks
/// each looping `SimHandle::advance` `steps` times: with 2 ranks every
/// yield hands the token to the other rank's thread, with 1 rank it
/// returns to the same thread.
pub fn engine_ns_per_yield(ranks: usize, steps: usize) -> f64 {
    let engine = Engine::new(ranks).shards(1);
    let t0 = Instant::now();
    let out = engine.run(|h| {
        for _ in 0..steps {
            h.advance(VDur(10));
        }
    });
    t0.elapsed().as_nanos() as f64 / out.yields.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_rates() {
        let (s, o) = aead_ns_per_byte(CryptoLibrary::BoringSsl, 1 << 10, 1 << 20);
        assert!(s > 0.0 && o > 0.0);
        let (t, r) = pool_ns(4);
        assert!(t > 0.0 && r > 0.0);
        assert!(engine_ns_per_yield(2, 100) > 0.0);
        assert!(engine_ns_per_yield(1, 100) > 0.0);
    }
}
