//! The seeded decision hash behind every injected fault: the distsim
//! message-fault plans and the edge-stream I/O-fault plans both decide
//! each fault as `hash3(seed, salt, a, b) < threshold(p)`, so the two
//! chaos surfaces share one determinism story.

/// The splitmix64 finalizer.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash a plan seed, a per-decision-kind salt, and two coordinates.
#[inline]
pub fn hash3(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ salt) ^ a) ^ b)
}

/// Convert a probability to a 65-bit threshold so that `hash < threshold`
/// holds with probability exactly 0 at `p = 0` and exactly 1 at `p = 1`.
pub fn threshold(p: f64) -> u128 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        1u128 << 64
    } else {
        (p * (1u128 << 64) as f64) as u128
    }
}
