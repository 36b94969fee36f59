//! Wire-level fault injection: deterministic corruption of encoded
//! frames *between* a client and the service daemon.
//!
//! The [`WireInjector`] is deliberately ignorant of the frame format —
//! frames are opaque byte strings — so this crate stays below
//! `hydra-server` in the crate DAG, and the injector can mangle *any*
//! length-prefixed protocol. The daemon's codec must survive whatever
//! comes out: flipped payload bits (checksum rejection), truncated frames
//! (resync), duplicated frames (sequence rejection) and delayed frames
//! (watchdog exercise).
//!
//! Determinism contract: same rate and seed + same sequence of
//! [`deliver`](WireInjector::deliver) calls ⇒ bit-identical fault
//! decisions. At rate zero the injector is a pass-through that never
//! draws from its RNG.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Domain-separation constant mixed into the seed, so the wire fault
/// stream differs from any other stream drawn from the same seed.
const WIRE_STREAM: u64 = 0x5749_5245_4c4e_4b00; // "WIRELNK\0"

/// How long a delayed frame waits before delivery.
const DELAY_MS: u64 = 5;

/// One fault applied to one delivered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// Payload bit `bit` of byte `byte` was flipped.
    BitFlip {
        /// Index of the corrupted byte within the frame.
        byte: usize,
        /// Bit position (0–7) flipped within that byte.
        bit: u8,
    },
    /// The frame was cut down to its first `keep` bytes.
    Truncate {
        /// Bytes that survived the truncation.
        keep: usize,
    },
    /// The frame was delivered twice.
    Duplicate,
    /// Delivery was delayed by `ms` milliseconds.
    Delay {
        /// The injected delay.
        ms: u64,
    },
}

/// Running totals of injected wire faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultLog {
    /// Frames that had a payload bit flipped.
    pub bit_flips: u64,
    /// Frames truncated mid-flight.
    pub truncations: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames whose delivery was delayed.
    pub delays: u64,
}

impl WireFaultLog {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.bit_flips + self.truncations + self.duplicates + self.delays
    }
}

/// What actually goes on the wire for one offered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDelivery {
    /// The byte strings to write, in order (two entries on duplication,
    /// possibly corrupted or truncated).
    pub frames: Vec<Vec<u8>>,
    /// Milliseconds to wait before writing anything.
    pub delay_ms: u64,
    /// Every fault applied to this delivery, in decision order.
    pub faults: Vec<WireFault>,
}

impl WireDelivery {
    /// True iff the delivery is the offered frame, unchanged and on time.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Deterministic per-connection wire mangler: each of the four faults
/// hits an offered frame with the same probability.
#[derive(Debug, Clone)]
pub struct WireInjector {
    rng: SmallRng,
    rate: f64,
    log: WireFaultLog,
}

impl WireInjector {
    /// An injector that flips, truncates, duplicates and delays each frame
    /// with probability `rate` apiece, drawing its decisions from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` lies outside `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "wire fault rate {rate} outside [0, 1]"
        );
        WireInjector {
            rng: SmallRng::seed_from_u64(seed ^ WIRE_STREAM),
            rate,
            log: WireFaultLog::default(),
        }
    }

    /// Faults injected so far.
    pub fn log(&self) -> WireFaultLog {
        self.log
    }

    /// Decides the fate of one outgoing frame. Decision order is fixed
    /// (flip, truncate, duplicate, delay) so the stream is reproducible;
    /// at rate zero no gate draws from the RNG.
    pub fn deliver(&mut self, frame: &[u8]) -> WireDelivery {
        let mut faults = Vec::new();
        let mut data = frame.to_vec();
        let rate = self.rate;
        if rate > 0.0 && !data.is_empty() && self.rng.gen_bool(rate) {
            let byte = self.rng.gen_range(0..data.len());
            let bit = self.rng.gen_range(0..8u8);
            data[byte] ^= 1 << bit;
            self.log.bit_flips += 1;
            faults.push(WireFault::BitFlip { byte, bit });
        }
        if rate > 0.0 && !data.is_empty() && self.rng.gen_bool(rate) {
            let keep = self.rng.gen_range(0..data.len());
            data.truncate(keep);
            self.log.truncations += 1;
            faults.push(WireFault::Truncate { keep });
        }
        let mut frames = vec![data];
        if rate > 0.0 && self.rng.gen_bool(rate) {
            frames.push(frames[0].clone());
            self.log.duplicates += 1;
            faults.push(WireFault::Duplicate);
        }
        let mut delay_ms = 0;
        if rate > 0.0 && self.rng.gen_bool(rate) {
            delay_ms = DELAY_MS;
            self.log.delays += 1;
            faults.push(WireFault::Delay { ms: delay_ms });
        }
        WireDelivery {
            frames,
            delay_ms,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_a_pass_through() {
        let mut injector = WireInjector::new(0.0, 3);
        for len in [0usize, 1, 7, 256] {
            let frame: Vec<u8> = (0..len as u8).collect();
            let delivery = injector.deliver(&frame);
            assert!(delivery.is_clean());
            assert_eq!(delivery.frames, vec![frame]);
            assert_eq!(delivery.delay_ms, 0);
        }
        assert_eq!(injector.log().total(), 0);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let frames: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 16]).collect();
        let mut a = WireInjector::new(0.5, 42);
        let mut b = WireInjector::new(0.5, 42);
        for frame in &frames {
            assert_eq!(a.deliver(frame), b.deliver(frame));
        }
        assert_eq!(a.log(), b.log());
        assert!(a.log().total() > 0, "rate 0.5 over 32 frames must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let frames: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 16]).collect();
        let mut a = WireInjector::new(0.5, 1);
        let mut b = WireInjector::new(0.5, 2);
        let diverged = frames.iter().any(|f| a.deliver(f) != b.deliver(f));
        assert!(diverged);
    }

    #[test]
    fn log_counts_match_reported_faults() {
        let mut injector = WireInjector::new(0.25, 9);
        let mut expected = WireFaultLog::default();
        for i in 0..128u8 {
            for fault in injector.deliver(&[i; 24]).faults {
                match fault {
                    WireFault::BitFlip { .. } => expected.bit_flips += 1,
                    WireFault::Truncate { .. } => expected.truncations += 1,
                    WireFault::Duplicate => expected.duplicates += 1,
                    WireFault::Delay { .. } => expected.delays += 1,
                }
            }
        }
        assert_eq!(injector.log(), expected);
        assert!(expected.total() > 0);
    }

    #[test]
    fn empty_frames_survive_every_rate() {
        // Flip and truncate need at least one byte; an empty frame must
        // not panic or underflow the range.
        let mut injector = WireInjector::new(1.0, 5);
        let delivery = injector.deliver(&[]);
        assert!(delivery.frames.iter().all(|f| f.is_empty()));
    }
}
