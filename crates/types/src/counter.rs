//! Saturating activation counters.
//!
//! Hydra's security bound (Theorem 1) holds only if no activation counter
//! wraps: a wrapped count reads as a cold row and the aggressor escapes.
//! [`SatCounters`] (an array, owning its `Vec`) and [`Sat`] (one counter)
//! are the only counter storage in the trackers, and they expose no
//! arithmetic that can wrap. A counter can be incremented or set, both
//! saturating at the width's maximum; read through a widening
//! [`SatCounters::get`]; and cleared with [`SatCounters::reset`]. There is
//! no `IndexMut`, no `&mut` access to the storage and no operator impl, so
//! wrapping or truncating arithmetic on a counter does not compile:
//!
//! ```compile_fail,E0608
//! let mut c = hydra_types::counter::SatCounters::<u8>::new(4);
//! c[0] += 1; // no IndexMut
//! ```
//!
//! ```compile_fail,E0368
//! let mut c = hydra_types::counter::Sat::<u8>::default();
//! c += 1; // no AddAssign
//! ```
//!
//! ```compile_fail,E0369
//! let c = hydra_types::counter::Sat::<u32>::default();
//! let _ = c * 2; // no Mul
//! ```
//!
//! ```compile_fail,E0599
//! let c = hydra_types::counter::Sat::<u32>::default();
//! let _ = c.wrapping_add(1); // no wrapping arithmetic
//! ```
//!
//! ```compile_fail,E0605
//! let c = hydra_types::counter::Sat::<u32>::default();
//! let _ = c as u8; // no narrowing cast
//! ```
//!
//! ```compile_fail,E0277
//! let c = hydra_types::counter::SatCounters::<u32>::new(4);
//! let _: u8 = c.get(0); // get only widens
//! ```
//!
//! # Example
//!
//! ```
//! use hydra_types::counter::SatCounters;
//!
//! let mut rct = SatCounters::<u8>::new(4);
//! rct.set(1, 260); // saturates instead of truncating to 4
//! assert_eq!(rct.get::<u32>(1), 255);
//! rct.increment(1); // saturates instead of wrapping to 0
//! assert_eq!(rct.get::<u32>(1), 255);
//! rct.reset();
//! assert_eq!(rct.get::<u32>(1), 0);
//! ```

/// An unsigned counter width: `u8`, `u16`, `u32` or `u64`.
pub trait Width: Copy + Default + Into<u64> + private::Sealed {
    /// The saturation point.
    const MAX: Self;
    /// `v`, or [`Width::MAX`] if `v` does not fit.
    fn saturate(v: u64) -> Self;
    /// `self + 1`, saturating.
    fn inc(self) -> Self;
}

mod private {
    pub trait Sealed {}
}

macro_rules! width {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Width for $t {
            const MAX: Self = <$t>::MAX;
            #[inline]
            fn saturate(v: u64) -> Self {
                Self::try_from(v).unwrap_or(Self::MAX)
            }
            #[inline]
            fn inc(self) -> Self {
                self.saturating_add(1)
            }
        }
    )*};
}
width!(u8, u16, u32, u64);

/// A `u64` slot, row or group number as a `usize` index. Lossless (and
/// branch-free) on 64-bit hosts; on a narrower host an out-of-range value
/// becomes `usize::MAX` and fails the bounds check instead of aliasing
/// another counter.
#[inline]
pub fn index(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// One saturating counter (a map value or a cache way's count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sat<T>(T);

impl<T: Width> Sat<T> {
    /// A counter holding `v`, saturated to the width.
    #[inline]
    pub fn new(v: u64) -> Self {
        Sat(T::saturate(v))
    }

    /// The count, widened to any type that holds every `T` losslessly.
    #[inline]
    pub fn get<W: From<T>>(self) -> W {
        W::from(self.0)
    }

    /// Adds one, saturating.
    #[inline]
    pub fn increment(&mut self) {
        self.0 = self.0.inc();
    }

    /// Sets the count to `v`, saturated to the width.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.0 = T::saturate(v);
    }
}

/// A fixed-length array of saturating counters.
///
/// Allocated zeroed (`vec![0; n]`), so pages a workload never touches are
/// never committed: the RCT is not cleared per window and stays untouched
/// until a group spill writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatCounters<T>(Vec<T>);

impl<T: Width> SatCounters<T> {
    /// `n` counters at zero.
    pub fn new(n: usize) -> Self {
        SatCounters(vec![T::default(); n])
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Counter `i`, widened to any type that holds every `T` losslessly.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (as do the mutators).
    #[inline]
    pub fn get<W: From<T>>(&self, i: usize) -> W {
        W::from(self.0[i])
    }

    /// Adds one to counter `i`, saturating.
    #[inline]
    pub fn increment(&mut self, i: usize) {
        let c = &mut self.0[i];
        *c = c.inc();
    }

    /// Sets counter `i` to `v`, saturated to the width.
    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        self.0[i] = T::saturate(v);
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        self.0.fill(T::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturates_at_max<T: Width>()
    where
        u64: From<T>,
    {
        let max: u64 = T::MAX.into();
        let mut c = SatCounters::<T>::new(2);
        c.set(0, max - 1);
        c.increment(0);
        assert_eq!(c.get::<u64>(0), max);
        c.increment(0);
        assert_eq!(c.get::<u64>(0), max);
        c.set(1, u64::MAX);
        assert_eq!(c.get::<u64>(1), max);

        let mut s = Sat::<T>::new(max);
        s.increment();
        assert_eq!(s.get::<u64>(), max);
        s.set(u64::MAX);
        assert_eq!(s.get::<u64>(), max);
    }

    #[test]
    fn every_width_saturates_at_its_maximum() {
        saturates_at_max::<u8>();
        saturates_at_max::<u16>();
        saturates_at_max::<u32>();
        saturates_at_max::<u64>();
    }

    #[test]
    fn reset_is_bit_identical_to_fill_zero() {
        let mut c = SatCounters::<u8>::new(300);
        let mut reference = vec![0u8; 300];
        for (i, r) in reference.iter_mut().enumerate() {
            c.set(i, (i * 7) as u64);
            *r = u8::try_from(i * 7).unwrap_or(u8::MAX);
        }
        assert_eq!(c, SatCounters(reference.clone()));
        c.reset();
        reference.fill(0);
        assert_eq!(c, SatCounters(reference));
        assert_eq!(c, SatCounters::new(300));
    }

    #[test]
    fn index_is_lossless_on_this_host() {
        assert_eq!(index(12_345), 12_345);
        assert_eq!(index(u64::from(u32::MAX)), u32::MAX as usize);
    }
}
