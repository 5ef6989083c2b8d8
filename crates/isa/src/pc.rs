//! Program-counter newtype.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A program counter (byte address of an instruction).
///
/// Instructions are 4 bytes wide and 4-byte aligned, as on Alpha. `Pc`
/// provides arithmetic in *instruction* units via [`Pc::next`] and
/// [`Pc::advance`], and conversion to a dense instruction index for table
/// lookups via [`Program::index_of`](crate::Program::index_of).
///
/// # Example
///
/// ```
/// use profileme_isa::Pc;
/// let pc = Pc::new(0x1000);
/// assert_eq!(pc.next(), Pc::new(0x1004));
/// assert_eq!(pc.advance(3), Pc::new(0x100c));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Pc(u64);

/// Size of one instruction in bytes.
pub(crate) const INST_BYTES: u64 = 4;

impl Pc {
    /// Constructs a PC from a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the address is not 4-byte aligned.
    pub const fn new(addr: u64) -> Pc {
        match Pc::try_new(addr) {
            Some(pc) => pc,
            None => panic!("instruction addresses are 4-byte aligned"),
        }
    }

    /// Constructs a PC from a byte address, or `None` if the address is
    /// not 4-byte aligned — the non-panicking form of [`Pc::new`] for
    /// addresses that arrive from untrusted bytes.
    pub const fn try_new(addr: u64) -> Option<Pc> {
        if addr.is_multiple_of(INST_BYTES) {
            Some(Pc(addr))
        } else {
            None
        }
    }

    /// The raw byte address.
    pub const fn addr(self) -> u64 {
        self.0
    }

    /// The PC of the next sequential instruction.
    pub const fn next(self) -> Pc {
        Pc(self.0 + INST_BYTES)
    }

    /// The PC `count` instructions after this one.
    pub const fn advance(self, count: u64) -> Pc {
        Pc(self.0 + count * INST_BYTES)
    }

    /// Signed distance from `other` to `self` in instructions.
    ///
    /// Exact whenever the byte distance fits in an `i64`; PCs further
    /// apart (one at or above 2^63, the other low) wrap rather than
    /// overflow, so a hostile PC can never panic an index lookup.
    pub const fn distance_from(self, other: Pc) -> i64 {
        self.0.wrapping_sub(other.0) as i64 / INST_BYTES as i64
    }
}

impl Add<u64> for Pc {
    type Output = Pc;
    /// Advances by `rhs` *instructions* (not bytes).
    fn add(self, rhs: u64) -> Pc {
        self.advance(rhs)
    }
}

impl Sub for Pc {
    type Output = i64;
    /// Distance in instructions.
    fn sub(self, rhs: Pc) -> i64 {
        self.distance_from(rhs)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_in_instruction_units() {
        let a = Pc::new(0x2000);
        assert_eq!(a + 2, Pc::new(0x2008));
        assert_eq!((a + 5) - a, 5);
        assert_eq!(a - (a + 5), -5);
    }

    #[test]
    #[should_panic]
    fn unaligned_rejected() {
        let _ = Pc::new(0x1002);
    }

    #[test]
    fn try_new_refuses_unaligned() {
        assert_eq!(Pc::try_new(0x1000), Some(Pc::new(0x1000)));
        assert_eq!(Pc::try_new(0x1002), None);
        assert_eq!(Pc::try_new(u64::MAX), None);
    }

    #[test]
    fn distance_at_and_above_2_pow_63_does_not_overflow() {
        let half = Pc::new(1 << 63);
        let top = Pc::new(u64::MAX - 3);
        let low = Pc::new(0x1000);
        assert_eq!(half.distance_from(half), 0);
        assert_eq!(half.advance(1).distance_from(half), 1);
        assert_eq!(half.distance_from(half.advance(1)), -1);
        assert_eq!(top.distance_from(half), (1 << 61) - 1);
        // Byte distances below 2^63 stay exact in both directions.
        assert_eq!(half.distance_from(low), (1 << 61) - 0x400);
        assert_eq!(low.distance_from(half), 0x400 - (1 << 61));
        // Further apart than i64 reaches: wraps, never panics.
        assert_eq!(top.distance_from(Pc::new(0)), -1);
        assert_eq!(Pc::new(0).distance_from(top), 1);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Pc::new(0x1000).to_string(), "0x1000");
    }
}
