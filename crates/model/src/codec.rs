//! Bit-serialization helpers shared by `BCC(b)` algorithms.
//!
//! With bandwidth `b = 1`, sending a `w`-bit value takes `w` rounds;
//! these helpers fix the (LSB-first) bit order once so every algorithm
//! and its decoder agree.

use crate::error::ModelError;
use crate::symbol::Symbol;

/// Bits needed to encode any value in `0..n` (at least 1).
///
/// # Example
///
/// ```
/// use bcc_model::codec::bits_needed;
/// assert_eq!(bits_needed(1), 1);
/// assert_eq!(bits_needed(2), 1);
/// assert_eq!(bits_needed(6), 3);
/// assert_eq!(bits_needed(64), 6);
/// assert_eq!(bits_needed(65), 7);
/// ```
pub fn bits_needed(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Encodes `value` as `width` bits, LSB first.
///
/// # Panics
///
/// Panics if `value` does not fit in `width` bits.
pub fn u64_to_bits(value: u64, width: usize) -> Vec<bool> {
    assert!(
        width >= 64 || value < (1u64 << width),
        "value {value} does not fit in {width} bits"
    );
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

/// Decodes LSB-first bits into a `u64`.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "at most 64 bits");
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << i)
}

/// A fixed bit payload scheduled one symbol per round — the basic
/// transmission pattern of every bit-serial `BCC(1)` algorithm. A
/// plain word and a width, so scheduling a value allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct BitSchedule {
    value: u64,
    width: usize,
}

impl BitSchedule {
    /// Schedules the bits of `value` (LSB first, `width` of them).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit.
    pub fn of_value(value: u64, width: usize) -> Self {
        assert!(
            width >= 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        BitSchedule { value, width }
    }

    /// Total rounds needed.
    pub fn len(&self) -> usize {
        self.width
    }

    /// Returns `true` if there is nothing to send.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// The symbol to broadcast in round `round` (silent once the
    /// payload is exhausted).
    pub fn symbol_at(&self, round: usize) -> Symbol {
        if round >= self.width {
            Symbol::Silent
        } else {
            Symbol::bit(round < 64 && self.value >> round & 1 == 1)
        }
    }
}

/// Accumulates symbols received from one port and decodes the payload
/// once `width` bits have arrived.
#[derive(Debug, Clone)]
pub struct BitAccumulator {
    width: usize,
    got: usize,
    value: u64,
}

impl BitAccumulator {
    /// An accumulator expecting `width` bits.
    pub fn new(width: usize) -> Self {
        BitAccumulator {
            width,
            got: 0,
            value: 0,
        }
    }

    /// Feeds one received symbol; silent symbols beyond the payload are
    /// ignored, silent symbols inside it are an encoding error.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CorruptPayload`] if a silent symbol
    /// arrives before the payload completes. The accumulator is left
    /// unchanged, so a caller that cannot propagate the error (a
    /// `NodeProgram::receive` body) degrades to an incomplete payload
    /// instead of a crash.
    pub fn push(&mut self, s: Symbol) -> Result<(), ModelError> {
        if self.is_complete() {
            return Ok(());
        }
        match s.as_bit() {
            Some(b) => {
                if b && self.got < 64 {
                    self.value |= 1 << self.got;
                }
                self.got += 1;
                Ok(())
            }
            None => Err(ModelError::CorruptPayload { width: self.width }),
        }
    }

    /// Whether all `width` bits have arrived.
    pub fn is_complete(&self) -> bool {
        self.got >= self.width
    }

    /// The decoded value, once complete.
    ///
    /// # Panics
    ///
    /// Panics if the payload is complete and wider than 64 bits.
    pub fn value(&self) -> Option<u64> {
        self.is_complete().then(|| {
            assert!(self.width <= 64, "at most 64 bits");
            self.value
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        for width in 1..=16 {
            for value in [0u64, 1, 2, (1 << width) - 1] {
                if value < (1 << width) {
                    assert_eq!(bits_to_u64(&u64_to_bits(value, width)), value);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        u64_to_bits(8, 3);
    }

    #[test]
    fn schedule_emits_then_silent() {
        let s = BitSchedule::of_value(0b101, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.symbol_at(0), Symbol::One);
        assert_eq!(s.symbol_at(1), Symbol::Zero);
        assert_eq!(s.symbol_at(2), Symbol::One);
        assert_eq!(s.symbol_at(3), Symbol::Silent);
        assert_eq!(s.symbol_at(100), Symbol::Silent);
    }

    #[test]
    fn accumulator_decodes() {
        let mut a = BitAccumulator::new(3);
        assert!(!a.is_complete());
        assert_eq!(a.value(), None);
        a.push(Symbol::One).unwrap();
        a.push(Symbol::Zero).unwrap();
        a.push(Symbol::One).unwrap();
        assert!(a.is_complete());
        assert_eq!(a.value(), Some(0b101));
        // Extra silence after completion is fine.
        a.push(Symbol::Silent).unwrap();
        assert_eq!(a.value(), Some(0b101));
    }

    #[test]
    fn accumulator_rejects_early_silence() {
        let mut a = BitAccumulator::new(2);
        assert_eq!(
            a.push(Symbol::Silent),
            Err(ModelError::CorruptPayload { width: 2 })
        );
        // The accumulator is unchanged and still usable.
        a.push(Symbol::One).unwrap();
        a.push(Symbol::Zero).unwrap();
        assert_eq!(a.value(), Some(0b01));
    }

    #[test]
    fn schedule_empty() {
        let s = BitSchedule::of_value(0, 0);
        assert!(s.is_empty());
        assert_eq!(s.symbol_at(0), Symbol::Silent);
    }

    #[test]
    fn every_width_roundtrips_through_schedule_and_accumulator() {
        for width in 1..=64usize {
            let top = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for value in [0, 1, top / 3, top] {
                let s = BitSchedule::of_value(value, width);
                assert_eq!(s.len(), width);
                let mut a = BitAccumulator::new(width);
                for round in 0..width {
                    assert!(!a.is_complete());
                    a.push(s.symbol_at(round)).unwrap();
                }
                assert_eq!(a.value(), Some(value), "width {width}");
                assert_eq!(s.symbol_at(width), Symbol::Silent);
                assert_eq!(s.symbol_at(width + 100), Symbol::Silent);
            }
        }
    }

    #[test]
    fn silence_mid_payload_is_rejected_and_harmless() {
        let mut a = BitAccumulator::new(4);
        a.push(Symbol::One).unwrap();
        a.push(Symbol::One).unwrap();
        assert_eq!(
            a.push(Symbol::Silent),
            Err(ModelError::CorruptPayload { width: 4 })
        );
        assert!(!a.is_complete());
        assert_eq!(a.value(), None);
        a.push(Symbol::Zero).unwrap();
        a.push(Symbol::One).unwrap();
        assert_eq!(a.value(), Some(0b1011));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn schedule_rejects_overflowing_value() {
        BitSchedule::of_value(8, 3);
    }

    #[test]
    #[should_panic(expected = "at most 64 bits")]
    fn accumulator_past_64_bits_has_no_value() {
        let mut a = BitAccumulator::new(65);
        for _ in 0..65 {
            a.push(Symbol::One).unwrap();
        }
        assert!(a.is_complete());
        let _ = a.value();
    }
}
