//! Checked narrowing conversions for vertex ids, interval counts and edge
//! offsets.
//!
//! Graph and offset arithmetic widens to `u64`/`usize` and then narrows
//! back to the `u32` vertex-id space (or a `u64` size to a `usize`
//! length). A bare `as` silently truncates on out-of-range input (a
//! corrupt grid file, a graph past 2³² vertices), so
//! `clippy::cast_possible_truncation` is denied at the roots of
//! `gsd-graph`, `gsd-core`, `gsd-baselines` and `gsd-io`, and this module
//! is the designated checked-conversion helper: every narrowing states
//! what is being narrowed and fails loudly instead of wrapping.

/// Narrows `value` to `u32`, panicking with context if it does not fit.
/// Use where the value is bounded by construction (vertex ids, interval
/// counts) and overflow would mean corrupt input or a logic error.
#[track_caller]
pub fn to_u32(value: u64, what: &str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!("{what} {value} exceeds the u32 vertex-id space"),
    }
}

/// [`to_u32`] for `usize` lengths and indexes.
#[track_caller]
pub fn from_usize(value: usize, what: &str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!("{what} {value} exceeds the u32 vertex-id space"),
    }
}

/// [`to_u32`] for non-negative `i64` arithmetic (e.g. `rem_euclid`
/// results); negative values are rejected rather than reinterpreted.
#[track_caller]
pub fn from_i64(value: i64, what: &str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!("{what} {value} outside the u32 vertex-id space"),
    }
}

/// Narrows a `u64` size or offset to a `usize` length or index. It
/// cannot fail on a 64-bit target; on a narrower one it panics with
/// context rather than wrap.
#[track_caller]
pub fn to_usize(value: u64, what: &str) -> usize {
    match usize::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!("{what} {value} exceeds the address space"),
    }
}

/// Narrows a non-negative float (e.g. a ceil'd square root) to `u32`,
/// rounding toward zero, panicking on NaN, negatives, or overflow.
#[track_caller]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the range check makes the cast exact up to the rounding toward zero the caller asks for"
)]
pub fn from_f64(value: f64, what: &str) -> u32 {
    if !(0.0..=f64::from(u32::MAX)).contains(&value) {
        panic!("{what} {value} outside the u32 vertex-id space");
    }
    value as u32
}

/// Narrows with saturation for values that are *tunings*, not ids — e.g.
/// an index-gap threshold derived from a byte budget, where clamping to
/// `u32::MAX` is the correct semantics rather than an error.
pub fn saturating_u32(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(to_u32(42, "x"), 42);
        assert_eq!(from_usize(7, "x"), 7);
        assert_eq!(to_usize(u64::from(u32::MAX) + 1, "x"), 1 << 32);
        assert_eq!(from_i64(9, "x"), 9);
        assert_eq!(from_f64(3.0, "x"), 3);
        assert_eq!(saturating_u32(5), 5);
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(saturating_u32(u64::MAX), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32")]
    fn to_u32_panics_out_of_range() {
        to_u32(u64::MAX, "edge offset");
    }

    #[test]
    #[should_panic(expected = "outside the u32")]
    fn from_i64_rejects_negative() {
        from_i64(-1, "ring hop");
    }

    #[test]
    #[should_panic(expected = "outside the u32")]
    fn from_f64_rejects_nan() {
        from_f64(f64::NAN, "grid side");
    }
}
