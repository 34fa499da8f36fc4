//! Strongly-typed index newtypes for netlist entities.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw index.
            #[inline]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index, suitable for indexing dense vectors.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(v: $name) -> u32 {
                v.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a net (a single-driver wire).
    NetId,
    "n"
);
id_type!(
    /// Identifier of a combinational gate instance.
    GateId,
    "g"
);
id_type!(
    /// Identifier of a flip-flop instance.
    FlopId,
    "ff"
);
id_type!(
    /// Identifier of a hierarchical block (e.g. `B5`).
    BlockId,
    "blk"
);
id_type!(
    /// Identifier of a clock domain (e.g. `clka`).
    ClockId,
    "clk"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_raw_value() {
        let id = NetId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NetId::from(42u32), id);
        assert_eq!(u32::from(id), 42);
    }

    #[test]
    fn debug_and_display_are_tagged() {
        assert_eq!(format!("{:?}", GateId::new(7)), "g7");
        assert_eq!(format!("{}", BlockId::new(3)), "blk3");
        assert_eq!(format!("{}", ClockId::new(0)), "clk0");
        assert_eq!(format!("{}", FlopId::new(9)), "ff9");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NetId::new(1) < NetId::new(2));
    }
}
