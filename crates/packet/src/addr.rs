//! Virtual-node identifiers and their emulated IP addresses.
//!
//! ModelNet assigns every VN an address in `10.0.0.0/8` so that an ipfw rule
//! can divert all VN-to-VN traffic into the emulation. The binding phase
//! hands out addresses; applications use the interposition library so their
//! sockets bind to the VN address rather than the physical host address.
//! In this reproduction the same structure exists: [`VnId`] is the dense
//! index used throughout the emulator, and [`VnAddr`] is its 10/8 dotted-quad
//! rendering, useful for logs and for compatibility with GML/VN binding
//! files.

use std::fmt;

mn_util::codec_record! {
    /// Identifier of a virtual node (an application instance with its own
    /// emulated IP address and location in the target topology).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct VnId(pub u32);
}

impl VnId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the emulated `10.0.0.0/8` address for this VN.
    ///
    /// Addresses are assigned sequentially, skipping `.0` and `.255` host
    /// octets the way the paper's binding scripts do (so each /24 in the
    /// block carries 254 VNs).
    pub fn addr(self) -> VnAddr {
        let per_subnet = 254u32;
        let subnet = self.0 / per_subnet;
        let host = self.0 % per_subnet + 1;
        VnAddr {
            octets: [
                10,
                ((subnet >> 8) & 0xFF) as u8,
                (subnet & 0xFF) as u8,
                host as u8,
            ],
        }
    }
}

impl fmt::Display for VnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vn{}", self.0)
    }
}

/// An emulated IPv4 address in the `10.0.0.0/8` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnAddr {
    /// Dotted-quad octets.
    pub octets: [u8; 4],
}

impl VnAddr {
    /// Parses a dotted-quad string, returning `None` if it is malformed or
    /// outside the `10.0.0.0/8` block.
    pub fn parse(s: &str) -> Option<VnAddr> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for octet in &mut octets {
            *octet = parts.next()?.parse().ok()?;
        }
        if parts.next().is_some() || octets[0] != 10 {
            return None;
        }
        Some(VnAddr { octets })
    }
}

impl fmt::Display for VnAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            self.octets[0], self.octets[1], self.octets[2], self.octets[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_skip_network_and_broadcast() {
        assert_eq!(VnId(0).addr().to_string(), "10.0.0.1");
        assert_eq!(VnId(1).addr().to_string(), "10.0.0.2");
        assert_eq!(VnId(253).addr().to_string(), "10.0.0.254");
        assert_eq!(VnId(254).addr().to_string(), "10.0.1.1");
        assert_eq!(VnId(10_000).addr().to_string(), "10.0.39.95");
    }

    #[test]
    fn parse_accepts_only_ten_slash_eight() {
        assert_eq!(
            VnAddr::parse("10.1.2.3"),
            Some(VnAddr {
                octets: [10, 1, 2, 3]
            })
        );
        assert_eq!(VnAddr::parse("192.168.0.1"), None);
        assert_eq!(VnAddr::parse("10.0.0"), None);
        assert_eq!(VnAddr::parse("10.0.0.1.2"), None);
        assert_eq!(VnAddr::parse("10.0.0.x"), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VnId(3).to_string(), "vn3");
        assert_eq!(VnId(3).addr().to_string(), "10.0.0.4");
    }
}
