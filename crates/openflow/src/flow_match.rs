//! The OpenFlow 1.0-style 12-tuple flow match, with the subsumption algebra
//! SDNShield's predicate and wildcard filters are built on.
//!
//! A [`FlowMatch`] describes a set of packets. Besides testing a packet
//! against a match, the control plane needs *relations between matches*:
//! whether one match is narrower than another ([`FlowMatch::subsumes`]) and
//! whether two matches can both apply to some packet
//! ([`FlowMatch::overlaps`]). Those relations are what let the permission
//! engine decide if a rule an app wants to install stays inside the flow
//! space it was granted.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::packet::{EthPayload, EthernetFrame, IpPayload};
use crate::types::{eth_type, EthAddr, Ipv4, PortNo};

/// A match field on an exact-match attribute (no partial masks).
///
/// `None` means wildcard — the field matches anything.
type Exact<T> = Option<T>;

/// An IPv4 address plus mask, describing a masked value set.
///
/// Only bits set in `mask` are compared. A `mask` of all-ones is an exact
/// match; all-zeroes matches everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskedIpv4 {
    /// The address bits (bits outside the mask are ignored but normalized to
    /// zero by [`MaskedIpv4::new`]).
    pub addr: Ipv4,
    /// The comparison mask.
    pub mask: Ipv4,
}

impl MaskedIpv4 {
    /// Creates a masked address, normalizing `addr` so bits outside the mask
    /// are zero (making `==` structural equality meaningful).
    pub fn new(addr: Ipv4, mask: Ipv4) -> Self {
        MaskedIpv4 {
            addr: addr.masked(mask),
            mask,
        }
    }

    /// An exact (all-ones mask) match for `addr`.
    pub fn exact(addr: Ipv4) -> Self {
        Self::new(addr, Ipv4(u32::MAX))
    }

    /// A CIDR prefix match.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn prefix(addr: Ipv4, len: u8) -> Self {
        Self::new(addr, Ipv4::prefix_mask(len))
    }

    /// Does `ip` fall in this masked set?
    pub fn matches(&self, ip: Ipv4) -> bool {
        ip.masked(self.mask) == self.addr
    }

    /// Is every address matched by `other` also matched by `self`?
    ///
    /// True iff `self.mask` is a subset of `other.mask` (self is coarser or
    /// equal) and the two agree on `self`'s masked bits.
    pub fn includes(&self, other: &MaskedIpv4) -> bool {
        // self's constrained bits must all be constrained by other too…
        (self.mask.0 & other.mask.0) == self.mask.0
            // …and agree in value on those bits.
            && other.addr.masked(self.mask) == self.addr
    }

    /// Can some address satisfy both masked sets?
    pub fn overlaps(&self, other: &MaskedIpv4) -> bool {
        let common = self.mask.0 & other.mask.0;
        (self.addr.0 & common) == (other.addr.0 & common)
    }
}

impl fmt::Display for MaskedIpv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask.0 == u32::MAX {
            write!(f, "{}", self.addr)
        } else {
            write!(f, "{} mask {}", self.addr, self.mask)
        }
    }
}

/// An OpenFlow 1.0-style flow match over the classic 12-tuple.
///
/// Every field is optional; `None` wildcards the field. The default value
/// matches all packets.
///
/// # Examples
///
/// ```
/// use sdnshield_openflow::flow_match::FlowMatch;
/// use sdnshield_openflow::types::Ipv4;
///
/// let all = FlowMatch::default();
/// let web = FlowMatch::default()
///     .with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16)
///     .with_tcp_dst(80);
/// assert!(all.subsumes(&web));
/// assert!(!web.subsumes(&all));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Ingress switch port.
    pub in_port: Exact<PortNo>,
    /// Ethernet source address.
    pub eth_src: Exact<EthAddr>,
    /// Ethernet destination address.
    pub eth_dst: Exact<EthAddr>,
    /// EtherType.
    pub eth_type: Exact<u16>,
    /// VLAN id.
    pub vlan_id: Exact<u16>,
    /// VLAN priority.
    pub vlan_pcp: Exact<u8>,
    /// IPv4 source, masked.
    pub ip_src: Option<MaskedIpv4>,
    /// IPv4 destination, masked.
    pub ip_dst: Option<MaskedIpv4>,
    /// IP protocol number.
    pub ip_proto: Exact<u8>,
    /// IP ToS / DSCP byte.
    pub ip_tos: Exact<u8>,
    /// TCP/UDP source port.
    pub tp_src: Exact<u16>,
    /// TCP/UDP destination port.
    pub tp_dst: Exact<u16>,
}

/// Hashes six packed words instead of one write per field and per
/// `Option` tag: a presence bitmap plus the field values, each absent field
/// contributing zero. Equal matches pack to equal words, so this agrees
/// with the derived `Eq`; the hasher itself stays the caller's (the kernel
/// keeps std's keyed SipHash, since apps choose these keys).
impl Hash for FlowMatch {
    fn hash<H: Hasher>(&self, state: &mut H) {
        fn bit<T>(field: &Option<T>, n: u32) -> u64 {
            u64::from(field.is_some()) << n
        }
        fn ip(field: Option<MaskedIpv4>) -> u64 {
            field.map_or(0, |m| (u64::from(m.addr.0) << 32) | u64::from(m.mask.0))
        }
        let present = bit(&self.in_port, 0)
            | bit(&self.eth_src, 1)
            | bit(&self.eth_dst, 2)
            | bit(&self.eth_type, 3)
            | bit(&self.vlan_id, 4)
            | bit(&self.vlan_pcp, 5)
            | bit(&self.ip_src, 6)
            | bit(&self.ip_dst, 7)
            | bit(&self.ip_proto, 8)
            | bit(&self.ip_tos, 9)
            | bit(&self.tp_src, 10)
            | bit(&self.tp_dst, 11);
        let in_port = u64::from(self.in_port.map_or(0, |p| p.0));
        let eth_type = u64::from(self.eth_type.unwrap_or(0));
        let vlan_id = u64::from(self.vlan_id.unwrap_or(0));
        let eth_src = self.eth_src.map_or(0, EthAddr::to_u64);
        let eth_dst = self.eth_dst.map_or(0, EthAddr::to_u64);
        let vlan_pcp = u64::from(self.vlan_pcp.unwrap_or(0));
        let ip_proto = u64::from(self.ip_proto.unwrap_or(0));
        let ip_tos = u64::from(self.ip_tos.unwrap_or(0));
        let tp_src = u64::from(self.tp_src.unwrap_or(0));
        let tp_dst = u64::from(self.tp_dst.unwrap_or(0));
        state.write_u64(present | in_port << 12 | eth_type << 28 | vlan_id << 44);
        state.write_u64(eth_src | vlan_pcp << 48 | ip_proto << 56);
        state.write_u64(eth_dst | ip_tos << 48);
        state.write_u64(ip(self.ip_src));
        state.write_u64(ip(self.ip_dst));
        state.write_u64(tp_src | tp_dst << 16);
    }
}

impl FlowMatch {
    /// A match with every field wildcarded (matches all packets).
    pub fn any() -> Self {
        Self::default()
    }

    /// Returns `true` if every field is wildcarded.
    pub fn is_wildcard_all(&self) -> bool {
        *self == Self::default()
    }

    /// Builder-style setter for the ingress port.
    pub fn with_in_port(mut self, port: PortNo) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Builder-style setter for the Ethernet source.
    pub fn with_eth_src(mut self, addr: EthAddr) -> Self {
        self.eth_src = Some(addr);
        self
    }

    /// Builder-style setter for the Ethernet destination.
    pub fn with_eth_dst(mut self, addr: EthAddr) -> Self {
        self.eth_dst = Some(addr);
        self
    }

    /// Builder-style setter for the EtherType.
    pub fn with_eth_type(mut self, ety: u16) -> Self {
        self.eth_type = Some(ety);
        self
    }

    /// Builder-style setter for an exact IPv4 source.
    pub fn with_ip_src(mut self, ip: Ipv4) -> Self {
        self.ip_src = Some(MaskedIpv4::exact(ip));
        self.eth_type.get_or_insert(eth_type::IPV4);
        self
    }

    /// Builder-style setter for a masked IPv4 source prefix.
    pub fn with_ip_src_prefix(mut self, ip: Ipv4, len: u8) -> Self {
        self.ip_src = Some(MaskedIpv4::prefix(ip, len));
        self.eth_type.get_or_insert(eth_type::IPV4);
        self
    }

    /// Builder-style setter for an exact IPv4 destination.
    pub fn with_ip_dst(mut self, ip: Ipv4) -> Self {
        self.ip_dst = Some(MaskedIpv4::exact(ip));
        self.eth_type.get_or_insert(eth_type::IPV4);
        self
    }

    /// Builder-style setter for a masked IPv4 destination prefix.
    pub fn with_ip_dst_prefix(mut self, ip: Ipv4, len: u8) -> Self {
        self.ip_dst = Some(MaskedIpv4::prefix(ip, len));
        self.eth_type.get_or_insert(eth_type::IPV4);
        self
    }

    /// Builder-style setter for the IP protocol.
    pub fn with_ip_proto(mut self, proto: u8) -> Self {
        self.ip_proto = Some(proto);
        self.eth_type.get_or_insert(eth_type::IPV4);
        self
    }

    /// Builder-style setter for the TCP/UDP source port.
    pub fn with_tp_src(mut self, port: u16) -> Self {
        self.tp_src = Some(port);
        self
    }

    /// Builder-style setter for the TCP/UDP destination port.
    pub fn with_tp_dst(mut self, port: u16) -> Self {
        self.tp_dst = Some(port);
        self
    }

    /// Alias of [`FlowMatch::with_tp_dst`] reading better for TCP services.
    pub fn with_tcp_dst(self, port: u16) -> Self {
        self.with_tp_dst(port)
    }

    /// Tests a packet (with its ingress port) against the match.
    pub fn matches_frame(&self, in_port: PortNo, frame: &EthernetFrame) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(src) = self.eth_src {
            if src != frame.src {
                return false;
            }
        }
        if let Some(dst) = self.eth_dst {
            if dst != frame.dst {
                return false;
            }
        }
        if let Some(ety) = self.eth_type {
            if ety != frame.payload.eth_type() {
                return false;
            }
        }
        if let Some(vid) = self.vlan_id {
            match frame.vlan {
                Some(tag) if tag.vid == vid => {}
                _ => return false,
            }
        }
        if let Some(pcp) = self.vlan_pcp {
            match frame.vlan {
                Some(tag) if tag.pcp == pcp => {}
                _ => return false,
            }
        }
        let ip = match &frame.payload {
            EthPayload::Ipv4(ip) => Some(ip),
            _ => None,
        };
        if let Some(m) = self.ip_src {
            match ip {
                Some(ip) if m.matches(ip.src) => {}
                _ => return false,
            }
        }
        if let Some(m) = self.ip_dst {
            match ip {
                Some(ip) if m.matches(ip.dst) => {}
                _ => return false,
            }
        }
        if let Some(proto) = self.ip_proto {
            match ip {
                Some(ip) if ip.payload.proto() == proto => {}
                _ => return false,
            }
        }
        if let Some(tos) = self.ip_tos {
            match ip {
                Some(ip) if ip.tos == tos => {}
                _ => return false,
            }
        }
        if self.tp_src.is_some() || self.tp_dst.is_some() {
            let (src_port, dst_port) = match ip.map(|ip| &ip.payload) {
                Some(IpPayload::Tcp(t)) => (t.src_port, t.dst_port),
                Some(IpPayload::Udp(u)) => (u.src_port, u.dst_port),
                _ => return false,
            };
            if let Some(p) = self.tp_src {
                if p != src_port {
                    return false;
                }
            }
            if let Some(p) = self.tp_dst {
                if p != dst_port {
                    return false;
                }
            }
        }
        true
    }

    /// Is every packet matched by `other` also matched by `self`?
    ///
    /// This is the inclusion relation the permission engine's predicate
    /// filters use: a granted flow space `self` permits a requested rule
    /// `other` iff `self.subsumes(other)`.
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        fn exact_subsumes<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => x == y,
            }
        }
        fn masked_subsumes(a: &Option<MaskedIpv4>, b: &Option<MaskedIpv4>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => x.includes(y),
            }
        }
        exact_subsumes(&self.in_port, &other.in_port)
            && exact_subsumes(&self.eth_src, &other.eth_src)
            && exact_subsumes(&self.eth_dst, &other.eth_dst)
            && exact_subsumes(&self.eth_type, &other.eth_type)
            && exact_subsumes(&self.vlan_id, &other.vlan_id)
            && exact_subsumes(&self.vlan_pcp, &other.vlan_pcp)
            && masked_subsumes(&self.ip_src, &other.ip_src)
            && masked_subsumes(&self.ip_dst, &other.ip_dst)
            && exact_subsumes(&self.ip_proto, &other.ip_proto)
            && exact_subsumes(&self.ip_tos, &other.ip_tos)
            && exact_subsumes(&self.tp_src, &other.tp_src)
            && exact_subsumes(&self.tp_dst, &other.tp_dst)
    }

    /// Can some packet be matched by both `self` and `other`?
    pub fn overlaps(&self, other: &FlowMatch) -> bool {
        fn exact_overlaps<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
        }
        fn masked_overlaps(a: &Option<MaskedIpv4>, b: &Option<MaskedIpv4>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x.overlaps(y),
                _ => true,
            }
        }
        exact_overlaps(&self.in_port, &other.in_port)
            && exact_overlaps(&self.eth_src, &other.eth_src)
            && exact_overlaps(&self.eth_dst, &other.eth_dst)
            && exact_overlaps(&self.eth_type, &other.eth_type)
            && exact_overlaps(&self.vlan_id, &other.vlan_id)
            && exact_overlaps(&self.vlan_pcp, &other.vlan_pcp)
            && masked_overlaps(&self.ip_src, &other.ip_src)
            && masked_overlaps(&self.ip_dst, &other.ip_dst)
            && exact_overlaps(&self.ip_proto, &other.ip_proto)
            && exact_overlaps(&self.ip_tos, &other.ip_tos)
            && exact_overlaps(&self.tp_src, &other.tp_src)
            && exact_overlaps(&self.tp_dst, &other.tp_dst)
    }

    /// The intersection of two matches, or `None` when they cannot both
    /// match any packet.
    pub fn intersect(&self, other: &FlowMatch) -> Option<FlowMatch> {
        fn exact_meet<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> Result<Option<T>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) if x == y => Ok(Some(x)),
                _ => Err(()),
            }
        }
        fn masked_meet(
            a: Option<MaskedIpv4>,
            b: Option<MaskedIpv4>,
        ) -> Result<Option<MaskedIpv4>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) => {
                    if !x.overlaps(&y) {
                        return Err(());
                    }
                    let mask = Ipv4(x.mask.0 | y.mask.0);
                    let addr = Ipv4((x.addr.0 & x.mask.0) | (y.addr.0 & y.mask.0));
                    Ok(Some(MaskedIpv4::new(addr, mask)))
                }
            }
        }
        let m = FlowMatch {
            in_port: exact_meet(self.in_port, other.in_port).ok()?,
            eth_src: exact_meet(self.eth_src, other.eth_src).ok()?,
            eth_dst: exact_meet(self.eth_dst, other.eth_dst).ok()?,
            eth_type: exact_meet(self.eth_type, other.eth_type).ok()?,
            vlan_id: exact_meet(self.vlan_id, other.vlan_id).ok()?,
            vlan_pcp: exact_meet(self.vlan_pcp, other.vlan_pcp).ok()?,
            ip_src: masked_meet(self.ip_src, other.ip_src).ok()?,
            ip_dst: masked_meet(self.ip_dst, other.ip_dst).ok()?,
            ip_proto: exact_meet(self.ip_proto, other.ip_proto).ok()?,
            ip_tos: exact_meet(self.ip_tos, other.ip_tos).ok()?,
            tp_src: exact_meet(self.tp_src, other.tp_src).ok()?,
            tp_dst: exact_meet(self.tp_dst, other.tp_dst).ok()?,
        };
        Some(m)
    }

    /// Number of non-wildcarded fields — a crude specificity measure used by
    /// workload generators.
    pub fn specified_fields(&self) -> usize {
        self.in_port.is_some() as usize
            + self.eth_src.is_some() as usize
            + self.eth_dst.is_some() as usize
            + self.eth_type.is_some() as usize
            + self.vlan_id.is_some() as usize
            + self.vlan_pcp.is_some() as usize
            + self.ip_src.is_some() as usize
            + self.ip_dst.is_some() as usize
            + self.ip_proto.is_some() as usize
            + self.ip_tos.is_some() as usize
            + self.tp_src.is_some() as usize
            + self.tp_dst.is_some() as usize
    }
}

impl fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard_all() {
            return write!(f, "match{{*}}");
        }
        write!(f, "match{{")?;
        let mut sep = "";
        macro_rules! field {
            ($name:literal, $val:expr) => {
                if let Some(v) = $val {
                    write!(f, "{sep}{}={}", $name, v)?;
                    sep = ",";
                }
            };
        }
        field!("in_port", self.in_port);
        field!("eth_src", self.eth_src);
        field!("eth_dst", self.eth_dst);
        if let Some(v) = self.eth_type {
            write!(f, "{sep}eth_type={v:#06x}")?;
            sep = ",";
        }
        field!("vlan_id", self.vlan_id);
        field!("vlan_pcp", self.vlan_pcp);
        field!("ip_src", self.ip_src);
        field!("ip_dst", self.ip_dst);
        field!("ip_proto", self.ip_proto);
        field!("ip_tos", self.ip_tos);
        field!("tp_src", self.tp_src);
        field!("tp_dst", self.tp_dst);
        let _ = sep;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;
    use bytes::Bytes;

    fn mac(n: u64) -> EthAddr {
        EthAddr::from_u64(n)
    }

    fn tcp_frame(src_ip: Ipv4, dst_ip: Ipv4, dst_port: u16) -> EthernetFrame {
        EthernetFrame::tcp(
            mac(1),
            mac(2),
            src_ip,
            dst_ip,
            40000,
            dst_port,
            TcpFlags::default(),
            Bytes::new(),
        )
    }

    #[test]
    fn wildcard_matches_everything() {
        let m = FlowMatch::any();
        let f = tcp_frame(Ipv4::new(1, 1, 1, 1), Ipv4::new(2, 2, 2, 2), 80);
        assert!(m.matches_frame(PortNo(1), &f));
        let arp = EthernetFrame::arp_request(mac(1), Ipv4::new(1, 1, 1, 1), Ipv4::new(1, 1, 1, 2));
        assert!(m.matches_frame(PortNo(7), &arp));
    }

    #[test]
    fn prefix_match_on_ip_dst() {
        let m = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let inside = tcp_frame(Ipv4::new(1, 1, 1, 1), Ipv4::new(10, 13, 200, 5), 80);
        let outside = tcp_frame(Ipv4::new(1, 1, 1, 1), Ipv4::new(10, 14, 0, 5), 80);
        assert!(m.matches_frame(PortNo(1), &inside));
        assert!(!m.matches_frame(PortNo(1), &outside));
    }

    #[test]
    fn ip_fields_require_ipv4_payload() {
        let m = FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, 1));
        let arp =
            EthernetFrame::arp_request(mac(1), Ipv4::new(10, 0, 0, 9), Ipv4::new(10, 0, 0, 1));
        assert!(!m.matches_frame(PortNo(1), &arp));
    }

    #[test]
    fn tp_fields_require_tcp_or_udp() {
        let m = FlowMatch::default().with_tp_dst(80);
        let frame = EthernetFrame {
            src: mac(1),
            dst: mac(2),
            vlan: None,
            payload: crate::packet::EthPayload::Ipv4(crate::packet::Ipv4Packet {
                src: Ipv4::new(1, 1, 1, 1),
                dst: Ipv4::new(2, 2, 2, 2),
                ttl: 64,
                tos: 0,
                payload: crate::packet::IpPayload::Icmp(crate::packet::IcmpMessage {
                    icmp_type: 8,
                    code: 0,
                    data: Bytes::new(),
                }),
            }),
        };
        assert!(!m.matches_frame(PortNo(1), &frame));
    }

    #[test]
    fn subsumption_basic() {
        let coarse = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8);
        let fine = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        assert!(coarse.subsumes(&fine));
        assert!(!fine.subsumes(&coarse));
        assert!(coarse.subsumes(&coarse));
        assert!(FlowMatch::any().subsumes(&coarse));
    }

    #[test]
    fn subsumption_requires_all_fields() {
        let a = FlowMatch::default()
            .with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8)
            .with_tp_dst(80);
        let b = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        // `a` constrains tp_dst which `b` leaves open, so `a` cannot subsume.
        assert!(!a.subsumes(&b));
        assert!(!b.subsumes(&a)); // different subnet widths; b is coarser on tp
        let b80 = b.clone().with_tp_dst(80);
        assert!(a.subsumes(&b80));
    }

    #[test]
    fn overlap_of_disjoint_prefixes_is_false() {
        let a = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let b = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 14, 0, 0), 16);
        assert!(!a.overlaps(&b));
        let c = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 7, 0), 24);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn overlap_on_different_dimensions_is_true() {
        let a = FlowMatch::default().with_tp_dst(80);
        let b = FlowMatch::default().with_ip_src_prefix(Ipv4::new(10, 0, 0, 0), 8);
        assert!(a.overlaps(&b));
    }

    #[test]
    fn intersect_combines_fields() {
        let a = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let b = FlowMatch::default().with_tp_dst(443);
        let i = a.intersect(&b).unwrap();
        assert!(a.subsumes(&i));
        assert!(b.subsumes(&i));
        assert_eq!(i.tp_dst, Some(443));
        assert_eq!(
            i.ip_dst,
            Some(MaskedIpv4::prefix(Ipv4::new(10, 13, 0, 0), 16))
        );
    }

    #[test]
    fn intersect_of_disjoint_is_none() {
        let a = FlowMatch::default().with_tp_dst(80);
        let b = FlowMatch::default().with_tp_dst(443);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn intersect_of_nested_prefixes_keeps_finer() {
        let a = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8);
        let b = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16);
        let i = a.intersect(&b).unwrap();
        assert_eq!(
            i.ip_dst,
            Some(MaskedIpv4::prefix(Ipv4::new(10, 13, 0, 0), 16))
        );
    }

    #[test]
    fn masked_ipv4_inclusion() {
        let wide = MaskedIpv4::prefix(Ipv4::new(10, 0, 0, 0), 8);
        let narrow = MaskedIpv4::prefix(Ipv4::new(10, 13, 0, 0), 16);
        let exact = MaskedIpv4::exact(Ipv4::new(10, 13, 0, 7));
        assert!(wide.includes(&narrow));
        assert!(narrow.includes(&exact));
        assert!(wide.includes(&exact));
        assert!(!narrow.includes(&wide));
        assert!(!exact.includes(&narrow));
    }

    #[test]
    fn masked_ipv4_noncontiguous_mask() {
        // The paper allows arbitrary bit masks, e.g. wildcarding the upper 24
        // bits to shuffle on the lower 8 (load balancing example, §IV).
        let low8 = MaskedIpv4::new(Ipv4::new(0, 0, 0, 5), Ipv4::new(0, 0, 0, 255));
        assert!(low8.matches(Ipv4::new(99, 88, 77, 5)));
        assert!(!low8.matches(Ipv4::new(99, 88, 77, 6)));
        let exact = MaskedIpv4::exact(Ipv4::new(1, 2, 3, 5));
        assert!(low8.includes(&exact));
    }

    #[test]
    fn display_formats() {
        let m = FlowMatch::default()
            .with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16)
            .with_tp_dst(80);
        let s = m.to_string();
        assert!(s.contains("ip_dst=10.13.0.0 mask 255.255.0.0"), "{s}");
        assert!(s.contains("tp_dst=80"), "{s}");
        assert_eq!(FlowMatch::any().to_string(), "match{*}");
    }

    #[test]
    fn specified_fields_counts() {
        assert_eq!(FlowMatch::any().specified_fields(), 0);
        let m = FlowMatch::default()
            .with_ip_dst(Ipv4::new(1, 2, 3, 4))
            .with_tp_dst(80);
        // with_ip_dst also pins eth_type.
        assert_eq!(m.specified_fields(), 3);
    }
}
