//! The WAN generator.
//!
//! Layout per region `r`:
//!
//! ```text
//!   DC[r,p] ==eBGP== PE[r,p] ====== CR[r,0] ---- backbone ring + extra
//!                      \\            |            cross-region links
//!                       \\========= CR[r,1]      (asymmetric)
//!   ISP[r,i] ==eBGP== MAN[r,i] ==== CR[r,0], CR[r,1]
//! ```
//!
//! The core (CR/PE/MAN) is one AS running iBGP over IS-IS: core routers are
//! route reflectors, PE/MAN routers their clients. Each PE pair announces
//! customer prefixes learned over eBGP from its DC edge; PEs also carry a
//! static route pinning the DC path for one prefix, and two designated
//! "old" PEs override the eBGP protocol preference to 30 — the §7.1 outage
//! ingredients. MAN routers peer with external ISPs; egress policy toward
//! ISPs only announces customer routes (matched by community).

use hoyan_config::*;
use hoyan_nettypes::{AsNum, Community, Ipv4Addr, Ipv4Prefix};
use hoyan_rt::rng::StdRng;

/// The backbone AS number.
pub const CORE_AS: AsNum = 64500;
/// Community tagged on customer routes at PE ingress.
pub const CUSTOMER_COMMUNITY: Community = Community {
    raw: (64500u32 << 16) | 100,
    extended: false,
};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct WanSpec {
    /// RNG seed (all output is deterministic in the seed).
    pub seed: u64,
    /// Number of geographic regions.
    pub regions: usize,
    /// Provider-edge routers per region (each with a DC edge).
    pub pes_per_region: usize,
    /// MAN routers per region (each with an external ISP).
    pub mans_per_region: usize,
    /// Customer leaf (/24) prefixes per PE.
    pub prefixes_per_pe: usize,
    /// Extra random cross-region core links (asymmetry knob).
    pub extra_core_links: usize,
    /// Leaf prefixes per aggregate block. At the default (`1`) every
    /// customer prefix is a flat /24 as before. At `4`, each PE's leaves
    /// are grouped into /22 blocks and the DC additionally announces the
    /// covering /22 — the overlap closure then co-simulates each block as
    /// one five-prefix family, which is how the paper-scale preset reaches
    /// O(10k) prefixes without O(10k) separate simulations.
    pub block_prefixes: usize,
}

impl WanSpec {
    /// A few-node WAN for unit tests.
    pub fn tiny(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 2,
            pes_per_region: 1,
            mans_per_region: 1,
            prefixes_per_pe: 1,
            extra_core_links: 1,
            block_prefixes: 1,
        }
    }

    /// Roughly 20 core routers — the paper's "small subnet" (§8.2).
    pub fn small(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 2,
            pes_per_region: 5,
            mans_per_region: 3,
            prefixes_per_pe: 2,
            extra_core_links: 2,
            block_prefixes: 1,
        }
    }

    /// Roughly 80 core routers — the paper's "medium subnet" (§8.2).
    pub fn medium(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 5,
            pes_per_region: 8,
            mans_per_region: 6,
            prefixes_per_pe: 2,
            extra_core_links: 5,
            block_prefixes: 1,
        }
    }

    /// The reference WAN (O(100) core routers) used for the in-the-wild
    /// figures.
    pub fn reference(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 6,
            pes_per_region: 9,
            mans_per_region: 7,
            prefixes_per_pe: 3,
            extra_core_links: 8,
            block_prefixes: 1,
        }
    }

    /// Paper-scale preset (~100 devices including DC and ISP edges):
    /// 4 regions of 2 CRs + 8 PEs + 3 MANs, i.e. 52 core routers, plus one
    /// DC router per PE and one ISP per MAN, with one flat /24 per family.
    /// Behind `hoyan gen --size wan-large`; `tests/family_index.rs` checks
    /// the prefix-family index on it.
    pub fn wan_large(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 4,
            pes_per_region: 8,
            mans_per_region: 3,
            prefixes_per_pe: 2,
            extra_core_links: 4,
            block_prefixes: 1,
        }
    }

    /// The Table-3 preset: O(100) core routers and O(10k) announced
    /// customer prefixes. Leaves are grouped into /22 aggregate blocks
    /// (`block_prefixes = 4`, i.e. five announced prefixes per block) so
    /// the sweep co-simulates each block as one family — the scale knob
    /// that makes a whole-WAN sweep tractable, exactly like the paper's
    /// per-"related group" simulation. Seeded and pinned like `wan_large`
    /// (see `wan_paper_is_table3_scale`).
    pub fn wan_paper(seed: u64) -> WanSpec {
        WanSpec {
            seed,
            regions: 4,
            pes_per_region: 10,
            mans_per_region: 3,
            prefixes_per_pe: 200,
            extra_core_links: 4,
            block_prefixes: 4,
        }
    }

    /// Number of core (single-AS) routers this spec produces.
    pub fn core_router_count(&self) -> usize {
        self.regions * (2 + self.pes_per_region + self.mans_per_region)
    }

    /// Builds the WAN.
    pub fn build(&self) -> Wan {
        Builder::new(self.clone()).build()
    }
}

/// A generated WAN: parsed configs plus emitted texts and bookkeeping.
#[derive(Clone, Debug)]
pub struct Wan {
    /// Parsed device configurations (core + externals).
    pub configs: Vec<DeviceConfig>,
    /// The emitted configuration text per device (parse-verified).
    pub texts: Vec<String>,
    /// Customer prefixes announced by DC edges.
    pub customer_prefixes: Vec<Ipv4Prefix>,
    /// External (ISP) prefixes.
    pub external_prefixes: Vec<Ipv4Prefix>,
    /// Redundant device pairs subject to the equivalent-role intent (the
    /// two core routers of each region).
    pub equiv_pairs: Vec<(String, String)>,
    /// Mapping `(prefix, dc, pe)` for every customer prefix.
    pub prefix_origin: Vec<(Ipv4Prefix, String, String)>,
    /// The two "old" PEs whose eBGP preference is 30 (§7.1).
    pub old_pes: Vec<String>,
}

impl Wan {
    /// Total device count (core + external).
    pub fn device_count(&self) -> usize {
        self.configs.len()
    }

    /// Hostname list.
    pub fn hostnames(&self) -> Vec<&str> {
        self.configs.iter().map(|c| c.hostname.as_str()).collect()
    }

    /// Looks a config up by hostname.
    pub fn config(&self, hostname: &str) -> Option<&DeviceConfig> {
        self.configs.iter().find(|c| c.hostname == hostname)
    }
}

struct Builder {
    spec: WanSpec,
    rng: StdRng,
    configs: Vec<DeviceConfig>,
    customer_prefixes: Vec<Ipv4Prefix>,
    external_prefixes: Vec<Ipv4Prefix>,
    old_pes: Vec<String>,
    next_router_id: u32,
}

impl Builder {
    fn new(spec: WanSpec) -> Builder {
        let rng = StdRng::seed_from_u64(spec.seed);
        Builder {
            spec,
            rng,
            configs: Vec::new(),
            customer_prefixes: Vec::new(),
            external_prefixes: Vec::new(),
            old_pes: Vec::new(),
            next_router_id: 1,
        }
    }

    fn vendor_for(&mut self, role: &str) -> Vendor {
        match role {
            "core" => Vendor::A, // region parity overrides below
            "man" => {
                if self.rng.gen_bool(0.6) {
                    Vendor::B
                } else {
                    Vendor::A
                }
            }
            _ => {
                if self.rng.gen_bool(0.3) {
                    Vendor::C
                } else {
                    Vendor::A
                }
            }
        }
    }

    fn device(&mut self, hostname: &str, vendor: Vendor) -> usize {
        let mut cfg = DeviceConfig::new(hostname);
        cfg.vendor = vendor;
        cfg.router_id = self.next_router_id;
        self.next_router_id += 1;
        self.configs.push(cfg);
        self.configs.len() - 1
    }

    fn find(&mut self, hostname: &str) -> usize {
        self.configs
            .iter()
            .position(|c| c.hostname == hostname)
            .expect("device exists")
    }

    /// Adds a bidirectional link unless the pair is already linked.
    fn link(&mut self, a: &str, b: &str, metric: u32) {
        let ai = self.find(a);
        if self.configs[ai].interfaces.iter().any(|i| i.peer == b) {
            return;
        }
        self.link_unchecked(a, b, metric);
    }

    fn link_unchecked(&mut self, a: &str, b: &str, metric: u32) {
        let ai = self.find(a);
        let n = self.configs[ai].interfaces.len();
        self.configs[ai].interfaces.push(InterfaceConfig {
            name: format!("eth{n}"),
            peer: b.to_string(),
            link_metric: metric,
            acl_in: None,
            acl_out: None,
        });
        let bi = self.find(b);
        let n = self.configs[bi].interfaces.len();
        self.configs[bi].interfaces.push(InterfaceConfig {
            name: format!("eth{n}"),
            peer: a.to_string(),
            link_metric: metric,
            acl_in: None,
            acl_out: None,
        });
    }

    fn enable_isis(&mut self, hostname: &str, area: u32, level: IsisLevel) {
        let i = self.find(hostname);
        self.configs[i].isis = Some(IsisConfig { area, level, protocol: IgpKind::Isis });
    }

    fn bgp(&mut self, hostname: &str, asn: AsNum) -> &mut BgpConfig {
        let i = self.find(hostname);
        self.configs[i].bgp.get_or_insert_with(|| BgpConfig::new(asn))
    }

    fn build(mut self) -> Wan {
        let spec = self.spec.clone();

        // ---- Devices ----
        for r in 0..spec.regions {
            for c in 0..2 {
                // Odd regions run vendor-B cores: a VSB on a backbone relay
                // cascades to everything downstream (the paper's accuracy
                // collapse before the tuner ran).
                let v = if r % 2 == 1 { Vendor::B } else { self.vendor_for("core") };
                self.device(&format!("CR{r}x{c}"), v);
            }
            for p in 0..spec.pes_per_region {
                let v = self.vendor_for("pe");
                self.device(&format!("PE{r}x{p}"), v);
                self.device(&format!("DC{r}x{p}"), Vendor::A);
            }
            for m in 0..spec.mans_per_region {
                let v = self.vendor_for("man");
                self.device(&format!("MAN{r}x{m}"), v);
                self.device(&format!("ISP{r}x{m}"), Vendor::A);
            }
        }

        // ---- Physical links ----
        // Backbone: dual ring over region cores + intra-region core pair.
        for r in 0..spec.regions {
            self.link(&format!("CR{r}x0"), &format!("CR{r}x1"), 10);
            let next = (r + 1) % spec.regions;
            if next != r {
                self.link(&format!("CR{r}x0"), &format!("CR{next}x0"), 20);
                self.link(&format!("CR{r}x1"), &format!("CR{next}x1"), 25);
            }
        }
        // Extra asymmetric cross-region links.
        for _ in 0..spec.extra_core_links {
            let r1 = self.rng.gen_range(0..spec.regions);
            let r2 = self.rng.gen_range(0..spec.regions);
            let c1 = self.rng.gen_range(0..2);
            let c2 = self.rng.gen_range(0..2);
            let a = format!("CR{r1}x{c1}");
            let b = format!("CR{r2}x{c2}");
            if a == b {
                continue;
            }
            let ai = self.find(&a);
            if self.configs[ai].interfaces.iter().any(|i| i.peer == b) {
                continue;
            }
            let metric = self.rng.gen_range(15..40);
            self.link(&a, &b, metric);
        }
        // PEs to both region cores; DC edge to its PE.
        for r in 0..spec.regions {
            for p in 0..spec.pes_per_region {
                let pe = format!("PE{r}x{p}");
                self.link(&pe, &format!("CR{r}x0"), 10);
                self.link(&pe, &format!("CR{r}x1"), 10);
                self.link(&pe, &format!("DC{r}x{p}"), 5);
            }
            for m in 0..spec.mans_per_region {
                let man = format!("MAN{r}x{m}");
                self.link(&man, &format!("CR{r}x0"), 12);
                self.link(&man, &format!("CR{r}x1"), 12);
                self.link(&man, &format!("ISP{r}x{m}"), 5);
            }
        }

        // ---- IS-IS on the core AS ----
        for r in 0..spec.regions {
            for c in 0..2 {
                self.enable_isis(&format!("CR{r}x{c}"), 0, IsisLevel::L1L2);
            }
            for p in 0..spec.pes_per_region {
                self.enable_isis(&format!("PE{r}x{p}"), 0, IsisLevel::L1L2);
            }
            for m in 0..spec.mans_per_region {
                self.enable_isis(&format!("MAN{r}x{m}"), 0, IsisLevel::L1L2);
            }
        }

        // ---- Prefixes ----
        let mut customer_by_pe: Vec<(String, Vec<Ipv4Prefix>)> = Vec::new();
        let mut counter = 0u32;
        let mut block = 0u32;
        for r in 0..spec.regions {
            for p in 0..spec.pes_per_region {
                let mut list = Vec::new();
                if spec.block_prefixes > 1 {
                    // Aggregate blocks: each /22 covers `block_prefixes`
                    // leaf /24s announced alongside it, so the overlap
                    // closure co-simulates the whole block as one family.
                    let bs = spec.block_prefixes.min(4) as u32;
                    let blocks = spec.prefixes_per_pe / spec.block_prefixes.min(4);
                    for _ in 0..blocks {
                        let x = (block / 64) as u8;
                        let y = ((block % 64) * 4) as u8;
                        block += 1;
                        let agg = Ipv4Prefix::new(Ipv4Addr::new(10, x, y, 0), 22);
                        list.push(agg);
                        self.customer_prefixes.push(agg);
                        for i in 0..bs {
                            let pfx = Ipv4Prefix::new(
                                Ipv4Addr::new(10, x, y + i as u8, 0),
                                24,
                            );
                            list.push(pfx);
                            self.customer_prefixes.push(pfx);
                        }
                    }
                } else {
                    for _ in 0..spec.prefixes_per_pe {
                        let pfx = Ipv4Prefix::new(
                            Ipv4Addr::new(10, (counter / 250) as u8, (counter % 250) as u8, 0),
                            24,
                        );
                        counter += 1;
                        list.push(pfx);
                        self.customer_prefixes.push(pfx);
                    }
                }
                customer_by_pe.push((format!("DC{r}x{p}"), list));
            }
        }
        let mut ext_counter = 0u8;
        let mut external_by_isp: Vec<(String, Ipv4Prefix)> = Vec::new();
        for r in 0..spec.regions {
            for m in 0..spec.mans_per_region {
                let pfx =
                    Ipv4Prefix::new(Ipv4Addr::new(198, 18, ext_counter, 0), 24);
                ext_counter = ext_counter.wrapping_add(1);
                self.external_prefixes.push(pfx);
                external_by_isp.push((format!("ISP{r}x{m}"), pfx));
            }
        }

        // ---- BGP ----
        // Core routers: iBGP full mesh among cores + RR for region clients.
        let core_names: Vec<String> = (0..spec.regions)
            .flat_map(|r| (0..2).map(move |c| format!("CR{r}x{c}")))
            .collect();
        for name in &core_names {
            self.bgp(name, CORE_AS);
        }
        for i in 0..core_names.len() {
            for j in 0..core_names.len() {
                if i == j {
                    continue;
                }
                let peer = core_names[j].clone();
                let bgp = self.bgp(&core_names[i], CORE_AS);
                bgp.neighbor_mut(&peer, CORE_AS);
            }
        }

        // PE/MAN as RR clients of the two region cores.
        for r in 0..spec.regions {
            let cr0 = format!("CR{r}x0");
            let cr1 = format!("CR{r}x1");
            let mut clients: Vec<String> = (0..spec.pes_per_region)
                .map(|p| format!("PE{r}x{p}"))
                .collect();
            clients.extend((0..spec.mans_per_region).map(|m| format!("MAN{r}x{m}")));
            for client in clients {
                for cr in [&cr0, &cr1] {
                    let bgp = self.bgp(cr, CORE_AS);
                    bgp.neighbor_mut(&client, CORE_AS).rr_client = true;
                    let bgp = self.bgp(&client, CORE_AS);
                    let n = bgp.neighbor_mut(cr, CORE_AS);
                    n.next_hop_self = false;
                }
            }
        }

        // PE <-> DC edge eBGP, with customer-tagging ingress policy, a
        // static+redistribution for the first prefix, and next-hop-self
        // toward the cores.
        for (idx, (dc_name, prefixes)) in customer_by_pe.iter().enumerate() {
            let pe_name = dc_name.replace("DC", "PE");
            let dc_as: AsNum = 65000 + idx as u32;

            // DC edge announces its prefixes. Every third DC prepends a
            // public+private AS pattern (traffic engineering), which makes
            // the remove-private-AS semantics observable downstream.
            {
                let prepends = idx % 3 == 0;
                let bgp = self.bgp(dc_name, dc_as);
                bgp.networks.extend(prefixes.iter().copied());
                let n = bgp.neighbor_mut(&pe_name, CORE_AS);
                if prepends {
                    n.route_map_out = Some("RM_TE_OUT".to_string());
                }
                if prepends {
                    let i = self.find(dc_name);
                    let rm = self.configs[i]
                        .route_maps
                        .entry("RM_TE_OUT".to_string())
                        .or_default();
                    if rm.entries.is_empty() {
                        rm.entries.push(RouteMapEntry {
                            seq: 10,
                            action: Action::Permit,
                            matches: vec![],
                            sets: vec![SetClause::Prepend(vec![3356, 64513])],
                        });
                    }
                }
            }
            // PE ingress: permit only this DC's prefixes, tag community,
            // set customer local-pref.
            {
                let i = self.find(&pe_name);
                let cfg = &mut self.configs[i];
                let pl_name = "PL_CUST".to_string();
                let pl = cfg.prefix_lists.entry(pl_name.clone()).or_default();
                for p in prefixes {
                    pl.entries.push(PrefixListEntry {
                        action: Action::Permit,
                        prefix: *p,
                        ge: None,
                        le: None,
                    });
                }
                let rm = cfg.route_maps.entry("RM_CUST_IN".to_string()).or_default();
                if rm.entries.is_empty() {
                    rm.entries.push(RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![MatchClause::PrefixList(pl_name)],
                        sets: vec![
                            SetClause::LocalPref(300),
                            SetClause::Community {
                                community: CUSTOMER_COMMUNITY,
                                additive: true,
                            },
                        ],
                    });
                    rm.entries.push(RouteMapEntry {
                        seq: 20,
                        action: Action::Deny,
                        matches: vec![],
                        sets: vec![],
                    });
                }
                // A static pinning the DC-facing forwarding path for the
                // first prefix (the §7.1 ingredient: the FIB contest is
                // static-preference vs eBGP-preference).
                cfg.static_routes.push(StaticRoute {
                    prefix: prefixes[0],
                    next_hop: dc_name.clone(),
                    preference: 1,
                });
            }
            {
                let bgp = self.bgp(&pe_name, CORE_AS);
                let n = bgp.neighbor_mut(dc_name, dc_as);
                n.route_map_in = Some("RM_CUST_IN".to_string());
                // next-hop-self toward the RRs so core FIBs resolve via IGP.
                for cr in [
                    dc_name.replace("DC", "CR").split('x').next().unwrap().to_string() + "x0",
                    dc_name.replace("DC", "CR").split('x').next().unwrap().to_string() + "x1",
                ] {
                    let bgp2 = self.bgp(&pe_name, CORE_AS);
                    bgp2.neighbor_mut(&cr, CORE_AS).next_hop_self = true;
                }
            }
        }

        // MAN <-> ISP eBGP: ISP announces an external prefix; MAN egress to
        // the ISP only announces customer-tagged routes.
        for (idx, (isp_name, pfx)) in external_by_isp.iter().enumerate() {
            let man_name = isp_name.replace("ISP", "MAN");
            let isp_as: AsNum = 64600 + idx as u32;
            {
                let bgp = self.bgp(isp_name, isp_as);
                bgp.networks.push(*pfx);
                bgp.neighbor_mut(&man_name, CORE_AS);
            }
            {
                let i = self.find(&man_name);
                let cfg = &mut self.configs[i];
                let rm = cfg
                    .route_maps
                    .entry("RM_ISP_OUT".to_string())
                    .or_default();
                if rm.entries.is_empty() {
                    rm.entries.push(RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![MatchClause::Community(CUSTOMER_COMMUNITY)],
                        sets: vec![],
                    });
                    rm.entries.push(RouteMapEntry {
                        seq: 20,
                        action: Action::Deny,
                        matches: vec![],
                        sets: vec![],
                    });
                }
                let rm_in = cfg.route_maps.entry("RM_ISP_IN".to_string()).or_default();
                if rm_in.entries.is_empty() {
                    rm_in.entries.push(RouteMapEntry {
                        seq: 10,
                        action: Action::Permit,
                        matches: vec![],
                        sets: vec![SetClause::LocalPref(100)],
                    });
                }
            }
            {
                let bgp = self.bgp(&man_name, CORE_AS);
                let n = bgp.neighbor_mut(isp_name, isp_as);
                n.route_map_out = Some("RM_ISP_OUT".to_string());
                n.route_map_in = Some("RM_ISP_IN".to_string());
                // Private DC AS numbers must not leak to ISPs; the removal
                // semantics are the "remove private AS" VSB.
                n.remove_private_as = true;
                let region = man_name
                    .trim_start_matches("MAN")
                    .split('x')
                    .next()
                    .unwrap()
                    .to_string();
                for cr in [format!("CR{region}x0"), format!("CR{region}x1")] {
                    let bgp2 = self.bgp(&man_name, CORE_AS);
                    bgp2.neighbor_mut(&cr, CORE_AS).next_hop_self = true;
                }
            }
        }

        // All PEs run a vendor-default eBGP preference of 255, so statics
        // (preference 1..150) normally win the FIB merge; the two "old" PEs
        // below override it to 30 for a legacy business reason (§7.1).
        for r in 0..spec.regions {
            for p in 0..spec.pes_per_region {
                let name = format!("PE{r}x{p}");
                let i = self.find(&name);
                self.configs[i].preferences.ebgp = 255;
            }
        }

        // Two "old" PEs with eBGP preference 30 (§7.1).
        if spec.regions >= 1 && spec.pes_per_region >= 1 {
            for r in 0..spec.regions.min(2) {
                let name = format!("PE{r}x0");
                let i = self.find(&name);
                self.configs[i].preferences.ebgp = 30;
                self.old_pes.push(name);
            }
        }

        // ---- Emit & reparse (the pipeline always exercises the parser) ----
        let texts: Vec<String> = self.configs.iter().map(emit::emit_config).collect();
        let configs: Vec<DeviceConfig> = texts
            .iter()
            .map(|t| parse_config(t).expect("generated config must parse"))
            .collect();

        let equiv_pairs = (0..spec.regions)
            .map(|r| (format!("CR{r}x0"), format!("CR{r}x1")))
            .collect();
        let prefix_origin = customer_by_pe
            .iter()
            .flat_map(|(dc, prefixes)| {
                let pe = dc.replace("DC", "PE");
                prefixes
                    .iter()
                    .map(move |p| (*p, dc.clone(), pe.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        Wan {
            configs,
            texts,
            customer_prefixes: self.customer_prefixes,
            external_prefixes: self.external_prefixes,
            equiv_pairs,
            prefix_origin,
            old_pes: self.old_pes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_wan_builds_and_reparses() {
        let wan = WanSpec::tiny(1).build();
        assert_eq!(
            wan.device_count(),
            2 * (2 + 1 + 1) + 2 * 2 // core + DC/ISP externals
        );
        assert_eq!(wan.customer_prefixes.len(), 2);
        assert_eq!(wan.external_prefixes.len(), 2);
        for (cfg, text) in wan.configs.iter().zip(&wan.texts) {
            assert_eq!(&parse_config(text).unwrap(), cfg);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = WanSpec::small(7).build();
        let b = WanSpec::small(7).build();
        assert_eq!(a.texts, b.texts);
        let c = WanSpec::small(8).build();
        assert_ne!(a.texts, c.texts);
    }

    #[test]
    fn small_and_medium_sizes_match_paper_subnets() {
        assert_eq!(WanSpec::small(1).core_router_count(), 20);
        assert_eq!(WanSpec::medium(1).core_router_count(), 80);
        let reference = WanSpec::reference(1).core_router_count();
        assert!((90..=130).contains(&reference));
    }

    #[test]
    fn wan_large_is_paper_scale() {
        // The `gen --size wan-large` preset: ~100 devices total, pinned so
        // generated fixtures stay stable across PRs.
        let spec = WanSpec::wan_large(1);
        assert_eq!(spec.core_router_count(), 52);
        let wan = spec.build();
        assert_eq!(wan.device_count(), 96);
        assert_eq!(wan.customer_prefixes.len(), 64);
    }

    #[test]
    fn wan_paper_is_table3_scale() {
        // The `gen --size wan-paper` preset: O(100) routers and O(10k)
        // announced prefixes, pinned so `experiments wan` measures a
        // stable whole-WAN workload across PRs.
        let spec = WanSpec::wan_paper(1);
        assert_eq!(spec.core_router_count(), 60);
        let wan = spec.build();
        assert_eq!(wan.device_count(), 112);
        // 40 PEs × 50 blocks × (1 aggregate + 4 leaves).
        assert_eq!(wan.customer_prefixes.len(), 10_000);
        assert_eq!(wan.external_prefixes.len(), 12);
        // Every block is one overlap family: the /22 covers its leaves.
        let agg = wan.customer_prefixes[0];
        assert_eq!(agg.len(), 22);
        for leaf in &wan.customer_prefixes[1..5] {
            assert_eq!(leaf.len(), 24);
            assert!(agg.contains(*leaf), "{agg} should cover {leaf}");
        }
        // Blocks stay inside 10.0.0.0/8 well clear of the perturbation
        // range (10.240.0.0/12).
        let last = *wan.customer_prefixes.last().unwrap();
        assert!(last.network().octets()[1] < 32);
    }

    #[test]
    fn block_prefixes_default_keeps_legacy_addressing() {
        // `block_prefixes: 1` must reproduce the historical flat-/24
        // scheme byte-for-byte — committed fixtures and BENCH baselines
        // depend on it.
        let wan = WanSpec::wan_large(42).build();
        assert_eq!(wan.customer_prefixes.len(), 64);
        assert!(wan.customer_prefixes.iter().all(|p| p.len() == 24));
        assert_eq!(wan.customer_prefixes[0], "10.0.0.0/24".parse().unwrap());
    }

    #[test]
    fn old_pes_have_low_ebgp_preference() {
        let wan = WanSpec::small(3).build();
        assert_eq!(wan.old_pes.len(), 2);
        for pe in &wan.old_pes {
            assert_eq!(wan.config(pe).unwrap().preferences.ebgp, 30);
        }
    }

    #[test]
    fn pe_has_a_pinning_static() {
        let wan = WanSpec::tiny(5).build();
        let pe = wan.config("PE0x0").unwrap();
        assert_eq!(pe.static_routes.len(), 1);
        assert_eq!(pe.static_routes[0].preference, 1);
    }

    #[test]
    fn man_egress_policy_filters_by_community() {
        let wan = WanSpec::tiny(5).build();
        let man = wan.config("MAN0x0").unwrap();
        let rm = &man.route_maps["RM_ISP_OUT"];
        assert!(matches!(
            rm.entries[0].matches[0],
            MatchClause::Community(c) if c == CUSTOMER_COMMUNITY
        ));
    }
}
