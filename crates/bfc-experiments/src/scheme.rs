//! The registry of evaluated schemes (§4.1 "Comparison Schemes").
//!
//! A [`Scheme`] bundles the three pieces the paper varies together:
//! the switch configuration (ECN/INT/PFC/buffering), the per-switch queue
//! policy, and the host congestion control.

use bfc_core::{BfcConfig, BfcPolicy};
use bfc_net::config::SwitchConfig;
use bfc_net::packet::MTU;
use bfc_net::policy::{FifoPolicy, SfqPolicy, SwitchPolicy};
use bfc_sim::SimDuration;
use bfc_transport::HostConfig;

/// One evaluated scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Backpressure Flow Control with the given configuration (covers the
    /// BFC-VFID / BFC-BufferOpt / BFC-HighPriorityQ ablations via the config
    /// flags).
    Bfc(BfcConfig),
    /// DCQCN: single-FIFO switches with ECN, optional one-BDP window cap
    /// (`window`) and optional stochastic fair queueing (`sfq`).
    Dcqcn {
        /// Apply the one-BDP in-flight cap (DCQCN+Win).
        window: bool,
        /// Use stochastic fair queueing at switches (DCQCN+Win+SFQ).
        sfq: bool,
    },
    /// HPCC: INT-carrying switches, window control at the host.
    Hpcc,
    /// Ideal fair queueing: per-flow queues (approximated with a large number
    /// of SFQ queues), infinite buffers, no PFC, one-BDP window cap. An
    /// unrealizable upper bound.
    IdealFq,
    /// Static SFQ with infinite buffers and a one-BDP window (the
    /// SFQ+InfBuffer comparison of Fig. 7).
    SfqInfBuffer,
}

impl Scheme {
    /// The name used in tables, matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Scheme::Bfc(cfg) => {
                if !cfg.dynamic_assignment {
                    "BFC-VFID".to_string()
                } else if !cfg.limit_resumes {
                    "BFC-BufferOpt".to_string()
                } else if !cfg.use_high_priority_queue {
                    "BFC-HighPriorityQ".to_string()
                } else {
                    "BFC".to_string()
                }
            }
            Scheme::Dcqcn { window, sfq } => match (window, sfq) {
                (false, _) => "DCQCN".to_string(),
                (true, false) => "DCQCN+Win".to_string(),
                (true, true) => "DCQCN+Win+SFQ".to_string(),
            },
            Scheme::Hpcc => "HPCC".to_string(),
            Scheme::IdealFq => "Ideal-FQ".to_string(),
            Scheme::SfqInfBuffer => "SFQ+InfBuffer".to_string(),
        }
    }

    /// Plain BFC with the paper's defaults.
    pub fn bfc() -> Scheme {
        Scheme::Bfc(BfcConfig::default())
    }

    /// The straw-proposal ablation (static hashed queue assignment).
    pub fn bfc_vfid() -> Scheme {
        Scheme::Bfc(BfcConfig::vfid_straw())
    }

    /// The full comparison set of Fig. 5.
    pub fn paper_lineup() -> Vec<Scheme> {
        vec![
            Scheme::bfc(),
            Scheme::IdealFq,
            Scheme::Dcqcn {
                window: false,
                sfq: false,
            },
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
            Scheme::Hpcc,
            Scheme::Dcqcn {
                window: true,
                sfq: true,
            },
        ]
    }

    /// The stable machine-readable key used on command lines and in fuzz
    /// reproducer files. Round-trips through [`Scheme::from_cli_key`] for
    /// every scheme a key exists for. The BFC ablation configs other than
    /// `bfc` / `bfc-vfid` map onto the plain `bfc` key, which does not name
    /// them, so a fuzz reproducer refuses them ([`crate::fuzz::Reproducer`]).
    pub fn cli_key(&self) -> &'static str {
        match self {
            Scheme::Bfc(cfg) if !cfg.dynamic_assignment => "bfc-vfid",
            Scheme::Bfc(_) => "bfc",
            Scheme::Dcqcn { window: false, .. } => "dcqcn",
            Scheme::Dcqcn { window: true, sfq: false } => "dcqcn-win",
            Scheme::Dcqcn { window: true, sfq: true } => "dcqcn-win-sfq",
            Scheme::Hpcc => "hpcc",
            Scheme::IdealFq => "ideal-fq",
            Scheme::SfqInfBuffer => "sfq-inf",
        }
    }

    /// Parses a [`Scheme::cli_key`] back into a scheme.
    pub fn from_cli_key(key: &str) -> Option<Scheme> {
        Some(match key {
            "bfc" => Scheme::bfc(),
            "bfc-vfid" => Scheme::bfc_vfid(),
            "ideal-fq" => Scheme::IdealFq,
            "dcqcn" => Scheme::Dcqcn { window: false, sfq: false },
            "dcqcn-win" => Scheme::Dcqcn { window: true, sfq: false },
            "dcqcn-win-sfq" => Scheme::Dcqcn { window: true, sfq: true },
            "hpcc" => Scheme::Hpcc,
            "sfq-inf" => Scheme::SfqInfBuffer,
            _ => return None,
        })
    }

    /// Whether the scheme relies on PFC as a backstop.
    pub fn uses_pfc(&self) -> bool {
        !matches!(self, Scheme::IdealFq | Scheme::SfqInfBuffer)
    }

    /// Builds the switch configuration for this scheme. `queues_per_port`
    /// and `buffer_bytes` come from the experiment (they are swept by the
    /// sensitivity figures).
    ///
    /// `mtu` must be [`MTU`]: it is no setting, and stays only because the
    /// repository's benchmark calls `switch_config(32, 12_000_000, 1_000)`.
    /// It goes with the next change to the benchmark.
    pub fn switch_config(&self, queues_per_port: usize, buffer_bytes: u64, mtu: u32) -> SwitchConfig {
        assert_eq!(mtu, MTU, "every switch runs the paper's {MTU}-byte MTU");
        let base = SwitchConfig {
            queues_per_port,
            buffer_bytes,
            ..SwitchConfig::default()
        };
        match self {
            Scheme::Bfc(_) => base,
            Scheme::Dcqcn { .. } => SwitchConfig { ecn: true, ..base },
            Scheme::Hpcc => SwitchConfig {
                int_enabled: true,
                ..base
            },
            Scheme::IdealFq => SwitchConfig {
                // Approximate per-flow fair queueing with a large queue count.
                queues_per_port: 1_000,
                ..base
            }
            .with_infinite_buffer()
            .without_pfc(),
            Scheme::SfqInfBuffer => base.with_infinite_buffer().without_pfc(),
        }
    }

    /// Builds a fresh queue policy instance for one switch.
    pub fn make_policy(&self, seed: u64) -> Box<dyn SwitchPolicy> {
        match self {
            Scheme::Bfc(cfg) => Box::new(BfcPolicy::new(*cfg, seed)),
            Scheme::Dcqcn { sfq, .. } => {
                if *sfq {
                    Box::new(SfqPolicy::new())
                } else {
                    Box::new(FifoPolicy::new())
                }
            }
            Scheme::Hpcc => Box::new(FifoPolicy::new()),
            Scheme::IdealFq | Scheme::SfqInfBuffer => Box::new(SfqPolicy::new()),
        }
    }

    /// Builds the host configuration. `bdp_bytes` is one end-to-end
    /// bandwidth-delay product at the access-link rate.
    pub fn host_config(&self, base_rtt: SimDuration, bdp_bytes: u64) -> HostConfig {
        match self {
            Scheme::Bfc(_) => HostConfig::bfc(base_rtt),
            Scheme::Dcqcn { window, .. } => {
                HostConfig::dcqcn(base_rtt, window.then_some(bdp_bytes))
            }
            Scheme::Hpcc => HostConfig::hpcc(base_rtt),
            Scheme::IdealFq | Scheme::SfqInfBuffer => {
                HostConfig::window_limited(base_rtt, bdp_bytes)
            }
        }
    }

    /// The number of VFIDs hosts must use when computing packet VFIDs (only
    /// meaningful for BFC; other schemes hash into a large space).
    pub fn num_vfids(&self) -> u32 {
        match self {
            Scheme::Bfc(cfg) => cfg.num_vfids,
            _ => 1 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::packet::Packet;
    use bfc_net::policy::{EnqueueCtx, QueueTarget};
    use bfc_net::port::Port;
    use bfc_net::types::{FlowId, NodeId};
    use bfc_net::Link;

    #[test]
    fn names_match_paper_legends() {
        let names: Vec<String> = Scheme::paper_lineup().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["BFC", "Ideal-FQ", "DCQCN", "DCQCN+Win", "HPCC", "DCQCN+Win+SFQ"]
        );
        assert_eq!(Scheme::bfc_vfid().name(), "BFC-VFID");
        assert_eq!(Scheme::Bfc(BfcConfig::without_resume_limit()).name(), "BFC-BufferOpt");
        assert_eq!(
            Scheme::Bfc(BfcConfig::without_high_priority_queue()).name(),
            "BFC-HighPriorityQ"
        );
        assert_eq!(Scheme::SfqInfBuffer.name(), "SFQ+InfBuffer");
    }

    #[test]
    fn cli_keys_round_trip() {
        for scheme in Scheme::paper_lineup()
            .into_iter()
            .chain([Scheme::bfc_vfid(), Scheme::SfqInfBuffer])
        {
            assert_eq!(Scheme::from_cli_key(scheme.cli_key()), Some(scheme.clone()));
        }
        assert_eq!(Scheme::from_cli_key("no-such-scheme"), None);
    }

    #[test]
    fn switch_configs_reflect_scheme_features() {
        let bfc = Scheme::bfc().switch_config(32, 12_000_000, MTU);
        assert!(!bfc.ecn && !bfc.int_enabled && bfc.pfc);
        let dcqcn = Scheme::Dcqcn { window: true, sfq: false }.switch_config(32, 12_000_000, MTU);
        assert!(dcqcn.ecn);
        let hpcc = Scheme::Hpcc.switch_config(32, 12_000_000, MTU);
        assert!(hpcc.int_enabled && !hpcc.ecn);
        let ideal = Scheme::IdealFq.switch_config(32, 12_000_000, MTU);
        assert_eq!(ideal.buffer_bytes, u64::MAX);
        assert!(!ideal.pfc);
        assert_eq!(ideal.queues_per_port, 1_000);
        assert!(!Scheme::IdealFq.uses_pfc());
        assert!(Scheme::bfc().uses_pfc());
    }

    /// The queue `scheme`'s policy gives a mid-flow data packet of VFID 77 on
    /// a 32-queue egress, and whether choosing it probed a flow table.
    fn first_decision(scheme: Scheme) -> (QueueTarget, bool) {
        let port = Port::new(Link::datacenter_default(), None, 32);
        let ctx = EnqueueCtx {
            ingress: 0,
            egress: 1,
            port: &port,
        };
        let packet = Packet::data(FlowId(1), NodeId(8), NodeId(9), 5, 1000, 77, false);
        let mut policy = scheme.make_policy(1);
        let target = policy.on_enqueue(&ctx, &packet).target;
        (target, policy.probe_stats().lookups > 0)
    }

    #[test]
    fn policies_and_hosts_match_scheme() {
        let rtt = SimDuration::from_micros(8);
        // The policies are told apart by what they do: a flow table or none,
        // and queue 0, the VFID's static hash, or a free queue.
        let hashed = QueueTarget::Phys(SfqPolicy::queue_for(77, 32));
        assert_ne!(hashed, QueueTarget::Phys(0));
        let (dynamic, tracked) = first_decision(Scheme::bfc());
        assert!(tracked && dynamic != hashed && matches!(dynamic, QueueTarget::Phys(_)));
        assert_eq!(first_decision(Scheme::bfc_vfid()), (hashed, true));
        assert_eq!(
            first_decision(Scheme::Dcqcn {
                window: true,
                sfq: true
            }),
            (hashed, false)
        );
        assert_eq!(first_decision(Scheme::Hpcc), (QueueTarget::Phys(0), false));
        let host = Scheme::Dcqcn { window: true, sfq: false }.host_config(rtt, 100_000);
        assert_eq!(host.window_bytes, Some(100_000));
        let host = Scheme::Dcqcn { window: false, sfq: false }.host_config(rtt, 100_000);
        assert_eq!(host.window_bytes, None);
        assert_eq!(Scheme::bfc().num_vfids(), 16_384);
        assert_eq!(Scheme::Hpcc.num_vfids(), 1 << 20);
    }
}
