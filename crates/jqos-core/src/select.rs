//! Service selection: the `register(...)` API of §3.5.
//!
//! An application registers with J-QoS by declaring a latency budget for a
//! destination.  The framework estimates the delivery (and loss-recovery)
//! latency of each service from the path delays of Figure 2 —
//!
//! * forwarding: `x + 2δ`
//! * caching:   `y + 2δ_r (+ Δ)`
//! * coding:    `y + 4δ_r (+ Δ)`
//!
//! — and picks the *cheapest* service whose latency fits the budget, because
//! the services form a cost spectrum (coding < caching < forwarding).  The
//! selector can later *upgrade* a flow to a more expensive service when
//! delivery statistics show the current one is missing the budget.

use netsim::Dur;

/// The delivery service assigned to a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceKind {
    /// Best-effort Internet only (no cloud assistance).
    InternetOnly,
    /// CR-WAN coding service (cheapest cloud service).
    Coding,
    /// Caching service.
    Caching,
    /// Forwarding over the full cloud overlay (most expensive).
    Forwarding,
}

impl ServiceKind {
    /// All cloud services ordered from cheapest to most expensive, the order
    /// in which the selector considers them.
    pub const CLOUD_SERVICES_BY_COST: [ServiceKind; 3] = [
        ServiceKind::Coding,
        ServiceKind::Caching,
        ServiceKind::Forwarding,
    ];

    /// Relative egress-bandwidth cost factor per delivered packet, following
    /// §3: forwarding pays `2c`, caching `c`, coding `α·c`.
    pub fn relative_cost(&self, alpha: f64) -> f64 {
        match self {
            ServiceKind::InternetOnly => 0.0,
            ServiceKind::Coding => alpha,
            ServiceKind::Caching => 1.0,
            ServiceKind::Forwarding => 2.0,
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ServiceKind::InternetOnly => "internet",
            ServiceKind::Coding => "coding",
            ServiceKind::Caching => "caching",
            ServiceKind::Forwarding => "forwarding",
        };
        write!(f, "{name}")
    }
}

/// One-way delays of the segments in Figure 2 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathDelays {
    /// Direct Internet path sender → receiver (`y`).
    pub y: Dur,
    /// Sender → DC1 access segment (`δ_s`).
    pub delta_s: Dur,
    /// DC1 → DC2 inter-DC segment (`x`).
    pub x: Dur,
    /// Receiver → DC2 access segment (`δ_r`).
    pub delta_r: Dur,
    /// Median receiver↔DC2 latency across the cooperating receivers, used by
    /// the coding service's cooperative round trip (`δ_median` in §6.1).
    pub delta_median: Dur,
}

impl PathDelays {
    /// Builds the delay set assuming the cooperating receivers have the same
    /// access latency as this receiver.
    pub fn symmetric(y: Dur, delta_s: Dur, x: Dur, delta_r: Dur) -> Self {
        PathDelays {
            y,
            delta_s,
            x,
            delta_r,
            delta_median: delta_r,
        }
    }

    /// Round-trip time of the direct Internet path.
    pub fn rtt(&self) -> Dur {
        self.y * 2
    }

    /// The wait, if any, for the cloud copy of a packet to arrive at DC2
    /// before a pull/recovery can be served (`Δ` in §6.1): positive when the
    /// S→DC1→DC2 segment is slower than the S→R→DC2 segment.
    pub fn cloud_copy_wait(&self) -> Dur {
        let via_cloud = self.delta_s + self.x;
        let via_receiver = self.y + self.delta_r;
        via_cloud.saturating_sub(via_receiver)
    }

    /// End-to-end delivery latency when the packet has to be obtained through
    /// the given service (for forwarding this is the normal delivery path;
    /// for caching/coding it is the loss-recovery path).
    pub fn delivery_latency(&self, service: ServiceKind) -> Dur {
        match service {
            ServiceKind::InternetOnly => self.y,
            ServiceKind::Forwarding => self.delta_s + self.x + self.delta_r,
            ServiceKind::Caching => self.y + self.delta_r * 2 + self.cloud_copy_wait(),
            ServiceKind::Coding => {
                self.y + self.delta_r * 2 + self.delta_median * 2 + self.cloud_copy_wait()
            }
        }
    }

    /// Recovery latency expressed as a fraction of the direct-path RTT, as
    /// plotted in Figure 7(b).
    pub fn recovery_fraction_of_rtt(&self, service: ServiceKind) -> f64 {
        let rtt = self.rtt().as_millis_f64();
        if rtt == 0.0 {
            return 0.0;
        }
        let recovery = match service {
            ServiceKind::InternetOnly => self.rtt(), // sender retransmission
            ServiceKind::Forwarding => Dur::ZERO,    // no recovery needed
            ServiceKind::Caching => self.delta_r * 2 + self.cloud_copy_wait(),
            ServiceKind::Coding => {
                self.delta_r * 2 + self.delta_median * 2 + self.cloud_copy_wait()
            }
        };
        recovery.as_millis_f64() / rtt
    }
}

/// A registration request from an application (§3.5's `register(...)`).
#[derive(Clone, Copy, Debug)]
pub struct Registration {
    /// Maximum tolerable one-way delivery latency.
    pub latency_budget: Dur,
    /// Whether the application tolerates occasional unrecovered losses.
    ///
    /// The selector does not read it: [`ServiceSelector::select`] and
    /// [`ServiceSelector::maybe_upgrade`] answer the same either way.  The
    /// field is carried on the wire (the relay's `Register` message) and in
    /// the benchmark's registrations; ROADMAP item 7, the claims ledger, is
    /// where a paper claim about loss-tolerant flows would go.
    pub loss_tolerant: bool,
}

/// Outcome of service selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Selection {
    /// The chosen service.
    pub service: ServiceKind,
    /// The latency the selector estimates for that service.
    pub estimated_latency: Dur,
}

/// Picks services for flows and upgrades them when they under-perform.
#[derive(Clone, Debug)]
pub struct ServiceSelector {
    delays: PathDelays,
}

impl ServiceSelector {
    /// Creates a selector for a path with the given segment delays.
    pub fn new(delays: PathDelays) -> Self {
        ServiceSelector { delays }
    }

    /// Current delay estimates.
    pub fn delays(&self) -> PathDelays {
        self.delays
    }

    /// Updates the delay estimates from measured values (the paper
    /// initialises them from averages and refines them once communication
    /// starts).
    pub fn update_delays(&mut self, delays: PathDelays) {
        self.delays = delays;
    }

    /// Selects the cheapest cloud service that fits the latency budget.
    ///
    /// Walks [`ServiceKind::CLOUD_SERVICES_BY_COST`] and returns the first
    /// service whose estimated delivery latency fits; if none does, falls
    /// back to [`ServiceKind::Forwarding`], the best J-QoS can do.  It never
    /// returns [`ServiceKind::InternetOnly`], and it ignores
    /// [`Registration::loss_tolerant`].
    pub fn select(&self, reg: Registration) -> Selection {
        // If even the plain Internet path misses the budget, the only option
        // that can help latency is full forwarding.
        for service in ServiceKind::CLOUD_SERVICES_BY_COST {
            let est = self.delays.delivery_latency(service);
            if est <= reg.latency_budget {
                return Selection {
                    service,
                    estimated_latency: est,
                };
            }
        }
        Selection {
            service: ServiceKind::Forwarding,
            estimated_latency: self.delays.delivery_latency(ServiceKind::Forwarding),
        }
    }

    /// Re-evaluates a flow based on delivered-latency feedback from the
    /// receiver; returns a more expensive service if the observed p95 latency
    /// misses the budget with the current one.
    pub fn maybe_upgrade(
        &self,
        current: ServiceKind,
        observed_p95: Dur,
        reg: Registration,
    ) -> Option<Selection> {
        if observed_p95 <= reg.latency_budget {
            return None;
        }
        let order = ServiceKind::CLOUD_SERVICES_BY_COST;
        let pos = order.iter().position(|s| *s == current).unwrap_or(0);
        for service in order.iter().skip(pos + 1) {
            let est = self.delays.delivery_latency(*service);
            if est <= reg.latency_budget {
                return Some(Selection {
                    service: *service,
                    estimated_latency: est,
                });
            }
        }
        if current != ServiceKind::Forwarding {
            return Some(Selection {
                service: ServiceKind::Forwarding,
                estimated_latency: self.delays.delivery_latency(ServiceKind::Forwarding),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wide_area() -> PathDelays {
        // 75 ms direct path, 10 ms access, 70 ms inter-DC: the §6.1 scenario.
        PathDelays::symmetric(
            Dur::from_millis(75),
            Dur::from_millis(10),
            Dur::from_millis(70),
            Dur::from_millis(10),
        )
    }

    #[test]
    fn latency_formulas_match_figure_2() {
        let d = wide_area();
        assert_eq!(
            d.delivery_latency(ServiceKind::InternetOnly),
            Dur::from_millis(75)
        );
        assert_eq!(
            d.delivery_latency(ServiceKind::Forwarding),
            Dur::from_millis(90)
        );
        // cloud copy wait: (10+70) - (75+10) = 0
        assert_eq!(d.cloud_copy_wait(), Dur::ZERO);
        assert_eq!(
            d.delivery_latency(ServiceKind::Caching),
            Dur::from_millis(95)
        );
        assert_eq!(
            d.delivery_latency(ServiceKind::Coding),
            Dur::from_millis(115)
        );
    }

    #[test]
    fn cloud_copy_wait_is_positive_when_cloud_segment_is_slower() {
        let d = PathDelays::symmetric(
            Dur::from_millis(50),
            Dur::from_millis(20),
            Dur::from_millis(70),
            Dur::from_millis(5),
        );
        // via cloud 90 ms vs via receiver 55 ms => 35 ms wait
        assert_eq!(d.cloud_copy_wait(), Dur::from_millis(35));
    }

    #[test]
    fn selector_picks_cheapest_that_fits() {
        let sel = ServiceSelector::new(wide_area());
        let pick = |ms: u64| {
            sel.select(Registration {
                latency_budget: Dur::from_millis(ms),
                loss_tolerant: false,
            })
            .service
        };
        assert_eq!(pick(150), ServiceKind::Coding);
        assert_eq!(pick(115), ServiceKind::Coding);
        assert_eq!(pick(100), ServiceKind::Caching);
        assert_eq!(pick(92), ServiceKind::Forwarding);
        // Nothing fits: fall back to forwarding (best achievable).
        assert_eq!(pick(10), ServiceKind::Forwarding);
    }

    #[test]
    fn upgrade_moves_up_the_cost_spectrum() {
        let sel = ServiceSelector::new(wide_area());
        let reg = Registration {
            latency_budget: Dur::from_millis(100),
            loss_tolerant: false,
        };
        // Coding is missing the budget at p95 = 130 ms; caching (95 ms) fits.
        let up = sel
            .maybe_upgrade(ServiceKind::Coding, Dur::from_millis(130), reg)
            .expect("should upgrade");
        assert_eq!(up.service, ServiceKind::Caching);
        // Already meeting the budget: no change.
        assert!(sel
            .maybe_upgrade(ServiceKind::Coding, Dur::from_millis(90), reg)
            .is_none());
        // Forwarding cannot be upgraded further.
        assert!(sel
            .maybe_upgrade(ServiceKind::Forwarding, Dur::from_millis(500), reg)
            .is_none());
    }

    #[test]
    fn recovery_fractions_order_matches_figure_7b() {
        let d = wide_area();
        let caching = d.recovery_fraction_of_rtt(ServiceKind::Caching);
        let coding = d.recovery_fraction_of_rtt(ServiceKind::Coding);
        assert!(caching < coding, "caching recovers faster than coding");
        assert!(coding <= 0.5, "coding recovery stays within 0.5 RTT here");
        assert_eq!(d.recovery_fraction_of_rtt(ServiceKind::Forwarding), 0.0);
        assert_eq!(d.recovery_fraction_of_rtt(ServiceKind::InternetOnly), 1.0);
    }

    #[test]
    fn relative_costs_follow_the_paper() {
        assert_eq!(ServiceKind::Forwarding.relative_cost(0.1), 2.0);
        assert_eq!(ServiceKind::Caching.relative_cost(0.1), 1.0);
        assert_eq!(ServiceKind::Coding.relative_cost(0.1), 0.1);
        assert_eq!(ServiceKind::InternetOnly.relative_cost(0.1), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ServiceKind::Coding.to_string(), "coding");
        assert_eq!(ServiceKind::Forwarding.to_string(), "forwarding");
    }

    /// Position in the cost order; `InternetOnly` is not in it.
    fn rank(service: ServiceKind) -> usize {
        ServiceKind::CLOUD_SERVICES_BY_COST
            .iter()
            .position(|s| *s == service)
            .expect("select only returns cloud services")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The selector's relations over random path delays and two budgets
        /// `b1 <= b2`.
        #[test]
        fn selection_relations_hold_for_any_delays(
            y in 0u64..400,
            delta_s in 0u64..150,
            x in 0u64..400,
            delta_r in 0u64..150,
            delta_median in 0u64..150,
            b1 in 0u64..1_200,
            slack in 0u64..600,
            observed in 0u64..2_000,
            current in 0usize..4,
        ) {
            let ms = Dur::from_millis;
            let delays = PathDelays {
                y: ms(y),
                delta_s: ms(delta_s),
                x: ms(x),
                delta_r: ms(delta_r),
                delta_median: ms(delta_median),
            };
            let sel = ServiceSelector::new(delays);
            let reg = |budget: u64, loss_tolerant: bool| Registration {
                latency_budget: ms(budget),
                loss_tolerant,
            };
            let (b2, latency) = (b1 + slack, |s| delays.delivery_latency(s));

            // 1. A larger budget never picks a more expensive service.  It
            // admits every service the smaller one admits, and `select`
            // returns the first admitted service in cost order, or the last
            // one, forwarding, when none is admitted.  Stronger still, coding
            // >= caching >= forwarding in `delivery_latency` for all delays:
            // caching's wait `max(0, δ_s + x - y - δ_r)` lifts `y + 2δ_r` to
            // at least forwarding's `δ_s + x + δ_r`, and coding adds `2δ_median`
            // to caching.  So the admitted services are a tail of the cost
            // order, and a growing budget only lengthens it.
            prop_assert!(latency(ServiceKind::Coding) >= latency(ServiceKind::Caching));
            prop_assert!(latency(ServiceKind::Caching) >= latency(ServiceKind::Forwarding));
            let (at_b1, at_b2) = (sel.select(reg(b1, false)), sel.select(reg(b2, false)));
            prop_assert!(rank(at_b2.service) <= rank(at_b1.service));

            // 2. An upgrade is strictly more expensive than `current`: it
            // scans only the services after `current` in cost order, and
            // falls back to forwarding only when `current` is not forwarding
            // already.  (`InternetOnly` is not in the cost order; it is
            // scanned from the position of coding, so its upgrade skips
            // coding, and the relation holds all the same.)
            let current = [
                ServiceKind::InternetOnly,
                ServiceKind::Coding,
                ServiceKind::Caching,
                ServiceKind::Forwarding,
            ][current];
            let upgrade = sel.maybe_upgrade(current, ms(observed), reg(b1, false));
            if let Some(up) = upgrade {
                prop_assert!(up.service.relative_cost(0.1) > current.relative_cost(0.1));
            }

            // 3. Loss tolerance changes nothing: neither method reads it.
            prop_assert_eq!(sel.select(reg(b1, true)), at_b1);
            prop_assert_eq!(sel.maybe_upgrade(current, ms(observed), reg(b1, true)), upgrade);
        }
    }
}
