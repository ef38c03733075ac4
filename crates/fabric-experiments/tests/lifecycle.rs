//! Channel invariants driven through
//! [`fabric_experiments::scenario::ScenarioNet`] under
//! `NetworkConfig::ideal`: runtime lifecycle under the gossiped discovery
//! protocol, and isolation and accounting across static channels.

/// The lifecycle properties first written against a lockstep router that
/// told every sitting member of each join and leave, ported to the
/// discovery protocol: the same invariants must hold when nobody
/// broadcasts membership on anyone's behalf.
mod discovery_ported {
    use desim::{Duration, NetworkConfig};
    use fabric_experiments::scenario::ScenarioNet;
    use fabric_gossip::config::GossipConfig;
    use fabric_types::block::{Block, BlockRef};
    use fabric_types::crypto::Hash256;
    use fabric_types::ids::{ChannelId, PeerId};
    use proptest::prelude::*;

    /// `n` peers in the ideal network, fixed simulation seed.
    fn ideal(n: usize, memberships: Vec<Vec<PeerId>>, cfg: &GossipConfig) -> ScenarioNet {
        ScenarioNet::new(NetworkConfig::ideal(n), memberships, cfg, 9_000)
    }

    /// Protocol discovery with timers tightened for scripted-clock tests,
    /// and recovery tightened so ledger catch-up completes within a short
    /// settle window.
    fn cfg() -> GossipConfig {
        let mut cfg = GossipConfig::enhanced_f4().with_quick_discovery();
        cfg.recovery.interval = Duration::from_secs(2);
        cfg.recovery.state_info_interval = Duration::from_secs(1);
        cfg
    }

    /// Port of `late_joiner_converges_to_the_exact_head_with_no_gaps`: the
    /// lockstep version hand-fed StateInfo to the joiner; here the joiner
    /// announces itself through discovery and the ordinary timer-driven
    /// StateInfo + recovery machinery does the rest.
    #[test]
    fn late_joiner_converges_to_the_exact_head_without_an_oracle() {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = ideal(6, vec![members], &cfg());
        let head = 20u64;
        let mut prev = fabric_types::crypto::Hash256::ZERO;
        for num in 1..=head {
            let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(500));
            prev = block.hash();
            net.inject(0, block);
            net.run_for(Duration::from_millis(200));
        }
        net.join(0, PeerId(5));
        assert_eq!(net.gossip(5).height_on(ChannelId(0)), 1, "empty at join");

        // Bounded settle: discovery admits the joiner, StateInfo
        // advertises the head, recovery pulls 16-block batches every 2 s.
        net.run_for(Duration::from_secs(15));
        let store = net.gossip(5).store_on(ChannelId(0)).expect("store exists");
        assert_eq!(store.height(), head + 1, "exact head reached");
        for num in 1..=head {
            assert!(store.has(num), "gap at block {num}");
        }
        // And fresh blocks now reach the joiner first-class.
        let fresh = BlockRef::new(Block::new(head + 1, prev, vec![]).with_padding(500));
        net.inject(0, fresh);
        net.run_for(Duration::from_secs(2));
        assert!(net.gossip(5).store_on(ChannelId(0)).unwrap().has(head + 1));
    }

    /// Port of `exactly_one_static_leader_survives_arbitrary_leaves`: the
    /// lockstep router promoted a successor synchronously; under discovery
    /// each departure must be detected by expiry first, so the check runs
    /// after a settle window per leave.
    #[test]
    fn exactly_one_static_leader_survives_sequential_leaves() {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = ideal(5, vec![members], &cfg());
        for leaver in [PeerId(0), PeerId(2), PeerId(1)] {
            net.leave(0, leaver);
            net.run_for(Duration::from_secs(12));
            let leaders = net.leaders(0);
            assert_eq!(
                leaders.len(),
                1,
                "want one leader after {leaver} left, got {leaders:?} among {:?}",
                net.members(0)
            );
            assert_eq!(
                leaders[0],
                *net.members(0).iter().min().unwrap(),
                "the most senior sitting member leads"
            );
        }
    }

    /// Port of `low_id_late_joiner_neither_deadlocks_nor_usurps_the_succession`:
    /// discovery seniority ranks the late joiner by its (late) incarnation,
    /// so a lower id wins nothing — and the succession never deadlocks.
    #[test]
    fn low_id_late_joiner_neither_deadlocks_nor_usurps_under_discovery() {
        let members: Vec<PeerId> = (1..4).map(PeerId).collect(); // 1, 2, 3
        let mut net = ideal(4, vec![members], &cfg());
        assert_eq!(net.leaders(0), vec![PeerId(1)]);

        // Join strictly after deployment start: seniority is incarnation
        // first, so a later life ranks junior whatever its id. (A join at
        // the exact deployment instant would tie on incarnation and fall
        // back to id order — i.e. be an initial member in all but name.)
        net.run_for(Duration::from_secs(2));
        net.join(0, PeerId(0));
        net.run_for(Duration::from_secs(8));
        assert!(net.views_converged(0), "{:?}", net.divergent_views(0));
        assert_eq!(net.leaders(0), vec![PeerId(1)], "a join never deposes");

        net.leave(0, PeerId(1));
        net.run_for(Duration::from_secs(12));
        assert_eq!(
            net.leaders(0),
            vec![PeerId(2)],
            "seniority promotes the sitting member, not the low-id joiner"
        );

        net.leave(0, PeerId(2));
        net.run_for(Duration::from_secs(12));
        net.leave(0, PeerId(3));
        net.run_for(Duration::from_secs(12));
        assert_eq!(
            net.leaders(0),
            vec![PeerId(0)],
            "the joiner leads once every senior member departed"
        );
    }

    /// Payload padding for channel `c`: distinct per channel, so a leaked
    /// block would be recognizable by its size alone (block numbers
    /// collide across channels).
    fn block_on(c: usize, num: u64) -> BlockRef {
        BlockRef::new(Block::new(num, Hash256::ZERO, vec![]).with_padding(1_000 * (c as u32 + 1)))
    }

    proptest! {
        /// Port of `blocks_never_leak_across_channels_under_churn`: three
        /// channels over overlapping thirds of the deployment, arbitrary
        /// join / leave / inject interleavings — with leavers lingering in
        /// the others' views until reaped, so blocks do get pushed at
        /// peers that just left. Whatever happens, a store only ever holds
        /// its own channel's blocks, and only members hold a store.
        #[test]
        fn blocks_never_leak_across_channels_under_churn(
            ops in proptest::collection::vec((0u8..3, 0usize..3, 0u32..10), 1..25),
        ) {
            let n = 10usize;
            let memberships: Vec<Vec<PeerId>> = vec![
                (0..5).map(PeerId).collect(),
                (3..8).map(PeerId).collect(),
                (5..10).map(PeerId).collect(),
            ];
            let mut net = ideal(n, memberships, &cfg());
            for (kind, c, peer) in ops {
                match kind {
                    0 => net.join(c, PeerId(peer)),
                    1 => net.leave(c, PeerId(peer)),
                    _ => net.inject(c, block_on(c, net.head(c) + 1)),
                }
                net.run_for(Duration::from_millis(500));
            }
            net.run_for(Duration::from_secs(5));
            for c in 0..3 {
                let ch = ChannelId(c as u16);
                let expected_size = block_on(c, 1).wire_size();
                for p in 0..n {
                    let member = net.members(c).contains(&PeerId(p as u32));
                    let Some(store) = net.gossip(p).store_on(ch) else {
                        prop_assert!(!member, "member {} of {} lost its instance", p, ch);
                        continue;
                    };
                    prop_assert!(
                        member,
                        "peer {} holds an instance of {} it is no member of",
                        p,
                        ch
                    );
                    for num in 1..=net.head(c) {
                        if let Some(held) = store.get(num) {
                            prop_assert_eq!(
                                held.wire_size(),
                                expected_size,
                                "peer {} holds a foreign block at {} of {}",
                                p,
                                num,
                                ch
                            );
                        }
                    }
                    prop_assert!(
                        store.max_seen() <= net.head(c),
                        "peer {} holds block numbers {} beyond {}'s head {}",
                        p,
                        store.max_seen(),
                        ch,
                        net.head(c)
                    );
                }
            }
        }
    }
}

/// The multiplexer contract across overlapping static channels, first
/// written against a zero-latency router: blocks never leak between
/// channels, every member converges, and a peer's per-channel byte
/// counters sum to what it put on the wire. Each channel's blocks chain
/// from genesis, so every member's ledger commits them.
mod static_channels {
    use desim::{Duration, NetworkConfig, NodeId};
    use fabric_experiments::scenario::ScenarioNet;
    use fabric_gossip::config::GossipConfig;
    use fabric_types::block::{Block, BlockRef};
    use fabric_types::ids::{ChannelId, PeerId};
    use proptest::prelude::*;

    /// Payload padding for channel `c`: distinct per channel, so a leaked
    /// block would be recognizable by its size alone.
    fn padding(c: usize) -> u32 {
        1_000 * (c as u32 + 1)
    }

    /// `n` peers in the ideal network on the paper's enhanced protocol,
    /// with `blocks` chained blocks injected into every channel in turn.
    fn disseminate(n: usize, memberships: Vec<Vec<PeerId>>, blocks: u64) -> ScenarioNet {
        let channels = memberships.len();
        let mut net = ScenarioNet::new(
            NetworkConfig::ideal(n),
            memberships,
            &GossipConfig::enhanced_f4(),
            9_000,
        );
        for c in 0..channels {
            let mut prev = Block::genesis().hash();
            for num in 1..=blocks {
                let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(padding(c)));
                prev = block.hash();
                net.inject(c, block);
                net.run_for(Duration::from_millis(100));
            }
        }
        net.run_for(Duration::from_secs(1));
        net
    }

    /// Random overlapping memberships: each channel draws a subsequence of
    /// at least two peers from the full roster.
    fn membership_strategy(n: u32) -> impl Strategy<Value = Vec<Vec<PeerId>>> {
        let roster: Vec<PeerId> = (0..n).map(PeerId).collect();
        proptest::collection::vec(
            proptest::sample::subsequence(roster, 2..(n as usize + 1)),
            1..4,
        )
    }

    proptest! {
        #[test]
        fn blocks_never_leak_between_channels(
            memberships in membership_strategy(12),
            blocks in 1u64..4,
        ) {
            let n = 12usize;
            let net = disseminate(n, memberships.clone(), blocks);
            prop_assert_eq!(net.sim().protocol().commit_errors(), 0);
            for (c, members) in memberships.iter().enumerate() {
                let ch = ChannelId(c as u16);
                let expected_size = BlockRef::new(
                    Block::new(1, Block::genesis().hash(), vec![]).with_padding(padding(c)),
                )
                .wire_size();
                for p in 0..n {
                    let is_member = members.contains(&PeerId(p as u32));
                    match net.gossip(p).store_on(ch) {
                        Some(store) => {
                            prop_assert!(is_member, "peer {} holds a store for unjoined {}", p, ch);
                            prop_assert_eq!(store.len() as u64, blocks);
                            for num in 1..=blocks {
                                let held = store.get(num).expect("member holds the chain");
                                // A block of another channel would betray
                                // itself by its per-channel payload size.
                                prop_assert_eq!(held.wire_size(), expected_size);
                            }
                        }
                        None => prop_assert!(!is_member, "member {} of {} lost its store", p, ch),
                    }
                    prop_assert_eq!(net.gossip(p).stats_on(ch).is_some(), is_member);
                }
            }
        }

        /// A peer's bytes are recorded once, per channel: with no client or
        /// orderer traffic in a scripted deployment, what its channels
        /// counted is exactly what the engine put on the wire for it.
        #[test]
        fn one_record_per_channel_bytes_are_the_wire_bytes(
            memberships in membership_strategy(12),
            blocks in 1u64..3,
        ) {
            let n = 12usize;
            let net = disseminate(n, memberships, blocks);
            for p in 0..n {
                let peer = net.gossip(p);
                let per_channel: u64 = peer
                    .channel_ids()
                    .into_iter()
                    .map(|ch| peer.stats_on(ch).expect("joined channel has stats").bytes_sent())
                    .sum();
                let wire = net.sim().metrics().total_sent(NodeId(p as u32));
                prop_assert_eq!(per_channel, wire, "peer {}", p);
            }
        }
    }

    #[test]
    fn every_member_of_every_channel_converges() {
        let memberships: Vec<Vec<PeerId>> = vec![
            (0..6).map(PeerId).collect(),
            (3..9).map(PeerId).collect(),
            (6..12).map(PeerId).collect(),
        ];
        let net = disseminate(12, memberships.clone(), 3);
        assert_eq!(net.sim().protocol().commit_errors(), 0);
        for (c, members) in memberships.iter().enumerate() {
            for m in members {
                assert_eq!(
                    net.gossip(m.index()).height_on(ChannelId(c as u16)),
                    4,
                    "peer {m} on ch{c}"
                );
                assert_eq!(net.ledger(m.index(), c).map(|l| l.height()), Some(4));
            }
        }
        // Overlap peers carry two channels and send on each of them.
        let overlap = net.gossip(4);
        assert_eq!(overlap.channel_ids(), [ChannelId(0), ChannelId(1)]);
        for ch in overlap.channel_ids() {
            assert!(
                overlap.stats_on(ch).unwrap().bytes_sent() > 0,
                "peer 4 on {ch}"
            );
        }
    }
}
