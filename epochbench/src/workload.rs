//! The workloads and the one epoch path they share:
//! monitor (`observe_all` or a digest-level load → `finish_epoch` →
//! `encode_wire` → `chunk_bundle`) → delivery (in-memory
//! `EpochCollector`, or `run_monitor_epoch` / `run_center_epoch` over
//! localhost UDP) → centre (`analyze_epoch_collected`).

use crate::oracle::{Pipeline, Plant, Verdict};
use crate::trace::{SpanId, Tracer};
use dcs_bitmap::Bitmap;
use dcs_collect::{AlignedConfig, AlignedDigest, UnalignedConfig, UnalignedDigest};
use dcs_core::clock::{Clock, TickClock};
use dcs_core::monitor::{MonitorConfig, MonitoringPoint, RouterDigest, SketchSpec};
use dcs_core::net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ImpairmentConfig,
    ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket, Transport,
};
use dcs_core::session::{
    CollectedEpoch, CollectorConfig, EpochCollector, SessionConfig, StragglerPolicy,
};
use dcs_core::transport::{chunk_bundle, DATAGRAM_SAFE_PAYLOAD};
use dcs_core::{
    AnalysisCenter, AnalysisConfig, MetricsRegistry, MetricsSnapshot, Stage, TransportStats,
};
use dcs_hash::Fnv1a;
use dcs_traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use dcs_traffic::{ContentObject, Packet, Planting};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Routers in every workload.
const ROUTERS: usize = 24;
/// Payload size of generated packets (the paper's 536-byte MSS).
const PAYLOAD: usize = 536;

/// `aligned_paper` / `socket_lossy`: the paper's 4-Mbit bitmap.
const PAPER_BITS: usize = 4 * 1024 * 1024;
/// Packets that bring 4 Mbit to half fill: n·ln 2.
const PAPER_FILL_PACKETS: u64 = 2_907_270;
/// Background unaligned groups per router at digest level.
const DIGEST_GROUPS: usize = 4;
/// Arrays per group and bits per array (paper: k = 10, 1,024 bits).
const ARRAYS: usize = 10;
const ARRAY_BITS: usize = 1024;
/// The planted all-1 block: 16 routers × 30 columns.
const ALIGNED_PLANT_ROUTERS: usize = 16;
const ALIGNED_PLANT_COLUMNS: usize = 30;

/// `unaligned_packets`: flow-split groups per router.
const PACKET_GROUPS: usize = 8;
/// The serve/monitor default aligned bitmap (16 Kbit).
const PACKET_ALIGNED_BITS: usize = 1 << 14;
/// Background packets per router: 8 groups × 1,024 bits × ln 2, so the
/// mean unaligned array closes at half fill (the paper's close rule).
const BACKGROUND_PACKETS: usize = 5_678;
/// Content size and spread of the unaligned plant, from the paper's
/// detectable threshold (Table III): a 150-packet object is detectable
/// once it is seen in m = 50 groups. Each infected router carries it on
/// 3 distinct flow-split groups, so ⌈50 / 3⌉ = 17 routers are infected
/// (51 planted groups).
const CONTENT_PACKETS: usize = 150;
const DETECTABLE_GROUPS: usize = 50;
const GROUPS_PER_INFECTED: usize = 3;
/// Sidecar heavy-content sketch capacity.
const SKETCH_CAP: usize = 64;
/// Shared digest hash seed of every monitoring point.
const DIGEST_SEED: u64 = 7;

/// Socket pacing: 200-µs ticks, the resend/NACK schedule of the
/// repository's socket soak.
const TICK: Duration = Duration::from_micros(200);
const RESEND_AFTER: u64 = 50;
const MAX_BACKOFF: u64 = 2_000;
const GIVE_UP: u64 = 600_000;
/// Wall-clock cap on one socket epoch before it is aborted and failed.
const SOCKET_EPOCH_CAP: Duration = Duration::from_secs(60);

/// The fixed packet count of the paper-width collection timing.
const OC48_PACKETS: usize = 20_000;

/// Which workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 24 × 4-Mbit digests at paper fill, in-memory delivery.
    AlignedPaper,
    /// 24 monitoring points fed fresh packets, in-memory delivery.
    UnalignedPackets,
    /// The `aligned_paper` digests over lossy localhost UDP: the socket
    /// pass of `aligned_paper`'s traced run, and runnable by hand.
    SocketLossy,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "aligned_paper" => Some(Kind::AlignedPaper),
            "unaligned_packets" => Some(Kind::UnalignedPackets),
            "socket_lossy" => Some(Kind::SocketLossy),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AlignedPaper => "aligned_paper",
            Kind::UnalignedPackets => "unaligned_packets",
            Kind::SocketLossy => "socket_lossy",
        }
    }

    /// Epoch `e` carries a plant when `e % plant_every() == 1`; the cold
    /// epoch 0 is always clean. The aligned workloads plant in alternate
    /// epochs. `unaligned_packets` plants one epoch in four: an alarm
    /// epoch also peels the detection graph (≈ +40% latency), and with
    /// half the epochs alarmed the median would sit on the gap between
    /// the two latency clusters and swing with it from run to run.
    fn plant_every(self) -> u64 {
        match self {
            Kind::UnalignedPackets => 4,
            Kind::AlignedPaper | Kind::SocketLossy => 2,
        }
    }

    fn groups(self) -> usize {
        match self {
            Kind::UnalignedPackets => PACKET_GROUPS,
            Kind::AlignedPaper | Kind::SocketLossy => DIGEST_GROUPS,
        }
    }
}

/// Socket counters read per epoch (deltas of the shared registry).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounts {
    pub monitor_frames_sent: u64,
    pub center_frames_sent: u64,
    pub center_frames_received: u64,
    pub resend_bursts: u64,
    pub impaired: [u64; 4],
    pub send_stalls: u64,
    pub unknown_peer: u64,
}

/// Impairment kinds, in `NetCounts::impaired` order.
const IMPAIRMENTS: [&str; 4] = ["drop", "duplicate", "reorder", "corrupt"];

impl NetCounts {
    fn read(s: &MetricsSnapshot) -> NetCounts {
        let c = |k: &str| s.counter(k).unwrap_or(0);
        NetCounts {
            monitor_frames_sent: c("socket_frames_sent_total{role=monitor}"),
            center_frames_sent: c("socket_frames_sent_total{role=center}"),
            center_frames_received: c("socket_frames_received_total{role=center}"),
            resend_bursts: c("socket_resend_bursts_total{role=monitor}"),
            impaired: IMPAIRMENTS.map(|k| c(&format!("socket_impaired_total{{kind={k}}}"))),
            send_stalls: c("socket_send_stalls_total{role=monitor}")
                + c("socket_send_stalls_total{role=center}"),
            unknown_peer: c("socket_unknown_peer_total"),
        }
    }

    fn since(self, before: NetCounts) -> NetCounts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        NetCounts {
            monitor_frames_sent: d(self.monitor_frames_sent, before.monitor_frames_sent),
            center_frames_sent: d(self.center_frames_sent, before.center_frames_sent),
            center_frames_received: d(self.center_frames_received, before.center_frames_received),
            resend_bursts: d(self.resend_bursts, before.resend_bursts),
            impaired: std::array::from_fn(|i| d(self.impaired[i], before.impaired[i])),
            send_stalls: d(self.send_stalls, before.send_stalls),
            unknown_peer: d(self.unknown_peer, before.unknown_peer),
        }
    }
}

/// What the centre published about one epoch (read only when tracing).
#[derive(Debug, Clone, Copy, Default)]
pub struct CenterCounts {
    /// `epoch_stage_ns` of the eleven stages, aligned then unaligned.
    pub stage_ns: [u64; 11],
    pub search_pairs_scanned: u64,
    pub search_pairs_pruned: u64,
    pub search_candidates: u64,
    pub sketch_seed_columns: u64,
    pub pairs_exact: u64,
    pub pairs_screened: u64,
    pub graph_groups_changed: u64,
}

/// The eleven centre stages, in `CenterCounts::stage_ns` order.
pub fn stages() -> [Stage; 11] {
    let mut all = [Stage::Fuse; 11];
    for (slot, s) in all
        .iter_mut()
        .zip(Stage::ALIGNED.iter().chain(Stage::UNALIGNED.iter()))
    {
        *slot = *s;
    }
    all
}

/// Everything measured about one epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochRecord {
    pub epoch: u64,
    pub plant: Option<Plant>,
    /// `None` when the epoch failed.
    pub verdict: Option<Verdict>,
    /// Why the epoch failed: a typed ingest error, a monitor epoch end
    /// other than `Delivered`, an aborted collection, or a panic.
    pub failure: Option<String>,
    /// Every bundle the centre analysed is byte-identical to the one its
    /// monitor encoded, and none is missing.
    pub intact: bool,
    /// Epoch close → verdict: slowest router's monitor time plus first
    /// chunk handed to delivery → `analyze_epoch_collected` returned.
    pub latency_ns: u64,
    pub gen_ns: u64,
    pub observe_ns: u64,
    pub packets: u64,
    pub aligned_fill: f64,
    pub unaligned_fill: f64,
    /// The slowest router's monitor spans (it sets the latency).
    pub finish_ns: u64,
    pub encode_ns: u64,
    pub chunk_ns: u64,
    pub bundle_bytes: f64,
    /// Unique chunks across the routers.
    pub chunks: u64,
    /// Frames handed to delivery (socket: monitor frames sent).
    pub frames_sent: u64,
    pub collector_new_ns: u64,
    pub offer_ns: u64,
    pub finalize_ns: u64,
    /// First chunk handed to delivery → collector finalised.
    pub deliver_ns: u64,
    pub analyze_ns: u64,
    pub transport: TransportStats,
    pub net: NetCounts,
    pub center: CenterCounts,
    /// Share of the machine's CPU time the hypervisor stole while the
    /// epoch ran (0 where `/proc/stat` has no steal column).
    pub stolen_share: f64,
}

impl EpochRecord {
    /// Share of the latency covered by the named layers' spans on the
    /// blocking path (monitor, transport, session or net, centre).
    pub fn attributed_share(&self) -> f64 {
        let named = self.finish_ns
            + self.encode_ns
            + self.chunk_ns
            + self.collector_new_ns
            + if self.offer_ns + self.finalize_ns > 0 {
                self.offer_ns + self.finalize_ns
            } else {
                self.deliver_ns
            }
            + self.analyze_ns;
        named as f64 / self.latency_ns.max(1) as f64
    }
}

struct Net {
    clock: TickClock,
    center: CenterSocket,
    monitor: MonitorSocket,
    metrics: MetricsRegistry,
}

/// One set-up instance of a workload: monitors, centre and sockets.
pub struct Bench {
    kind: Kind,
    seed: u64,
    center: AnalysisCenter,
    monitors: Vec<MonitoringPoint>,
    net: Option<Net>,
    /// Last-read cumulative centre counters (candidates, exact, screened).
    center_totals: [u64; 3],
}

/// A sub-seed for `(tag, a, b)` under the run seed (SplitMix64 mix).
fn sub_seed(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

const TAG_PLANT: u64 = 1;
const TAG_ROUTER: u64 = 2;
const TAG_OC48: u64 = 3;

/// `k` distinct values of `0..n`, ascending.
fn pick(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

fn random_bitmap(rng: &mut StdRng, bits: usize) -> Bitmap {
    Bitmap::from_words(bits, (0..bits / 64).map(|_| rng.next_u64()).collect())
}

/// The digest-level load of one router: a Bernoulli(½) 4-Mbit bitmap
/// (plus the planted columns when the router is infected) and 4 × 10
/// Bernoulli(½) unaligned background rows.
fn paper_digest(seed: u64, epoch: u64, router: usize, plant: Option<&Plant>) -> RouterDigest {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, TAG_ROUTER, epoch, router as u64));
    let mut bitmap = random_bitmap(&mut rng, PAPER_BITS);
    if let Some(p) = plant.filter(|p| p.routers.contains(&router)) {
        for &c in &p.columns {
            bitmap.set(c);
        }
    }
    let arrays = (0..DIGEST_GROUPS * ARRAYS)
        .map(|_| random_bitmap(&mut rng, ARRAY_BITS))
        .collect();
    let raw_bytes = PAPER_FILL_PACKETS * (PAYLOAD as u64 + 40);
    RouterDigest {
        router_id: router,
        epoch_id: epoch,
        aligned: AlignedDigest {
            bitmap,
            packets_seen: PAPER_FILL_PACKETS,
            packets_hashed: PAPER_FILL_PACKETS,
            raw_bytes,
        },
        unaligned: UnalignedDigest {
            arrays,
            arrays_per_group: ARRAYS,
            packets_seen: PAPER_FILL_PACKETS,
            packets_sampled: PAPER_FILL_PACKETS,
            raw_bytes,
        },
        artifacts: Vec::new(),
    }
}

fn background(packets: usize) -> BackgroundConfig {
    BackgroundConfig {
        packets,
        flows: (packets / 4).max(1),
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(PAYLOAD),
    }
}

/// The monitor configuration of `unaligned_packets`.
fn packet_monitor_config() -> MonitorConfig {
    MonitorConfig {
        aligned: AlignedConfig::small(PACKET_ALIGNED_BITS, DIGEST_SEED),
        unaligned: UnalignedConfig::small(PACKET_GROUPS, DIGEST_SEED, 0),
        sketch: SketchSpec::heavy_content(SKETCH_CAP),
    }
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One router's output of the monitor side.
struct Shipped {
    chunks: Vec<Vec<u8>>,
    hash: u64,
}

impl Bench {
    /// Builds the monitors, the centre and (for `socket_lossy`) the
    /// sockets.
    pub fn build(kind: Kind, seed: u64) -> Result<Bench, String> {
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(ROUTERS * kind.groups()));
        let monitors = match kind {
            Kind::UnalignedPackets => {
                let cfg = packet_monitor_config();
                (0..ROUTERS)
                    .map(|r| MonitoringPoint::new(r, &cfg))
                    .collect()
            }
            Kind::AlignedPaper | Kind::SocketLossy => Vec::new(),
        };
        let net = match kind {
            Kind::SocketLossy => {
                let center = CenterSocket::bind("127.0.0.1:0", Transport::Udp)
                    .map_err(|e| format!("bind centre socket: {e}"))?;
                let addr = center
                    .local_addr()
                    .map_err(|e| format!("centre address: {e}"))?;
                let mut monitor = MonitorSocket::connect(addr, Transport::Udp)
                    .map_err(|e| format!("connect monitor socket: {e}"))?;
                monitor.set_shim(ImpairmentShim::new(
                    ImpairmentConfig::soak(),
                    sub_seed(seed, TAG_ROUTER, u64::MAX, 0),
                ));
                Some(Net {
                    clock: TickClock::new(TICK),
                    center,
                    monitor,
                    metrics: MetricsRegistry::new(),
                })
            }
            _ => None,
        };
        Ok(Bench {
            kind,
            seed,
            center,
            monitors,
            net,
            center_totals: [0; 3],
        })
    }

    /// The centre (provenance reads its compute budget).
    pub fn center(&self) -> &AnalysisCenter {
        &self.center
    }

    /// What epoch `epoch` plants.
    fn plant(&self, epoch: u64) -> Option<Plant> {
        if epoch % self.kind.plant_every() != 1 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, TAG_PLANT, epoch, 0));
        Some(match self.kind {
            Kind::AlignedPaper | Kind::SocketLossy => Plant {
                pipeline: Pipeline::Aligned,
                routers: pick(&mut rng, ROUTERS, ALIGNED_PLANT_ROUTERS),
                columns: pick(&mut rng, PAPER_BITS, ALIGNED_PLANT_COLUMNS),
                groups: Vec::new(),
            },
            Kind::UnalignedPackets => Plant {
                pipeline: Pipeline::Unaligned,
                routers: pick(
                    &mut rng,
                    ROUTERS,
                    DETECTABLE_GROUPS.div_ceil(GROUPS_PER_INFECTED),
                ),
                columns: Vec::new(),
                // Filled in as the instances land in groups.
                groups: Vec::new(),
            },
        })
    }

    /// Runs one epoch end to end; a panic anywhere becomes a failed
    /// epoch.
    pub fn run_epoch(&mut self, epoch: u64, tr: &mut Tracer) -> EpochRecord {
        let plant = self.plant(epoch);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.epoch_inner(epoch, plant.clone(), tr)
        }));
        run.unwrap_or_else(|_| EpochRecord {
            epoch,
            plant,
            failure: Some("panic".to_string()),
            ..EpochRecord::default()
        })
    }

    fn epoch_inner(
        &mut self,
        epoch: u64,
        mut plant: Option<Plant>,
        tr: &mut Tracer,
    ) -> EpochRecord {
        let mut rec = EpochRecord {
            epoch,
            ..EpochRecord::default()
        };
        let root = tr.open("epoch", epoch, None, SpanId::default());

        // Monitor side, one router at a time; each router's traffic is
        // generated (untimed), used and dropped before the next.
        let mut shipped = Vec::with_capacity(ROUTERS);
        let mut slowest = 0u64;
        let mut fills = (0.0, 0.0);
        let content = plant
            .as_ref()
            .filter(|_| self.kind == Kind::UnalignedPackets)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, TAG_PLANT, epoch, 1));
                Planting::unaligned(
                    ContentObject::random(&mut rng, CONTENT_PACKETS * PAYLOAD),
                    PAYLOAD,
                )
            });
        for r in 0..ROUTERS {
            let (digest, finish_ns) = match self.kind {
                Kind::AlignedPaper | Kind::SocketLossy => {
                    let (d, gen_ns) = tr.time("gen", epoch, Some(r), root.id, || {
                        paper_digest(self.seed, epoch, r, plant.as_ref())
                    });
                    rec.gen_ns += gen_ns;
                    (d, 0)
                }
                Kind::UnalignedPackets => {
                    let mp = &mut self.monitors[r];
                    let seed = self.seed;
                    let (traffic, gen_ns) = tr.time("gen", epoch, Some(r), root.id, || {
                        let mut rng =
                            StdRng::seed_from_u64(sub_seed(seed, TAG_ROUTER, epoch, r as u64));
                        let mut traffic = generate_epoch(&mut rng, &background(BACKGROUND_PACKETS));
                        if let (Some(p), Some(c)) = (plant.as_mut(), content.as_ref()) {
                            if p.routers.contains(&r) {
                                plant_groups(&mut rng, c, mp, r, &mut traffic, &mut p.groups);
                            }
                        }
                        traffic
                    });
                    rec.gen_ns += gen_ns;
                    rec.packets += traffic.len() as u64;
                    let ((), observe_ns) = tr.time("observe_all", epoch, Some(r), root.id, || {
                        mp.observe_all(&traffic)
                    });
                    rec.observe_ns += observe_ns;
                    drop(traffic);
                    fills.0 += mp.aligned().fill_ratio();
                    fills.1 += mp.unaligned().mean_fill();
                    tr.time("finish_epoch", epoch, Some(r), root.id, || {
                        mp.finish_epoch()
                    })
                }
            };
            let (wire, encode_ns) = tr.time("encode_wire", epoch, Some(r), root.id, || {
                digest.encode_wire()
            });
            let wire = match wire {
                Ok(w) => w,
                Err(e) => {
                    rec.failure = Some(format!("encode_wire: {e}"));
                    return rec;
                }
            };
            drop(digest);
            let (chunks, chunk_ns) = tr.time("chunk_bundle", epoch, Some(r), root.id, || {
                chunk_bundle(r as u64, epoch, &wire[..], DATAGRAM_SAFE_PAYLOAD)
            });
            let monitor_ns = finish_ns + encode_ns + chunk_ns;
            if monitor_ns >= slowest {
                slowest = monitor_ns;
                (rec.finish_ns, rec.encode_ns, rec.chunk_ns) = (finish_ns, encode_ns, chunk_ns);
            }
            rec.bundle_bytes += wire.len() as f64 / ROUTERS as f64;
            rec.chunks += chunks.len() as u64;
            shipped.push(Shipped {
                chunks,
                hash: Fnv1a::hash(&wire[..]),
            });
        }
        if let Some(p) = plant.as_mut() {
            p.groups.sort_unstable();
        }
        rec.plant = plant;
        rec.aligned_fill = fills.0 / ROUTERS as f64;
        rec.unaligned_fill = fills.1 / ROUTERS as f64;

        // Delivery, then the centre.
        let handed_over = tr.now();
        let delivered = if self.net.is_some() {
            self.deliver_socket(epoch, &shipped, &mut rec, tr, root.id)
        } else {
            self.deliver_in_memory(epoch, &shipped, &mut rec, tr, root.id)
        };
        let collected = match delivered {
            Ok(c) => c,
            Err(e) => {
                rec.failure = Some(e);
                tr.close(root);
                return rec;
            }
        };
        let (report, analyze_ns) = tr.time("analyze_epoch_collected", epoch, None, root.id, || {
            self.center.analyze_epoch_collected(&collected)
        });
        rec.analyze_ns = analyze_ns;
        rec.latency_ns = slowest + (tr.now() - handed_over);
        tr.close(root);

        rec.transport = collected.stats;
        rec.intact = collected.exclusions.is_empty()
            && collected.frames.len() == ROUTERS
            && collected
                .frames
                .iter()
                .all(|(i, b)| shipped.get(*i).is_some_and(|s| s.hash == Fnv1a::hash(b)));
        match report {
            Ok(r) => rec.verdict = Some(Verdict::of(&r)),
            Err(e) => rec.failure = Some(format!("ingest: {e}")),
        }
        if tr.enabled() {
            rec.center = self.center_counts();
        }
        rec
    }

    /// In-memory delivery: every chunk offered to an `EpochCollector`,
    /// router by router, then finalised.
    fn deliver_in_memory(
        &mut self,
        epoch: u64,
        shipped: &[Shipped],
        rec: &mut EpochRecord,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<CollectedEpoch, String> {
        let cfg = CollectorConfig {
            straggler: StragglerPolicy::WaitAll,
            ..CollectorConfig::default()
        };
        let (mut coll, new_ns) = tr.time("EpochCollector::new", epoch, None, parent, || {
            EpochCollector::new(
                epoch,
                (0..ROUTERS as u64).collect::<Vec<_>>(),
                cfg,
                self.seed,
                0,
            )
        });
        rec.collector_new_ns = new_ns;
        let deliver = tr.open("deliver", epoch, None, parent);
        for (r, s) in shipped.iter().enumerate() {
            let ((), ns) = tr.time("offer", epoch, Some(r), deliver.id, || {
                for c in &s.chunks {
                    coll.offer(c, 0);
                }
            });
            rec.offer_ns += ns;
        }
        let ((ready, collected), ns) = tr.time("finalize", epoch, None, deliver.id, || {
            (coll.ready(0), coll.finalize(0))
        });
        rec.finalize_ns = ns;
        rec.deliver_ns = tr.close(deliver);
        // Offering a chunk is sending it: one frame per unique chunk.
        rec.frames_sent = rec.chunks;
        if !ready {
            return Err("in-memory collector not ready after every chunk".to_string());
        }
        Ok(collected)
    }

    /// Socket delivery: one thread ships the routers' bundles in turn
    /// over one impaired `MonitorSocket` with `run_monitor_epoch`; this
    /// thread runs `run_center_epoch`.
    fn deliver_socket(
        &mut self,
        epoch: u64,
        shipped: &[Shipped],
        rec: &mut EpochRecord,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<CollectedEpoch, String> {
        let net = self.net.as_mut().expect("socket workload has sockets");
        let before = NetCounts::read(&net.metrics.snapshot());
        let ccfg = CollectorConfig {
            deadline: 1 << 40,
            straggler: StragglerPolicy::WaitAll,
            session: SessionConfig {
                base_backoff: RESEND_AFTER,
                max_backoff: MAX_BACKOFF,
                max_retries: 100_000,
                jitter: 4,
            },
        };
        let now = net.clock.now();
        let (mut coll, new_ns) = tr.time("EpochCollector::new", epoch, None, parent, || {
            EpochCollector::new(
                epoch,
                (0..ROUTERS as u64).collect::<Vec<_>>(),
                ccfg,
                self.seed ^ epoch,
                now,
            )
        });
        rec.collector_new_ns = new_ns;
        let deliver = tr.open("deliver", epoch, None, parent);
        let started = Instant::now();
        let Net {
            clock,
            center,
            monitor,
            metrics,
        } = net;
        let (clock, metrics) = (&*clock, &*metrics);
        let (center_end, monitor_runs, center_span) = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                (0..ROUTERS)
                    .map(|r| {
                        let t0 = Instant::now();
                        let end = run_monitor_epoch(
                            monitor,
                            &shipped[r].chunks,
                            &MonitorEpochConfig {
                                router_id: r as u64,
                                epoch_id: epoch,
                                resend_after: RESEND_AFTER,
                                max_backoff: MAX_BACKOFF,
                                give_up: GIVE_UP,
                            },
                            clock,
                            metrics,
                        );
                        (end, t0, Instant::now())
                    })
                    .collect::<Vec<_>>()
            });
            let t0 = Instant::now();
            let end = run_center_epoch(center, &mut coll, clock, metrics, |_| {
                started.elapsed() > SOCKET_EPOCH_CAP
            });
            let t1 = Instant::now();
            let runs = sender.join();
            (end, runs, (t0, t1))
        });
        rec.deliver_ns = tr.close(deliver);
        let monitor_runs = monitor_runs.map_err(|_| "monitor thread panicked".to_string())?;
        tr.record(
            "run_center_epoch",
            epoch,
            None,
            deliver.id,
            center_span.0,
            center_span.1,
        );
        for (r, (_, t0, t1)) in monitor_runs.iter().enumerate() {
            tr.record("run_monitor_epoch", epoch, Some(r), deliver.id, *t0, *t1);
        }
        rec.net = NetCounts::read(&metrics.snapshot()).since(before);
        rec.frames_sent = rec.net.monitor_frames_sent;
        if let Some((r, (end, _, _))) = monitor_runs
            .iter()
            .enumerate()
            .find(|(_, (end, _, _))| *end != MonitorEpochEnd::Delivered)
        {
            return Err(format!("router {r} monitor epoch ended {end:?}"));
        }
        match center_end {
            CenterEpochEnd::Collected(c) => Ok(*c),
            CenterEpochEnd::Aborted => Err(format!(
                "socket epoch not collected within {} s",
                SOCKET_EPOCH_CAP.as_secs()
            )),
        }
    }

    /// The centre's per-epoch stage gauges and work counters.
    fn center_counts(&mut self) -> CenterCounts {
        let snap = self.center.metrics();
        let g = |k: &str| snap.gauge(k).unwrap_or(0);
        // Counters are cumulative: difference them against the last read.
        let totals = [
            "search_candidates_total",
            "pairs_exact_total",
            "pairs_screened_total",
        ]
        .map(|k| snap.counter(k).unwrap_or(0));
        let [candidates, exact, screened] =
            std::array::from_fn(|i| totals[i].saturating_sub(self.center_totals[i]));
        self.center_totals = totals;
        CenterCounts {
            stage_ns: stages().map(|s| g(&s.gauge_key())),
            search_pairs_scanned: g("search_pairs_scanned"),
            search_pairs_pruned: g("search_pairs_pruned"),
            search_candidates: candidates,
            sketch_seed_columns: g("sketch_seed_columns"),
            pairs_exact: exact,
            pairs_screened: screened,
            graph_groups_changed: g("graph_groups_changed"),
        }
    }

    /// Global flow-split groups of this deployment.
    pub fn total_groups(&self) -> usize {
        ROUTERS * self.kind.groups()
    }
}

/// Plants `content` into `traffic` on `GROUPS_PER_INFECTED` distinct
/// flow-split groups of router `r`, recording the global group ids.
fn plant_groups(
    rng: &mut StdRng,
    content: &Planting,
    mp: &MonitoringPoint,
    r: usize,
    traffic: &mut Vec<Packet>,
    groups: &mut Vec<usize>,
) {
    let mut local: Vec<usize> = Vec::with_capacity(GROUPS_PER_INFECTED);
    while local.len() < GROUPS_PER_INFECTED {
        let instance = content.instantiate(rng);
        let g = mp.unaligned().group_of(&instance[0]);
        if local.contains(&g) {
            continue;
        }
        local.push(g);
        groups.push(r * PACKET_GROUPS + g);
        let at = rng.gen_range(0..=traffic.len());
        traffic.splice(at..at, instance);
    }
}

/// Collection at paper width: one monitoring point at
/// `AlignedConfig::default()` (4 Mbit) and `UnalignedConfig::default()`
/// (128 × 10 × 1,024) fed a fixed count of fresh packets. Returns
/// ns per packet inside `observe_all`.
pub fn observe_ns_per_pkt_oc48(seed: u64) -> f64 {
    let cfg = MonitorConfig {
        aligned: AlignedConfig::default(),
        unaligned: UnalignedConfig::default(),
        sketch: SketchSpec::disabled(),
    };
    let mut mp = MonitoringPoint::new(0, &cfg);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, TAG_OC48, 0, 0));
    let traffic = generate_epoch(&mut rng, &background(OC48_PACKETS));
    let t0 = Instant::now();
    mp.observe_all(std::hint::black_box(&traffic));
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(mp.finish_epoch());
    ns / OC48_PACKETS as f64
}
