//! The seeded inputs of the two workloads, rendered as the NDJSON request
//! lines a client would send. The in-process workload decodes the same text
//! with `Request::from_json`, so every workload starts from wire input.
//!
//! Every job carries the digest key of its expected output (see
//! `digests.json`): a sweep row is keyed by its point, a serve job by its
//! catalogue entry.

/// The mapping seeds of random-mappings: `0..RANDOM_SEED_UNIVERSE`.
pub const RANDOM_SEED_UNIVERSE: u64 = 32;
/// Repeated mapping seeds per factory configuration in random-mappings;
/// the evaluation cache answers them.
pub const RANDOM_REPEATS: usize = 8;
/// Grid expansion of the randomised mappings (routing slack, as in Fig. 6).
pub const RANDOM_EXPANSION: f64 = 1.5;

/// splitmix64: a tiny deterministic generator, so the inputs of a seed are
/// the same on every machine and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn reuse_tag(reuse: bool) -> &'static str {
    if reuse {
        "R"
    } else {
        "NR"
    }
}

fn factory_json(capacity: usize, levels: usize, reuse: bool) -> String {
    format!(
        r#"{{"capacity":{capacity},"levels":{levels},"reuse":"{}"}}"#,
        reuse_tag(reuse)
    )
}

/// A sweep request line plus the digest key of each of its rows, in point
/// order, and the same sweep split into parts: one request line per factory
/// configuration, whose rows in turn are the rows of the whole. No point of
/// one part repeats a point of another, so the parts simulate what the whole
/// does. The traced run times them one by one.
pub struct SweepJob {
    pub line: String,
    pub row_keys: Vec<String>,
    pub parts: Vec<String>,
}

/// The factories of random-mappings: paper-size single- and two-level
/// factories, each under both reuse policies.
const RANDOM_FACTORIES: [(usize, usize); 5] = [(16, 1), (24, 1), (36, 2), (64, 2), (100, 2)];

fn random_point(
    capacity: usize,
    levels: usize,
    reuse: bool,
    seed: Option<u64>,
) -> (String, String) {
    let label = if levels == 1 { "single" } else { "double" };
    let (strategy, name) = match seed {
        None => (r#"{"strategy":"linear"}"#.to_string(), "Line".to_string()),
        Some(seed) => (
            format!(r#"{{"strategy":"random","seed":{seed},"expansion":{RANDOM_EXPANSION}}}"#),
            format!("Random+S{seed}"),
        ),
    };
    (
        format!(
            r#"{{"label":"{label}","factory":{},"strategy":{strategy}}}"#,
            factory_json(capacity, levels, reuse)
        ),
        format!(
            "random-mappings/{label}/{name}/{capacity}/{levels}/{}",
            reuse_tag(reuse)
        ),
    )
}

/// The sweep of `blocks`, each the points of one factory configuration.
fn random_sweep(blocks: Vec<Vec<(String, String)>>) -> SweepJob {
    let line = |points: &[String]| {
        format!(
            r#"{{"protocol_version":1,"id":"random-mappings","kind":"sweep","sweep":{{"name":"random-mappings","eval":{{"routing":"dimension-ordered"}},"points":[{}]}}}}"#,
            points.join(",")
        )
    };
    let mut parts = Vec::new();
    let (mut points, mut row_keys) = (Vec::new(), Vec::new());
    for block in blocks {
        let (block, keys): (Vec<String>, Vec<String>) = block.into_iter().unzip();
        parts.push(line(&block));
        points.extend(block);
        row_keys.extend(keys);
    }
    SweepJob {
        line: line(&points),
        row_keys,
        parts,
    }
}

/// random-mappings: per factory configuration, Line plus every mapping seed
/// of `0..RANDOM_SEED_UNIVERSE` and [`RANDOM_REPEATS`] repeats, which the
/// benchmark seed draws, in seeded order. Every seed simulates the same
/// mappings (so the work and its peak memory do not depend on the seed);
/// the seed decides which of them are cache hits and how they group into
/// lane batches.
pub fn random_mappings(seed: u64) -> SweepJob {
    let mut rng = Rng::new(seed);
    let mut blocks = Vec::new();
    for (capacity, levels) in RANDOM_FACTORIES {
        for reuse in [true, false] {
            let mut points = vec![random_point(capacity, levels, reuse, None)];
            let mut seeds: Vec<u64> = (0..RANDOM_SEED_UNIVERSE).collect();
            for _ in 0..RANDOM_REPEATS {
                seeds.push(rng.below(RANDOM_SEED_UNIVERSE as usize) as u64);
            }
            rng.shuffle(&mut seeds);
            for mapping_seed in seeds {
                points.push(random_point(capacity, levels, reuse, Some(mapping_seed)));
            }
            blocks.push(points);
        }
    }
    random_sweep(blocks)
}

/// Every point random-mappings can draw (for recording digests).
pub fn random_mappings_universe() -> SweepJob {
    let mut blocks = Vec::new();
    for (capacity, levels) in RANDOM_FACTORIES {
        for reuse in [true, false] {
            let mut points = vec![random_point(capacity, levels, reuse, None)];
            for mapping_seed in 0..RANDOM_SEED_UNIVERSE {
                points.push(random_point(capacity, levels, reuse, Some(mapping_seed)));
            }
            blocks.push(points);
        }
    }
    random_sweep(blocks)
}

/// The job kinds of serve-mixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Evaluate,
    Sweep,
    Search,
    Stream,
}

/// One serve-mixed job: a catalogue entry (its digest key) and the request
/// line that asks for it.
#[derive(Debug, Clone)]
pub struct Job {
    pub key: String,
    pub kind: Kind,
    pub line: String,
}

/// Evaluate classes of serve-mixed: (strategy, capacity, levels, jobs per
/// segment). The mix is synthetic: no recorded serve log exists to derive it
/// from. It follows the qualitative shape of mostly small evaluates with a
/// tail of GP on two-level factories, and the counts are chosen so both
/// percentiles sit inside a dense class rather than on a boundary between
/// classes: single-level jobs (0.2-0.5 ms) are 80% of the mix, so p50 lies
/// among them; GP on two-level K=16 (~6 ms) is 10%, so the p95 the traced
/// run reports is that class's median, below the 1-2% of jobs a busy host
/// delays by 10 ms or more. The counts are fixed so every segment has the
/// same mix; the seed draws the reuse policy, the mapper seed and the order.
const EVALUATE_CLASSES: [(&str, usize, usize, usize); 15] = [
    ("Line", 2, 1, 24),
    ("Line", 4, 1, 24),
    ("Line", 8, 1, 24),
    ("Line", 4, 2, 4),
    ("Line", 16, 2, 4),
    ("Random", 2, 1, 20),
    ("Random", 4, 1, 20),
    ("Random", 8, 1, 20),
    ("Random", 4, 2, 4),
    ("Random", 16, 2, 4),
    ("GP", 2, 1, 8),
    ("GP", 4, 1, 10),
    ("GP", 8, 1, 10),
    ("GP", 4, 2, 4),
    ("GP", 16, 2, 20),
];
/// Mapper seeds an evaluate job can carry (Random and GP).
const EVALUATE_SEEDS: [u64; 4] = [1, 2, 3, 42];
/// Seeds of the sharded fig7-quick sweeps and search-smoke searches. Each
/// segment takes the next one in turn, so after the first few segments every
/// spec repeats and the persistent cache serves its evaluations from disk.
const SHARDED_SEEDS: [u64; 3] = [42, 7, 13];
/// Seeds of the stream job.
const STREAM_SEEDS: [u64; 2] = [11, 12];

fn evaluate_job(strategy: &str, capacity: usize, levels: usize, reuse: bool, seed: u64) -> Job {
    let (json, name) = match strategy {
        "Line" => (r#"{"strategy":"linear"}"#.to_string(), "Line".to_string()),
        "Random" => (
            format!(r#"{{"strategy":"random","seed":{seed}}}"#),
            format!("Random{seed}"),
        ),
        "GP" => (
            format!(r#"{{"strategy":"graph_partition","seed":{seed}}}"#),
            format!("GP{seed}"),
        ),
        other => unreachable!("no evaluate class uses {other}"),
    };
    let key = format!(
        "serve-mixed/evaluate/{name}/{capacity}/{levels}/{}",
        reuse_tag(reuse)
    );
    Job {
        line: format!(
            r#"{{"protocol_version":1,"id":"{key}","kind":"evaluate","factory":{},"strategy":{json},"eval":{{"routing":"dimension-ordered"}}}}"#,
            factory_json(capacity, levels, reuse)
        ),
        key,
        kind: Kind::Evaluate,
    }
}

/// The fig7-quick grid (`benches/specs/fig7_quick.json`) with its mapper
/// seed replaced and HS added on the two-level factories, so the
/// hierarchical-stitching mapper runs in a timed workload.
fn fig7_sweep_job(seed: u64) -> Job {
    let mut grids = Vec::new();
    for (label, capacity, levels) in [
        ("single", 2, 1),
        ("single", 4, 1),
        ("single", 8, 1),
        ("double", 4, 2),
        ("double", 16, 2),
    ] {
        let fd = if capacity == 16 {
            format!(
                r#"{{"strategy":"force_directed","seed":{seed},"iterations":15,"repulsion_sample":8000}}"#
            )
        } else {
            format!(r#"{{"strategy":"force_directed","seed":{seed}}}"#)
        };
        let hs = if levels == 2 {
            format!(r#",{{"strategy":"hierarchical_stitching","seed":{seed}}}"#)
        } else {
            String::new()
        };
        grids.push(format!(
            r#"{{"label":"{label}","factories":[{}],"strategies":[{fd},{{"strategy":"graph_partition","seed":{seed}}}{hs}]}}"#,
            factory_json(capacity, levels, true)
        ));
    }
    let key = format!("serve-mixed/sweep/fig7-{seed}");
    Job {
        line: format!(
            r#"{{"protocol_version":1,"id":"{key}","kind":"sweep","sweep":{{"name":"fig7-{seed}","eval":{{"routing":"dimension-ordered"}},"grids":[{}]}}}}"#,
            grids.join(",")
        ),
        key,
        kind: Kind::Sweep,
    }
}

/// The search-smoke portfolio (`benches/specs/search_smoke.json`) with its
/// seeds replaced.
fn search_job(seed: u64) -> Job {
    let key = format!("serve-mixed/search/smoke-{seed}");
    Job {
        line: format!(
            r#"{{"protocol_version":1,"id":"{key}","kind":"search","search":{{"name":"smoke-{seed}","eval":{{"routing":"dimension-ordered"}},"factory":{{"k":2,"levels":1}},"objective":"volume","budget":12,"batch_size":6,"patience":1,"seed":{seed},"portfolio":[{{"strategy":{{"strategy":"linear"}},"seeded":false}},{{"strategy":{{"strategy":"graph_partition","seed":{seed}}}}},{{"strategy":{{"strategy":"random","seed":{seed}}},"ladder":[{{}},{{"expansion":1.2}},{{"expansion":1.5}}]}},{{"label":"Random-ladder","strategy":{{"strategy":"random","seed":7}},"seeded":false,"ladder":[{{}},{{"expansion":1.0}},{{"expansion":1.4}}]}}]}}}}"#
        ),
        key,
        kind: Kind::Search,
    }
}

/// The stream-quick workload (`benches/specs/stream_quick.json`) with its
/// arrival seed replaced.
fn stream_job(seed: u64) -> Job {
    let key = format!("serve-mixed/stream/quick-{seed}");
    Job {
        line: format!(
            r#"{{"protocol_version":1,"id":"{key}","kind":"stream","stream":{{"name":"quick-{seed}","eval":{{"routing":"dimension-ordered"}},"seed":{seed},"horizon":3000,"setup_cycles":100,"arrivals":{{"process":"poisson","rate":0.02}},"fleet":[{{"factory":{{"k":4}},"count":1}},{{"factory":{{"k":2}},"count":2}}],"classes":[{{"name":"probe","strategy":{{"strategy":"linear"}},"weight":3,"volume":2}},{{"name":"bulk","strategy":{{"strategy":"graph_partition","seed":{seed}}},"priority":2,"volume":8,"min_capacity":2}}],"schedulers":["fifo","priority","capacity_aware","reuse_aware"]}}}}"#
        ),
        key,
        kind: Kind::Stream,
    }
}

/// The first job of every serve session: a two-point sweep that makes the
/// serve process connect its worker pool, so set-up ends with the system
/// ready for sharded work.
pub fn warmup_job() -> Job {
    let key = "serve-mixed/sweep/warmup".to_string();
    Job {
        line: format!(
            r#"{{"protocol_version":1,"id":"{key}","kind":"sweep","sweep":{{"name":"warmup","eval":{{"routing":"dimension-ordered"}},"grids":[{{"label":"warmup","factories":[{},{}],"strategies":[{{"strategy":"linear"}}]}}]}}}}"#,
            factory_json(2, 1, true),
            factory_json(2, 1, false)
        ),
        key,
        kind: Kind::Sweep,
    }
}

/// Segment `index` of the serve-mixed session for `seed`: the fixed evaluate
/// mix, two sharded fig7-quick sweeps, one sharded search and one stream
/// job, in seeded order. Two sweeps to one search put the median sharded
/// latency inside the sweeps rather than on the boundary between the
/// ~0.5 s sweeps and the few-millisecond searches.
pub fn serve_segment(seed: u64, index: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(index));
    let mut jobs = Vec::new();
    for (strategy, capacity, levels, count) in EVALUATE_CLASSES {
        for _ in 0..count {
            let reuse = rng.below(2) == 0;
            let mapper_seed = EVALUATE_SEEDS[rng.below(EVALUATE_SEEDS.len())];
            jobs.push(evaluate_job(strategy, capacity, levels, reuse, mapper_seed));
        }
    }
    let turn = seed.wrapping_add(index) as usize;
    jobs.push(fig7_sweep_job(SHARDED_SEEDS[turn % SHARDED_SEEDS.len()]));
    jobs.push(fig7_sweep_job(
        SHARDED_SEEDS[(turn + 1) % SHARDED_SEEDS.len()],
    ));
    jobs.push(search_job(SHARDED_SEEDS[(turn + 2) % SHARDED_SEEDS.len()]));
    jobs.push(stream_job(STREAM_SEEDS[turn % STREAM_SEEDS.len()]));
    rng.shuffle(&mut jobs);
    jobs
}

/// Every job serve-mixed can send (for recording digests).
pub fn serve_catalogue() -> Vec<Job> {
    let mut jobs = vec![warmup_job()];
    for (strategy, capacity, levels, _) in EVALUATE_CLASSES {
        for reuse in [true, false] {
            if strategy == "Line" {
                jobs.push(evaluate_job(strategy, capacity, levels, reuse, 0));
            } else {
                for seed in EVALUATE_SEEDS {
                    jobs.push(evaluate_job(strategy, capacity, levels, reuse, seed));
                }
            }
        }
    }
    jobs.extend(SHARDED_SEEDS.iter().map(|&s| fig7_sweep_job(s)));
    jobs.extend(SHARDED_SEEDS.iter().map(|&s| search_job(s)));
    jobs.extend(STREAM_SEEDS.iter().map(|&s| stream_job(s)));
    jobs
}
