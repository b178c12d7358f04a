//! Micro-benchmarks of the core vectorized primitives at the default
//! vector size (1024): the per-tuple costs behind the paper's Table 5.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x100_vector::select::select_cmp_col_val;
use x100_vector::{
    aggr, fetch, hash, map, CmpOp, GroupTable, ProbeScratch, ScalarType, SelVec, Vector,
};

const N: usize = 1024;

fn data_f64(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N).map(|_| rng.gen_range(-100.0..100.0)).collect()
}

fn bench_primitives(c: &mut Criterion) {
    let a = data_f64(1);
    let b = data_f64(2);
    let mut res = vec![0.0f64; N];
    let mut g = c.benchmark_group("primitives");
    g.throughput(Throughput::Elements(N as u64));

    g.bench_function("map_add_f64_col_f64_col", |bch| {
        bch.iter(|| {
            map::map_add_f64_col_f64_col(black_box(&mut res), black_box(&a), black_box(&b), None)
        })
    });
    g.bench_function("map_mul_f64_col_f64_col", |bch| {
        bch.iter(|| {
            map::map_mul_f64_col_f64_col(black_box(&mut res), black_box(&a), black_box(&b), None)
        })
    });
    g.bench_function("map_mul_under_half_selection", |bch| {
        let sel = SelVec::from_positions((0..N as u32).step_by(2).collect());
        bch.iter(|| {
            map::map_mul_f64_col_f64_col(
                black_box(&mut res),
                black_box(&a),
                black_box(&b),
                Some(&sel),
            )
        })
    });

    let base: Vec<f64> = data_f64(3);
    let idx: Vec<u32> = {
        let mut rng = StdRng::seed_from_u64(4);
        (0..N).map(|_| rng.gen_range(0..N as u32)).collect()
    };
    g.bench_function("map_fetch_u32_col_f64_col", |bch| {
        bch.iter(|| fetch::fetch(black_box(&mut res), black_box(&base), black_box(&idx), None))
    });
    let codes: Vec<u8> = {
        let mut rng = StdRng::seed_from_u64(5);
        (0..N).map(|_| rng.gen_range(0..11)).collect()
    };
    let dict: Vec<f64> = (0..11).map(|i| i as f64 / 100.0).collect();
    g.bench_function("map_fetch_u8_col_f64_col (enum decode)", |bch| {
        bch.iter(|| {
            fetch::fetch(
                black_box(&mut res),
                black_box(&dict),
                black_box(&codes),
                None,
            )
        })
    });

    let keys: Vec<i64> = {
        let mut rng = StdRng::seed_from_u64(6);
        (0..N).map(|_| rng.gen_range(0..1000)).collect()
    };
    let mut hashes = vec![0u64; N];
    g.bench_function("map_hash_i64_col", |bch| {
        bch.iter(|| hash::map_hash_i64_col(black_box(&mut hashes), black_box(&keys), None))
    });

    let grp: Vec<u32> = codes.iter().map(|&x| x as u32).collect();
    let mut acc = vec![0.0f64; 16];
    g.bench_function("aggr_sum_f64_col (16 groups)", |bch| {
        bch.iter(|| {
            aggr::aggr_sum_f64_col(black_box(&mut acc), black_box(&a), black_box(&grp), None)
        })
    });
    g.finish();
}

/// The aggregation inner loops: hash → group id at four group counts,
/// and N grouped f64 sums + the count, fused against one pass each.
fn bench_aggr(c: &mut Criterion) {
    const BATCHES: usize = 256;
    let mut g = c.benchmark_group("aggr");
    g.throughput(Throughput::Elements(N as u64));

    // Group lookup in the steady state (every key already present).
    // `clustered` repeats each key for a run of ~16 tuples, the shape of
    // a group-by on a clustered column; the others draw keys at random.
    for (name, groups, clustered) in [
        ("4", 4usize, false),
        ("1.3K clustered", 1_300, true),
        ("28K", 28_000, false),
        ("1M random", 1_000_000, false),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut key = 0i64;
        let batches: Vec<(Vector, Vec<u64>)> = (0..BATCHES)
            .map(|_| {
                let keys: Vec<i64> = (0..N)
                    .map(|i| {
                        if !clustered || i % 16 == 0 {
                            key = rng.gen_range(0..groups as i64);
                        }
                        key
                    })
                    .collect();
                let mut hashes = vec![0u64; N];
                hash::map_hash_i64_col(&mut hashes, &keys, None);
                (Vector::I64(keys), hashes)
            })
            .collect();
        let mut table = GroupTable::new(&[ScalarType::I64]);
        let mut scratch = ProbeScratch::default();
        let mut grp = vec![0u32; N];
        let all: Vec<i64> = (0..groups as i64).collect();
        for chunk in all.chunks(N) {
            let mut hashes = vec![0u64; chunk.len()];
            hash::map_hash_i64_col(&mut hashes, chunk, None);
            let keys = Vector::I64(chunk.to_vec());
            table.lookup(&mut scratch, &mut grp, &hashes, &[&keys], chunk.len(), None);
        }
        let mut at = 0;
        g.bench_function(format!("group lookup ({name} groups)"), |bch| {
            bch.iter(|| {
                let (keys, hashes) = &batches[at % BATCHES];
                at += 1;
                table.lookup(&mut scratch, black_box(&mut grp), hashes, &[keys], N, None);
            })
        });
    }

    // Q1's shape: 4 groups arriving in short runs (the lineitems of one
    // order share their flags), under a 98 % selection.
    let grp: Vec<u32> = {
        let mut rng = StdRng::seed_from_u64(8);
        let mut cur = 0;
        (0..N)
            .map(|i| {
                if i % 4 == 0 {
                    cur = rng.gen_range(0..4);
                }
                cur
            })
            .collect()
    };
    let sel = SelVec::from_positions((0..N as u32).filter(|i| i % 50 != 7).collect());
    let cols: Vec<Vec<f64>> = (0..8).map(|k| data_f64(10 + k)).collect();
    for n in [1usize, 2, 5, 8] {
        let vals: Vec<&[f64]> = cols[..n].iter().map(|c| c.as_slice()).collect();
        let mut accs = vec![vec![0.0f64; 4]; n];
        let mut counts = vec![0i64; 4];
        g.bench_function(format!("{n} sums + count, one pass each"), |bch| {
            bch.iter(|| {
                aggr::aggr_count(black_box(&mut counts), black_box(&grp), Some(&sel));
                for (acc, val) in accs.iter_mut().zip(&vals) {
                    aggr::aggr_sum_f64_col(black_box(acc), val, black_box(&grp), Some(&sel));
                }
            })
        });
        g.bench_function(format!("{n} sums + count, fused"), |bch| {
            bch.iter(|| {
                let mut accs: Vec<&mut [f64]> = accs.iter_mut().map(|a| a.as_mut_slice()).collect();
                aggr::fused_sum_f64(
                    black_box(&mut accs),
                    &vals,
                    black_box(&mut counts),
                    None,
                    black_box(&grp),
                    Some(&sel),
                );
            })
        });
    }
    g.finish();
}

/// Ordered aggregation's group-id pass (run boundaries, then the
/// group-opening positions) against the group-table lookup it replaces,
/// on the same clustered keys, at run lengths 1 / 4 / 1 K.
fn bench_ordaggr(c: &mut Criterion) {
    const BATCHES: usize = 64;
    let mut g = c.benchmark_group("ordaggr");
    g.throughput(Throughput::Elements(N as u64));
    for run in [1usize, 4, 1024] {
        // Sorted keys, each repeated `run` times, continuing across
        // batches like a scan of a clustered column.
        let batches: Vec<(Vec<i64>, Vec<u64>)> = (0..BATCHES)
            .map(|b| {
                let keys: Vec<i64> = (0..N).map(|i| ((b * N + i) / run) as i64).collect();
                let mut hashes = vec![0u64; N];
                hash::map_hash_i64_col(&mut hashes, &keys, None);
                (keys, hashes)
            })
            .collect();
        let mut grp = vec![0u32; N];
        let mut starts = Vec::with_capacity(N);
        let mut at = 0;
        g.bench_function(format!("boundaries + starts (run {run})"), |bch| {
            bch.iter(|| {
                let (keys, _) = &batches[at % BATCHES];
                let open = (at % BATCHES > 0).then(|| batches[at % BATCHES - 1].0[N - 1]);
                at += 1;
                hash::aggr_ordered_boundaries_i64_col(black_box(&mut grp), keys, open, None, true);
                hash::aggr_ordered_starts_u32_col(&mut starts, &grp, None, open.is_some());
                black_box(starts.len())
            })
        });
        // The hash variant in its steady state: hash the keys, then
        // look every one of them up (all present).
        let mut table = GroupTable::new(&[ScalarType::I64]);
        let mut scratch = ProbeScratch::default();
        let vectors: Vec<Vector> = batches
            .iter()
            .map(|(k, _)| Vector::I64(k.clone()))
            .collect();
        for (keys, (_, hashes)) in vectors.iter().zip(&batches) {
            table.lookup(&mut scratch, &mut grp, hashes, &[keys], N, None);
        }
        let mut hashes = vec![0u64; N];
        let mut at = 0;
        g.bench_function(format!("hash + group lookup (run {run})"), |bch| {
            bch.iter(|| {
                let keys = &vectors[at % BATCHES];
                at += 1;
                hash::map_hash_i64_col(black_box(&mut hashes), keys.as_i64(), None);
                table.lookup(&mut scratch, black_box(&mut grp), &hashes, &[keys], N, None);
            })
        });
    }
    g.finish();
}

/// The hash join's two halves on the group table: building it over
/// unique keys (`lookup`, ns per build row) and probing it (`hash` +
/// `find`, ns per probe tuple) at build sides that fit L1, L2 and
/// neither, with every probe key present and with half of them absent.
fn bench_join(c: &mut Criterion) {
    const BATCHES: usize = 256;
    let mut g = c.benchmark_group("join");
    for (name, rows) in [("10K", 10_000usize), ("100K", 100_000), ("1M", 1_000_000)] {
        // Build keys in no order, as a scan under a predicate brings them.
        let build: Vec<(Vector, Vec<u64>)> = (0..rows as i64)
            .map(|i| i * 7919 % rows as i64)
            .collect::<Vec<_>>()
            .chunks(N)
            .map(|chunk| {
                let mut hashes = vec![0u64; chunk.len()];
                hash::map_hash_i64_col(&mut hashes, chunk, None);
                (Vector::I64(chunk.to_vec()), hashes)
            })
            .collect();
        let mut scratch = ProbeScratch::default();
        let mut grp = vec![0u32; N];
        let build_table = |scratch: &mut ProbeScratch, grp: &mut [u32]| {
            let mut table = GroupTable::new(&[ScalarType::I64]);
            for (keys, hashes) in &build {
                table.lookup(scratch, grp, hashes, &[keys], keys.len(), None);
            }
            table
        };
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function(format!("build ({name} rows)"), |bch| {
            bch.iter(|| build_table(&mut scratch, &mut grp).len())
        });
        let table = build_table(&mut scratch, &mut grp);
        g.throughput(Throughput::Elements(N as u64));
        for hit_pct in [50, 100] {
            let mut rng = StdRng::seed_from_u64(11);
            let domain = (rows * 100 / hit_pct) as i64;
            let probes: Vec<Vector> = (0..BATCHES)
                .map(|_| Vector::I64((0..N).map(|_| rng.gen_range(0..domain)).collect()))
                .collect();
            let mut hashes = vec![0u64; N];
            let mut at = 0;
            g.bench_function(format!("probe ({name} rows, {hit_pct}% hit)"), |bch| {
                bch.iter(|| {
                    let keys = &probes[at % BATCHES];
                    at += 1;
                    hash::map_hash_i64_col(black_box(&mut hashes), keys.as_i64(), None);
                    table
                        .find(&mut scratch, black_box(&mut grp), &hashes, &[keys], N, None)
                        .len()
                })
            });
        }
    }
    g.finish();
}

/// The engine's predicated select at vector granularity over the
/// selectivities of Figure 2 (`fig2` sweeps both code shapes over 4 M
/// values).
fn bench_select(c: &mut Criterion) {
    let col: Vec<i32> = {
        let mut rng = StdRng::seed_from_u64(9);
        (0..N).map(|_| rng.gen_range(0..1000)).collect()
    };
    let mut out = SelVec::default();
    let mut g = c.benchmark_group("select");
    g.throughput(Throughput::Elements(N as u64));
    for pct in [0, 1, 3, 10, 50, 99] {
        g.bench_function(
            format!("select_lt_i32_col_val predicated ({pct} %)"),
            |bch| {
                bch.iter(|| {
                    select_cmp_col_val(
                        black_box(&mut out),
                        black_box(&col),
                        pct * 10,
                        CmpOp::Lt,
                        None,
                    )
                })
            },
        );
    }
    g.finish();
}

/// The decode `Table::open` runs, per codec: ns per row of one 64 K-row
/// chunk decoded whole, its checksum verified first; `chunk_checksum`
/// is the verification pass alone of a Q1-shaped f64 chunk (22 %
/// exceptions).
fn bench_decode(c: &mut Criterion) {
    use x100_storage::{compress_column_as, ChunkFormat};
    const ROWS: usize = 65_536;
    let mut rng = StdRng::seed_from_u64(12);
    // l_extendedprice's shape: two in nine products that no decimal
    // scale round-trips.
    let prices: Vec<f64> = (0..ROWS)
        .map(|i| match i % 9 {
            0 | 1 => rng.gen_range(900.0..100_000.0f64).sqrt() * 37.1,
            _ => rng.gen_range(90_000..10_000_000) as f64 / 100.0,
        })
        .collect();
    let columns = [
        (
            "pfor u8",
            ChunkFormat::Pfor,
            Vector::U8((0..ROWS).map(|_| rng.gen_range(0..50)).collect()),
        ),
        (
            "pfor i32",
            ChunkFormat::Pfor,
            Vector::I32((0..ROWS).map(|_| rng.gen_range(8_000..11_000)).collect()),
        ),
        ("pfor f64", ChunkFormat::Pfor, Vector::F64(prices)),
    ];
    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (name, format, data) in &columns {
        let cc = compress_column_as(data, *format).expect("codec applies");
        g.bench_function(format!("{name} whole chunk"), |bch| {
            bch.iter(|| black_box(cc.decode().expect("verifies")))
        });
        if *name == "pfor f64" {
            g.bench_function("chunk_checksum (pfor f64, 22 % exceptions)", |bch| {
                bch.iter(|| black_box(&cc).verify_all().expect("verifies"))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_aggr,
    bench_ordaggr,
    bench_join,
    bench_select,
    bench_decode
);
criterion_main!(benches);
