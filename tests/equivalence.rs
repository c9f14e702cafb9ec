//! Three-way equivalence: for the same logical dataset and queries,
//! the **generated** virtualization path, the **hand-written**
//! extractors, and the **minidb** (load-into-a-DBMS) path must return
//! identical row multisets — and all must match the analytic oracle.

use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_handwritten::{HandIparsL0, HandTitan};
use dv_integration::{ipars_oracle, ipars_virtualizer, scratch};
use dv_minidb::MiniDb;
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::Table;

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 6, grid_per_dir: 25, dirs: 2, nodes: 2, seed: 31 }
}

const IPARS_QUERIES: [&str; 6] = [
    "SELECT * FROM IparsData",
    "SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 4",
    "SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 4 AND SOIL > 0.7",
    "SELECT REL, TIME, SOIL FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 30.0",
    "SELECT X, Y, Z FROM IparsData WHERE REL IN (1) AND TIME = 3",
    "SELECT SOIL, SGAS FROM IparsData WHERE NOT (TIME < 3 OR TIME > 4) AND SGAS <= 0.5",
];

#[test]
fn generated_equals_oracle_for_every_layout_and_query() {
    let cfg = ipars_cfg();
    // Oracle per query, built once.
    let probe = ipars_virtualizer("oracleprobe", &cfg, IparsLayout::I);
    let schema = probe.schema().clone();
    let oracles: Vec<Table> = IPARS_QUERIES
        .iter()
        .map(|sql| {
            // Evaluate via the bound predicate itself — independent of
            // the storage path (pure in-memory evaluation).
            let udfs = UdfRegistry::with_builtins();
            let b = bind(&parse(sql).unwrap(), &schema, &udfs).unwrap();
            let working: Vec<usize> = (0..schema.len()).collect();
            let cx = dv_sql::eval::EvalContext::new(schema.len(), &working, &udfs);
            let names: Vec<&str> =
                b.projection.iter().map(|&i| schema.attr_at(i).name.as_str()).collect();
            ipars_oracle(
                &cfg,
                &schema,
                |row| b.predicate.as_ref().map(|p| cx.eval(p, row)).unwrap_or(true),
                &names,
            )
        })
        .collect();

    for layout in IparsLayout::all() {
        let v = ipars_virtualizer("equiv", &cfg, layout);
        for (sql, oracle) in IPARS_QUERIES.iter().zip(&oracles) {
            let (table, _) = v.query(sql).unwrap();
            assert!(
                table.same_rows(oracle),
                "{} / {sql}: {} rows vs oracle {}",
                layout.label(),
                table.len(),
                oracle.len()
            );
        }
    }
}

#[test]
fn generated_equals_handwritten_l0() {
    let cfg = ipars_cfg();
    let base = scratch("hand-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = dv_core::Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg, UdfRegistry::with_builtins());
    for sql in IPARS_QUERIES {
        let bq = bind(&parse(sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        let (gen_t, _) = v.query(sql).unwrap();
        assert!(hand_t.same_rows(&gen_t), "{sql}");
    }
}

#[test]
fn generated_equals_minidb() {
    let cfg = ipars_cfg();
    let v = ipars_virtualizer("minidb", &cfg, IparsLayout::V);
    let dbdir = scratch("minidb-db");
    let mut db = MiniDb::open(&dbdir, UdfRegistry::with_builtins()).unwrap();
    // "Load the data into the DBMS" — schema name must match FROM.
    let mut schema = v.schema().clone();
    schema = dv_types::Schema::new("IPARSDATA", schema.attributes().to_vec()).unwrap();
    db.load_table(&schema, cfg.all_rows()).unwrap();
    db.create_index("IPARSDATA", "TIME").unwrap();

    for sql in IPARS_QUERIES {
        let (gen_t, _) = v.query(sql).unwrap();
        let (db_t, _) = db.query(&sql.replace("IparsData", "IPARSDATA")).unwrap();
        assert!(
            gen_t.same_rows(&db_t),
            "{sql}: generated {} vs minidb {}",
            gen_t.len(),
            db_t.len()
        );
    }
}

#[test]
fn titan_three_way() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("titan3");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = dv_core::Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();

    let dbdir = scratch("titan3-db");
    let mut db = MiniDb::open(&dbdir, UdfRegistry::with_builtins()).unwrap();
    let schema = dv_types::Schema::new("TITANDATA", v.schema().attributes().to_vec()).unwrap();
    db.load_table(&schema, cfg.all_rows()).unwrap();
    db.create_index("TITANDATA", "X").unwrap();
    db.create_index("TITANDATA", "S1").unwrap();

    let queries = [
        "SELECT * FROM TitanData",
        "SELECT * FROM TitanData WHERE X >= 1000 AND X <= 20000 AND Y >= 0 AND Y <= 30000 \
         AND Z >= 100 AND Z <= 400",
        "SELECT * FROM TitanData WHERE S1 < 0.01",
        "SELECT X, S1 FROM TitanData WHERE S1 < 0.5",
        "SELECT * FROM TitanData WHERE DISTANCE(X, Y, Z) < 15000.0",
    ];
    for sql in queries {
        let bq = bind(&parse(sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        let (gen_t, _) = v.query(sql).unwrap();
        let (db_t, _) = db.query(&sql.replace("TitanData", "TITANDATA")).unwrap();
        assert!(gen_t.same_rows(&hand_t), "{sql}: generated vs hand");
        assert!(gen_t.same_rows(&db_t), "{sql}: generated vs minidb");
    }
}

#[test]
fn partitioned_results_union_to_oracle() {
    let cfg = ipars_cfg();
    let v = ipars_virtualizer("partunion", &cfg, IparsLayout::II);
    let opts = dv_core::QueryOptions {
        client_processors: 3,
        partition: dv_core::PartitionStrategy::HashAttr { position: 0 },
        ..Default::default()
    };
    let sql = "SELECT TIME, SOIL FROM IparsData WHERE SOIL > 0.2";
    let (tables, _) = v.query_with(sql, &opts).unwrap();
    let mut merged = Table::empty(tables[0].schema.clone());
    for mut t in tables {
        merged.rows.append(&mut t.rows);
    }
    let (single, _) = v.query(sql).unwrap();
    assert!(merged.same_rows(&single));
}
