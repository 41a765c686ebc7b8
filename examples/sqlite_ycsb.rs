//! The §6.5 application stack: minidb (SQLite substitute) over the xv6fs
//! server over the RAM-disk server, driven by YCSB-A.
//!
//! ```text
//! cargo run --release --example sqlite_ycsb
//! ```

use sb_db::{Database, Value};
use sb_fs::{FileSystem, RamDisk};
use sb_microkernel::Personality;
use skybridge_repro::scenarios::sqlite::{SqliteStack, StackMode};

fn main() {
    // Part 1: minidb standalone (no simulation), to show the database
    // substrate is a real engine: Table 4's four operations on one table.
    println!("--- minidb session (standalone) ---");
    let fs = FileSystem::mkfs(RamDisk::new(8192), 64);
    let mut db = Database::open(fs, "/d.db", 64).unwrap();
    let person = |name: &str, age| vec![Value::Text(name.into()), Value::Int(age)];
    db.create_table("usertable").unwrap();
    println!("  ok: create table usertable");
    db.insert("usertable", 1, &person("alice", 31)).unwrap();
    db.insert("usertable", 2, &person("bob", 44)).unwrap();
    println!("  ok: insert rows 1 and 2");
    db.update("usertable", 2, &person("robert", 45)).unwrap();
    println!("  ok: update row 2");
    db.delete("usertable", 1).unwrap();
    println!("  ok: delete row 1");
    let rows = db.scan("usertable").unwrap();
    println!("  scan usertable -> {rows:?}");

    // Part 2: the same engine on the simulated three-process stack,
    // YCSB-A, comparing the transports.
    println!("\n--- YCSB-A on the simulated stack (seL4, 1 client) ---");
    let records = 500;
    let ops = 100;
    println!(
        "{:<12} {:>12} {:>8} {:>10}",
        "transport", "ops/s", "IPIs", "VM exits"
    );
    for (name, mode) in [
        ("ST-Server", StackMode::IpcSt),
        ("MT-Server", StackMode::IpcMt),
        ("SkyBridge", StackMode::SkyBridge),
    ] {
        let mut s = SqliteStack::new(Personality::sel4(), mode, 1, false);
        s.load(records, 100);
        let stats = s.run_ycsb(ops);
        println!(
            "{:<12} {:>12.0} {:>8} {:>10}",
            name, stats.ops_per_sec, stats.ipis, stats.vm_exits
        );
    }
    println!(
        "\nST pays an IPI per cross-core hop; SkyBridge runs the file\n\
         system's code on the client's own thread — no kernel, no exits."
    );
}
