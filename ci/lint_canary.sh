#!/usr/bin/env bash
# Negative control for the bans the toolchain enforces (DESIGN.md §11).
#
# GSD001/002/005/006/007/008/009/010/011/012 are retired: clippy.toml, the
# crate-root `#![deny(clippy::…)]` blocks and `[workspace.lints]` in the
# root Cargo.toml took them over, and clippy.toml also holds the
# environment ban (configuration is a value). A ban that silently stopped
# firing (a renamed lint, a dropped `deny`, a clippy.toml entry deleted or
# no longer picked up) would leave the tree "clean" for the wrong reason,
# so this script drops one module holding a violation of each retired
# rule plus one use of every banned path into a scoped crate,
# requires `cargo clippy -- -D warnings` to FAIL naming every lint and
# every banned path, and restores the tree. It then drops one truncating
# cast into each other crate whose root denies `cast_possible_truncation`
# and requires clippy to reject each.
#
# The scoped crate is gsd-io: it carries the crate-root `deny` blocks and
# depends on parking_lot, whose lock constructors are among the bans, and
# on gsd-trace, whose `TraceEvent` the retired GSD012 fixture matched.
#
# Usage: bash ci/lint_canary.sh   (from anywhere; needs clean crate roots)
set -euo pipefail
cd "$(dirname "$0")/.."

crate=crates/gsd-io
canary=$crate/src/lint_canary.rs
root=$crate/src/lib.rs
# The other crates whose roots deny truncating casts (retired GSD006).
cast_crates="gsd-graph gsd-core gsd-baselines"
backup=$(mktemp -d)
log=$(mktemp)
cp "$root" "$backup/gsd-io.rs"
for c in $cast_crates; do
    cp "crates/$c/src/lib.rs" "$backup/$c.rs"
done
restore() {
    cp "$backup/gsd-io.rs" "$root"
    rm -f "$canary"
    for c in $cast_crates; do
        cp "$backup/$c.rs" "crates/$c/src/lib.rs"
        rm -f "crates/$c/src/lint_canary.rs"
    done
    rm -rf "$backup" "$log"
}
trap restore EXIT

cat > "$canary" <<'EOF'
//! ci/lint_canary.sh: one violation per toolchain-enforced ban. Each
//! module is named after the retired rule id whose ban it breaks.

/// Retired GSD001 (+ the two macros its fixture never listed).
pub mod gsd001 {
    pub fn read_header(bytes: &[u8]) -> u32 {
        let word: [u8; 4] = bytes[..4].try_into().unwrap();
        if word == [0; 4] {
            panic!("empty header");
        }
        let len = std::str::from_utf8(&bytes[4..]).expect("utf8 header");
        if len.is_empty() {
            unreachable!();
        }
        u32::from_le_bytes(word)
    }

    pub fn later() -> u32 {
        todo!()
    }

    pub fn never() -> u32 {
        unimplemented!()
    }
}

/// Retired GSD002.
pub mod gsd002 {
    use std::time::Instant;

    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    }

    pub fn wall_clock_seconds() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// Retired GSD007.
pub mod gsd007 {
    use std::collections::HashMap;

    pub fn dump(m: &HashMap<u64, u64>, out: &mut Vec<u64>) {
        for k in m.keys() {
            out.push(*k);
        }
    }

    pub fn first(m: &HashMap<u64, u64>) -> Option<u64> {
        m.values().copied().next()
    }
}

/// Retired GSD008 (and the set, which no fixture used).
pub mod gsd008 {
    use std::collections::{HashMap, HashSet};

    pub fn total(ranks: &HashMap<u64, f64>) -> f64 {
        ranks.values().sum::<f64>()
    }

    pub fn folded(ranks: &HashMap<u64, f64>) -> f64 {
        ranks.values().fold(0.0, |acc, v| acc + v)
    }

    pub fn seen(ids: &HashSet<u64>) -> usize {
        ids.len()
    }
}

/// Retired GSD009, plus the constructors the old rule missed.
pub mod gsd009 {
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::thread;

    pub fn run() {
        let (tx, rx) = mpsc::channel::<u64>();
        let m = Mutex::new(0u64);
        let h = thread::spawn(move || drop(tx));
        let _ = (rx, m, h);
    }

    pub fn missed_by_the_old_rule() {
        let (tx, rx) = mpsc::sync_channel::<u64>(1);
        let locks = (
            std::sync::RwLock::new(0u64),
            std::sync::Condvar::new(),
            std::sync::Barrier::new(1),
            parking_lot::Mutex::new(0u64),
            parking_lot::RwLock::new(0u64),
        );
        let h = thread::Builder::new().spawn(move || drop(tx));
        thread::scope(|_| ());
        let _ = (rx, locks, h);
    }
}

/// Retired GSD005: no first-party crate contains `unsafe`.
pub mod gsd005 {
    pub fn first(bytes: &[u8]) -> u8 {
        unsafe { *bytes.as_ptr() }
    }
}

/// Configuration is a value: no library reads or writes the environment.
pub mod ambient_config {
    pub fn prefetch_from_the_environment() -> bool {
        std::env::set_var("GSD_PREFETCH", "1");
        let on = std::env::var("GSD_PREFETCH").is_ok()
            || std::env::var_os("GSD_PREFETCH").is_some();
        std::env::remove_var("GSD_PREFETCH");
        on && std::env::vars().count() > 0
    }
}

/// Retired GSD006, plus the casts the old `as u32` rule missed.
pub mod gsd006 {
    pub fn interval_of(vertex: u64, stride: u64) -> u32 {
        (vertex / stride) as u32
    }

    pub fn missed_by_the_old_rule(offset: u64, nanos: u128, secs: f64) -> (usize, u64, u64) {
        (offset as usize, nanos as u64, secs as u64)
    }
}

/// Retired GSD010: a raw atomic, `Relaxed` or not. Shared statistics are
/// `gsd_trace::Counter`; every atomic type is banned.
pub mod gsd010 {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct State {
        epoch: AtomicU64,
    }

    impl State {
        pub fn bump(&self) -> u64 {
            self.epoch.fetch_add(1, Ordering::Relaxed)
        }
    }

    pub struct EveryAtomic(
        pub std::sync::atomic::AtomicBool,
        pub std::sync::atomic::AtomicI8,
        pub std::sync::atomic::AtomicI16,
        pub std::sync::atomic::AtomicI32,
        pub std::sync::atomic::AtomicI64,
        pub std::sync::atomic::AtomicIsize,
        pub std::sync::atomic::AtomicPtr<u8>,
        pub std::sync::atomic::AtomicU8,
        pub std::sync::atomic::AtomicU16,
        pub std::sync::atomic::AtomicU32,
        pub std::sync::atomic::AtomicUsize,
    );
}

/// Retired GSD011 (which only looked at four crates), plus every banned
/// `std::fs` function.
pub mod gsd011 {
    use std::fs::File;
    use std::io::Write;

    pub fn flush_edges(file: &mut File, edges: &[u64]) -> std::io::Result<()> {
        for e in edges {
            file.write_all(&e.to_le_bytes())?;
        }
        Ok(())
    }

    pub fn log_edges(file: &mut File, edges: &[u64]) -> std::io::Result<()> {
        for e in edges {
            writeln!(file, "{e}")?;
        }
        Ok(())
    }

    pub fn every_free_function(dir: &std::path::Path) -> std::io::Result<()> {
        let (f, g) = (dir.join("f"), dir.join("g"));
        std::fs::create_dir(dir)?;
        std::fs::create_dir_all(dir)?;
        std::fs::write(&f, b"x")?;
        let _ = (std::fs::read(&f)?, std::fs::read_to_string(&f)?);
        let _ = (std::fs::metadata(&f)?, std::fs::read_dir(dir)?);
        std::fs::copy(&f, &g)?;
        std::fs::rename(&g, &f)?;
        std::fs::remove_file(&f)?;
        std::fs::remove_dir(dir)?;
        std::fs::remove_dir_all(dir)?;
        std::fs::OpenOptions::new().read(true).open(&f).map(drop)
    }
}

/// Retired GSD012 (which only looked at `TraceEvent`): a catch-all arm.
pub mod gsd012 {
    use gsd_trace::TraceEvent;

    pub fn label(ev: &TraceEvent) -> &'static str {
        match ev {
            TraceEvent::RunStart { .. } => "start",
            _ => "other",
        }
    }
}
EOF
# The suppression itself is the last canary: an `allow` with no reason.
printf '#[allow(missing_docs)]\npub mod lint_canary;\n' >> "$root"

if cargo clippy -p gsd-io -- -D warnings > "$log" 2>&1; then
    cat "$log"
    echo "lint_canary: FAIL — clippy passed a crate holding every banned construct" >&2
    exit 1
fi

missing=0
expect() {
    if ! grep -qF -- "$1" "$log"; then
        echo "lint_canary: FAIL — clippy's output never mentions $1" >&2
        missing=1
    fi
}
# Lint names, as clippy prints them in each finding's help link.
for lint in unwrap_used expect_used panic unreachable todo unimplemented \
    disallowed_types disallowed_methods allow_attributes_without_reason \
    cast_possible_truncation wildcard_enum_match_arm; do
    expect "index.html#$lint"
done
# The workspace-level rustc lint, as rustc names it.
expect "-F unsafe-code"
expect "usage of an \`unsafe\` block"
# Every clippy.toml entry, by the resolved path clippy reports.
for path in std::collections::HashMap std::collections::HashSet \
    std::time::Instant std::time::SystemTime \
    std::thread::spawn std::thread::Builder::spawn std::thread::scope \
    std::sync::mpsc::channel std::sync::mpsc::sync_channel \
    std::sync::Mutex::new std::sync::RwLock::new std::sync::Condvar::new \
    std::sync::Barrier::new parking_lot::Mutex::new parking_lot::RwLock::new \
    std::env::var std::env::var_os std::env::vars std::env::set_var \
    std::env::remove_var \
    std::fs::File std::fs::OpenOptions \
    std::fs::read std::fs::read_to_string std::fs::write std::fs::read_dir \
    std::fs::create_dir std::fs::create_dir_all std::fs::remove_file \
    std::fs::remove_dir std::fs::remove_dir_all std::fs::rename std::fs::copy \
    std::fs::metadata; do
    expect "\`$path\`"
done
for atomic in Bool I8 I16 I32 I64 Isize Ptr U8 U16 U32 U64 Usize; do
    expect "\`std::sync::atomic::Atomic$atomic\`"
done
if [ "$missing" -ne 0 ]; then
    cat "$log"
    exit 1
fi
cp "$backup/gsd-io.rs" "$root"
rm -f "$canary"

# Every other crate-root `deny(clippy::cast_possible_truncation)`. Each run
# lints one crate (`--no-deps`): the canaries in the crates it depends on
# build as plain rustc, where a cast is legal.
for c in $cast_crates; do
    printf '%s\n' '//! ci/lint_canary.sh: retired GSD006 at this crate root.' \
        '/// A truncating cast.' \
        'pub fn narrowed(v: u64) -> u32 {' '    v as u32' '}' \
        > "crates/$c/src/lint_canary.rs"
    printf 'pub mod lint_canary;\n' >> "crates/$c/src/lib.rs"
done
for c in $cast_crates; do
    if cargo clippy -p "$c" --no-deps -- -D warnings > "$log" 2>&1; then
        cat "$log"
        echo "lint_canary: FAIL — clippy passed a truncating cast in $c" >&2
        exit 1
    fi
    expect "index.html#cast_possible_truncation"
    expect "crates/$c/src/lint_canary.rs"
    if [ "$missing" -ne 0 ]; then
        cat "$log"
        exit 1
    fi
done
echo "lint_canary: ok — clippy rejected the canary and named all 12 lints and all 46 banned paths, and a truncating cast in each of $cast_crates"
