#!/usr/bin/env bash
# Negative control for the bans the toolchain enforces (DESIGN.md §11).
#
# GSD001/002/005/007/008/009 are retired: clippy.toml and the crate-root
# `#![deny(clippy::…)]` blocks took them over, `[workspace.lints.rust]
# unsafe_code = "forbid"` in the root Cargo.toml took GSD005, and
# clippy.toml also holds the environment ban (configuration is a value).
# A ban that silently
# stopped firing (a renamed lint, a dropped `deny`, a clippy.toml that is
# no longer picked up) would leave the tree "clean" for the wrong reason,
# so this script drops one module holding the retired rules' former
# positive fixtures plus one environment read/write of each kind into a
# scoped crate, requires `cargo clippy -- -D warnings` to
# FAIL naming every lint and every banned path, and restores the tree.
#
# The scoped crate is gsd-io: it carries the crate-root `deny` block and
# depends on parking_lot, whose lock constructors are among the bans.
#
# Usage: bash ci/lint_canary.sh   (from anywhere; needs a clean gsd-io)
set -euo pipefail
cd "$(dirname "$0")/.."

crate=crates/gsd-io
canary=$crate/src/lint_canary.rs
root=$crate/src/lib.rs
backup=$(mktemp)
log=$(mktemp)
cp "$root" "$backup"
restore() {
    cp "$backup" "$root"
    rm -f "$canary" "$backup" "$log"
}
trap restore EXIT

cat > "$canary" <<'EOF'
//! ci/lint_canary.sh: one violation per toolchain-enforced ban. Each
//! module is the former `pos.rs` fixture of the gsd-lint rule it names.

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
    disallowed_types disallowed_methods allow_attributes_without_reason; do
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
    std::env::remove_var; do
    expect "\`$path\`"
done
if [ "$missing" -ne 0 ]; then
    cat "$log"
    exit 1
fi
echo "lint_canary: ok — clippy rejected the canary and named all 10 lints and all 20 banned paths"
